package order

import (
	"slices"
	"testing"
)

func TestMethodNamesRoundTrip(t *testing.T) {
	for _, name := range []string{"amd", "nd", "md", "rcm", "natural"} {
		m, err := ParseMethod(name)
		if err != nil {
			t.Fatalf("ParseMethod(%q): %v", name, err)
		}
		if got := m.String(); got != name {
			t.Errorf("ParseMethod(%q).String() = %q", name, got)
		}
	}
	if _, err := ParseMethod("metis"); err == nil {
		t.Error("unknown ordering name accepted")
	}
	if m, err := ParseMethod(""); err != nil || m != MethodAMD {
		t.Errorf(`ParseMethod("") = %v, %v; want amd`, m, err)
	}
	var zero Method
	if zero != MethodAMD {
		t.Errorf("zero Method is %v, want amd", zero)
	}
}

func TestPermuteDispatch(t *testing.T) {
	a := grid2D(6, 7)
	g := NewGraph(a)
	want := map[Method][]int{
		MethodAMD:     AMD(g),
		MethodND:      NestedDissection(g, 0),
		MethodMD:      MinimumDegree(g),
		MethodRCM:     RCM(g),
		MethodNatural: nil,
	}
	for m, w := range want {
		if got := Permute(m, a); !slices.Equal(got, w) {
			t.Errorf("Permute(%v) = %v, want %v", m, got, w)
		}
	}
}
