package order

import (
	"fmt"

	"opera/internal/sparse"
)

// Method names a fill-reducing ordering. It is the one ordering switch
// of the solver stack: every factorization path resolves its
// permutation through Permute, and every wire spelling (CLI flag,
// service request, bench scenario) through ParseMethod. The zero value
// is MethodAMD, the default.
type Method int

// Ordering methods.
const (
	MethodAMD     Method = iota // approximate minimum degree (default)
	MethodND                    // George–Liu nested dissection
	MethodMD                    // exact minimum degree
	MethodRCM                   // reverse Cuthill–McKee
	MethodNatural               // identity: no reordering
)

var methodNames = [...]string{
	MethodAMD:     "amd",
	MethodND:      "nd",
	MethodMD:      "md",
	MethodRCM:     "rcm",
	MethodNatural: "natural",
}

// String returns the wire name ("amd", "nd", "md", "rcm", "natural").
func (m Method) String() string {
	if m >= 0 && int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod resolves a wire name; "" selects the default, MethodAMD.
func ParseMethod(s string) (Method, error) {
	if s == "" {
		return MethodAMD, nil
	}
	for m, name := range methodNames {
		if s == name {
			return Method(m), nil
		}
	}
	return 0, fmt.Errorf("order: unknown ordering %q (want amd, nd, md, rcm or natural)", s)
}

// Permute computes the method's permutation of the square matrix a's
// graph (pattern of A + Aᵀ) in the "new = old[p[new]]" convention of
// sparse.Matrix.SymPerm. MethodNatural returns nil, which every
// factorization reads as the identity; a value outside the enumeration
// orders like the default.
func Permute(m Method, a *sparse.Matrix) []int {
	switch m {
	case MethodNatural:
		return nil
	case MethodND:
		return NestedDissection(NewGraph(a), 0)
	case MethodMD:
		return MinimumDegree(NewGraph(a))
	case MethodRCM:
		return RCM(NewGraph(a))
	default:
		return AMD(NewGraph(a))
	}
}
