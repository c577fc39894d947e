package main

import (
	"reflect"
	"testing"

	"opera/internal/service"
)

// keysOf returns the content keys of a plan's service key population.
func keysOf(p *plan) []string {
	var keys []string
	for _, req := range p.Keys {
		req.Normalize()
		keys = append(keys, req.Key())
	}
	return keys
}

func TestPlanSameSeedSameInputs(t *testing.T) {
	a, b := newPlan(7), newPlan(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different plans")
	}
	if !reflect.DeepEqual(keysOf(a), keysOf(b)) {
		t.Fatal("the same seed produced different request keys")
	}
}

func TestPlanDifferentSeedDifferentInputs(t *testing.T) {
	a, c := newPlan(7), newPlan(8)
	if a.Table1Grid == c.Table1Grid || a.LeakageGrid == c.LeakageGrid {
		t.Error("a different seed kept the same grids")
	}
	if a.MCSeed == c.MCSeed {
		t.Error("a different seed kept the same Monte Carlo seed")
	}
	ka, kc := keysOf(a), keysOf(c)
	for i := range ka {
		if ka[i] == kc[i] {
			t.Errorf("key %d is the same under both seeds", i)
		}
	}
	if reflect.DeepEqual(a.Rounds, c.Rounds) {
		t.Error("a different seed kept the same request order")
	}
}

func TestPlanWorkloadShapes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 90210} {
		p := newPlan(seed)
		if n := p.Table1Grid.NumNodes(); n != 2570 {
			t.Errorf("seed %d: table1 grid has %d unknowns, want 2570", seed, n)
		}
		if p.LeakageGrid.NumRegions() != leakRegions {
			t.Errorf("seed %d: leakage grid has %d regions, want %d", seed, p.LeakageGrid.NumRegions(), leakRegions)
		}

		distinct := map[string]bool{}
		for _, k := range keysOf(p) {
			distinct[k] = true
		}
		if len(distinct) != svcKeys {
			t.Errorf("seed %d: %d distinct keys, want %d", seed, len(distinct), svcKeys)
		}
		kinds := map[string]int{}
		for _, req := range p.Keys {
			kinds[req.Analysis]++
			if n := req.Grid.NumNodes(); n < 200 || n > 800 {
				t.Errorf("seed %d: %s grid of %d nodes outside the 256-768 target", seed, req.Analysis, n)
			}
			if req.Analysis == service.KindMC && (req.Samples < 1 || req.Samples > 40) {
				t.Errorf("seed %d: mc request with %d samples", seed, req.Samples)
			}
		}
		if kinds[service.KindOpera] != svcOpera || kinds[service.KindLeakage] != svcLeakage || kinds[service.KindMC] != svcMC {
			t.Errorf("seed %d: kind mix %v", seed, kinds)
		}

		var jobs, repeats, direct, pairs int
		for r, round := range p.Rounds {
			sighted := map[int]bool{}
			for i, it := range round {
				jobs++
				switch {
				case it.First:
					if sighted[it.Key] || it.Shard >= 0 {
						t.Fatalf("seed %d round %d slot %d: first sighting repeated or sent to a shard", seed, r, i)
					}
					sighted[it.Key] = true
					continue
				case !sighted[it.Key]:
					t.Fatalf("seed %d round %d slot %d: repeat of a key not yet sighted", seed, r, i)
				case it.Pair:
					if prev := round[i-1]; !prev.First || prev.Key != it.Key || it.Shard >= 0 {
						t.Fatalf("seed %d round %d slot %d: pair does not follow its first sighting through the router", seed, r, i)
					}
					pairs++
				}
				repeats++
				if it.Shard >= 0 {
					direct++
				}
			}
			if len(sighted) != svcKeys {
				t.Errorf("seed %d round %d sights %d keys, want %d", seed, r, len(sighted), svcKeys)
			}
		}
		if share := float64(repeats) / float64(jobs); share < 0.6 || share > 0.8 {
			t.Errorf("seed %d: repeat share %.2f", seed, share)
		}
		if share := float64(direct) / float64(jobs); share < 0.15 || share > 0.35 {
			t.Errorf("seed %d: direct-to-shard share %.2f, want about 1 in 4", seed, share)
		}
		if pairs == 0 {
			t.Errorf("seed %d: no simultaneous duplicate submissions", seed)
		}
	}
}
