package main

import (
	"math/rand"

	"opera/internal/grid"
	"opera/internal/service"
)

// Workload sizes. They are fixed here, not derived from the seed, so
// every seed exercises the same amount of work; the seed only decides
// which grids, draws and request order that work runs on.
const (
	// table1: the paper's Table 1 experiment at one scaled size.
	table1Nodes   = 2600 // grid.DefaultSpec target; 2,570 unknowns
	table1Order   = 2
	table1Steps   = 20
	table1Step    = 1e-10
	table1Batch   = 50 // Monte Carlo runs in batches of this many samples,
	table1Batches = 20 // this many batches make the 1000-sample reference

	// leakage: the §5.1 special case (lognormal leakage, decoupled
	// Eq. 27 path).
	leakNodes     = 6800
	leakSpecReg   = 2 // 2×2 = 4 region tags
	leakRegions   = leakSpecReg * leakSpecReg
	leakSigma     = 0.6
	leakOrder     = 3 // basis 35 over 4 dimensions
	leakBasis     = 35
	leakSteps     = 50
	leakMCSamples = 10
	leakPasses    = 8

	// service: a cluster under a closed loop of two clients.
	svcOpera      = 34 // key population: ~70% opera,
	svcLeakage    = 10 // ~20% leakage,
	svcMC         = 4  // ~10% mc
	svcKeys       = svcOpera + svcLeakage + svcMC
	svcMinNodes   = 256
	svcMaxNodes   = 768
	svcMCSamples  = 40
	svcRoundJobs  = 160 // requests per cold-cache round (48 first sightings)
	svcMinJobs    = 1000
	svcPairProb   = 1.0 / 6 // a first sighting is immediately re-sent
	svcDirectProb = 1.0 / 3 // a repeat bypasses the router
	svcMaxRounds  = 16
	svcShards     = 2
	svcClients    = 2
)

// item is one request of the service stream.
type item struct {
	Key   int  // index into plan.Keys
	Shard int  // -1: through the router; otherwise straight to that shard
	First bool // first sighting of the key in its round: the one that solves
	Pair  bool // re-sent right behind its first sighting, so the two coalesce
}

// plan is every input the benchmark feeds the program, derived from the
// workload seed alone: the same seed yields the same plan.
type plan struct {
	Table1Grid  grid.Spec
	MCSeed      int64
	LeakageGrid grid.Spec
	Keys        []service.Request
	Rounds      [][]item
}

// newPlan derives the inputs of every workload from seed.
func newPlan(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	p.Table1Grid = grid.DefaultSpec(table1Nodes, seed)
	p.MCSeed = 1 + rng.Int63n(1<<40)
	p.LeakageGrid = grid.DefaultSpec(leakNodes, seed)
	p.LeakageGrid.Regions = leakSpecReg

	// Key population: grid sizes are stratified over [min, max] per kind
	// and shuffled, so each seed draws the same spread of solve costs.
	// The few mc keys all sit mid-range, so the median cold mc job is
	// not perched between two cost levels.
	add := func(kind string, count int) {
		sizes := make([]int, count)
		for i := range sizes {
			sizes[i] = svcMinNodes + (svcMaxNodes-svcMinNodes)*i/(count-1)
			if kind == service.KindMC {
				sizes[i] = (svcMinNodes + svcMaxNodes) / 2
			}
		}
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		for _, n := range sizes {
			spec := grid.DefaultSpec(n, 1+rng.Int63n(1<<40))
			req := service.Request{Grid: &spec, Analysis: kind, Order: 2}
			switch kind {
			case service.KindMC:
				req.Samples = svcMCSamples
				req.Seed = 1 + rng.Int63n(1<<40)
			case service.KindLeakage:
				req.Regions = 4 // DefaultSpec's 2×2 region tags
				req.SigmaLogI = leakSigma
			}
			p.Keys = append(p.Keys, req)
		}
	}
	add(service.KindOpera, svcOpera)
	add(service.KindLeakage, svcLeakage)
	add(service.KindMC, svcMC)

	// Zipf-like popularity: key popRank[k] draws weight 1/(rank+1).
	popRank := rng.Perm(svcKeys)
	for r := 0; r < svcMaxRounds; r++ {
		p.Rounds = append(p.Rounds, newRound(rng, popRank))
	}
	return p
}

// newRound lays out one cold-cache round: every key is sighted once
// through the router (the solve), and the other slots repeat a key
// already sighted, drawn by popularity. Some first sightings are
// re-sent at once (coalescing), and some repeats go straight to a
// shard (the peer peek).
func newRound(rng *rand.Rand, popRank []int) []item {
	first := make([]bool, svcRoundJobs)
	first[0] = true
	for _, s := range rng.Perm(svcRoundJobs - 1)[:svcKeys-1] {
		first[s+1] = true
	}
	order := rng.Perm(svcKeys)
	var seen []int
	var weights []float64
	total := 0.0
	items := make([]item, 0, svcRoundJobs)
	for s := 0; s < svcRoundJobs; s++ {
		if first[s] {
			k := order[len(seen)]
			seen = append(seen, k)
			w := 1 / float64(popRank[k]+1)
			weights = append(weights, w)
			total += w
			items = append(items, item{Key: k, Shard: -1, First: true})
			continue
		}
		if prev := items[len(items)-1]; prev.First && rng.Float64() < svcPairProb {
			items = append(items, item{Key: prev.Key, Shard: -1, Pair: true})
			continue
		}
		x := rng.Float64() * total
		k := seen[len(seen)-1]
		for i, w := range weights {
			if x < w {
				k = seen[i]
				break
			}
			x -= w
		}
		shard := -1
		if rng.Float64() < svcDirectProb {
			shard = rng.Intn(svcShards)
		}
		items = append(items, item{Key: k, Shard: shard})
	}
	return items
}
