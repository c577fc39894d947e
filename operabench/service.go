package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opera/internal/cluster"
	"opera/internal/obs"
	"opera/internal/service"
)

// roundTimeout bounds one round's load, so a hung job fails the run
// instead of overrunning it.
const roundTimeout = 150 * time.Second

// tracesPerRound caps how many sampled traces a traced round fetches.
const tracesPerRound = 64

// svcCluster is one in-process cluster: svcShards operad shards peered
// with each other and one operag router in front, each on a loopback
// listener.
type svcCluster struct {
	shards   []*service.Server
	shardHS  []*httptest.Server
	routerHS *httptest.Server
}

// startCluster builds the cluster with operad's defaults except one job
// at a time and one solver worker per shard.
func startCluster() (*svcCluster, error) {
	c := &svcCluster{}
	var urls []string
	for i := 0; i < svcShards; i++ {
		srv, err := service.New(service.Options{
			ConcurrentJobs: 1,
			SolverWorkers:  1,
			DefaultTimeout: 10 * time.Minute,
			FlightJobs:     32,
			SpanRingBytes:  1 << 20,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		hs := httptest.NewServer(srv.Handler())
		c.shards = append(c.shards, srv)
		c.shardHS = append(c.shardHS, hs)
		urls = append(urls, hs.URL)
	}
	for i, s := range c.shards {
		s.SetPeers(urls[i], urls)
	}
	router, err := cluster.New(cluster.Options{Shards: urls})
	if err != nil {
		c.close()
		return nil, err
	}
	c.routerHS = httptest.NewServer(router.Handler())
	return c, nil
}

// close stops the router and drains and stops every shard.
func (c *svcCluster) close() {
	if c.routerHS != nil {
		c.routerHS.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, s := range c.shards {
		if err := s.Shutdown(ctx); err != nil {
			fmt.Printf("shard %d shutdown: %v\n", i, err)
		}
		c.shardHS[i].Close()
	}
}

// get fetches url and returns the body of a 200 reply.
func get(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// jobRecord is the client's view of one request.
type jobRecord struct {
	it                           item
	kind                         string
	submit, wait, result, totalT float64 // ms
	cold                         bool    // the submission started a solve
	runS                         float64 // run time the service reports, s
	traceID                      string
}

// svcStats accumulates a run's service measurements.
type svcStats struct {
	jobs     []jobRecord
	setup    []float64 // s per round
	loopWall float64   // s of closed-loop load, all rounds

	// Scraped from /metrics/cluster after each round's load.
	hits, misses, coalesced, solves, keys float64
	peekHits, peekMisses, rejected        float64
	queueWait, solve, forward             obs.HistogramSnapshot

	// From the stitched traces of traced rounds.
	traces, incomplete int
	peekMS             []float64
}

// runService drives the cluster with a closed loop of two clients, one
// fresh cluster (empty caches) per round.
func runService(p *plan, seconds float64, r *report) error {
	st := &svcStats{}
	alloc0, gc0 := runtimeTotals()
	var plainJobs, tracedJobs []float64
	start := time.Now()
	for round := 0; round < len(p.Rounds); round++ {
		enough := len(st.jobs) >= svcMinJobs
		if !r.trace && enough && time.Since(start).Seconds() >= seconds {
			break
		}
		if r.trace && enough {
			break
		}
		// The traced run alternates plain and traced rounds, so the two
		// share one machine state and their difference is the overhead.
		traced := r.trace && round%2 == 1
		before := len(st.jobs)
		if err := runRound(p, round, traced, st, r); err != nil {
			return err
		}
		for _, j := range st.jobs[before:] {
			if traced {
				tracedJobs = append(tracedJobs, j.totalT)
			} else {
				plainJobs = append(plainJobs, j.totalT)
			}
		}
	}
	var all, coldOpera, coldMC, submit, wait, result []float64
	for _, j := range st.jobs {
		all = append(all, j.totalT)
		submit = append(submit, j.submit)
		wait = append(wait, j.wait)
		result = append(result, j.result)
		if j.cold && j.kind == service.KindOpera {
			coldOpera = append(coldOpera, j.runS)
		}
		if j.cold && j.kind == service.KindMC {
			coldMC = append(coldMC, j.runS)
		}
	}
	p99, beyond := percentile(all, 99)
	r.check("solves per key", st.solves == st.keys, "%g solves for %g distinct keys across %d rounds", st.solves, st.keys, len(st.setup))
	if !r.trace {
		r.timing("setup_s", st.setup)
		r.timing("opera_s", coldOpera)
		r.timing("mc_s", coldMC)
		r.timing("job_p50_ms", all)
		r.set("jobs_per_s", float64(len(all))/st.loopWall, len(all))
		r.derive("job_p99_ms = %.6g ms (n=%d, %d beyond)", p99, len(all), beyond)
		return nil
	}
	wait99, _ := percentile(wait, 99)
	r.set("client.submit_ms_p50", median(submit), len(submit))
	r.set("client.wait_ms_p50", median(wait), len(wait))
	r.set("client.wait_ms_p99", wait99, len(wait))
	r.set("client.result_ms_p50", median(result), len(result))
	r.set("client.job_ms_p99", p99, len(all))
	r.set("cluster.forward_ms_p50", st.forward.Quantile(0.5), int(st.forward.Count))
	r.set("service.queue_wait_ms_p50", st.queueWait.Quantile(0.5), int(st.queueWait.Count))
	r.set("service.queue_wait_ms_p99", st.queueWait.Quantile(0.99), int(st.queueWait.Count))
	r.set("service.solve_ms_p50", st.solve.Quantile(0.5), int(st.solve.Count))
	r.set("service.cache_hit_ratio", st.hits/(st.hits+st.misses), int(st.hits+st.misses))
	r.set("service.coalesced", st.coalesced, 1)
	r.set("service.solves_per_key", st.solves/st.keys, int(st.keys))
	r.set("service.peer_peek_hit_ratio", st.peekHits/(st.peekHits+st.peekMisses), int(st.peekHits+st.peekMisses))
	r.set("service.peer_peek_ms_p50", median(st.peekMS), len(st.peekMS))
	r.set("service.rejected", st.rejected, 1)
	r.set("trace.incomplete", float64(st.incomplete), st.traces)
	r.set("trace.overhead_pct", 100*(median(tracedJobs)-median(plainJobs))/median(plainJobs), len(all))
	r.runtimeDelta(alloc0, gc0)
	return nil
}

// runRound starts a fresh cluster, runs one round of the request stream
// through it with the closed loop, then scrapes its metrics (and, when
// traced, its sampled traces) once the last job has returned.
func runRound(p *plan, round int, traced bool, st *svcStats, r *report) error {
	var c *svcCluster
	d, err := timeIt(func() (err error) { c, err = startCluster(); return })
	if err != nil {
		return fmt.Errorf("start cluster: %w", err)
	}
	defer c.close()
	st.setup = append(st.setup, d.Seconds())
	if traced {
		unhook := installLayerMetrics(obs.NewRegistry())
		defer unhook()
	}

	items := p.Rounds[round]
	router := service.NewClient(c.routerHS.URL)
	direct := make([]*service.Client, svcShards)
	for i, hs := range c.shardHS {
		direct[i] = service.NewClient(hs.URL)
	}
	// A request sent straight to a shard waits until its key's first
	// answer has come back, so the shard finds it by peeking its peer
	// rather than solving the key a second time.
	answered := make([]chan struct{}, len(p.Keys))
	once := make([]sync.Once, len(p.Keys))
	for i := range answered {
		answered[i] = make(chan struct{})
	}
	var mu sync.Mutex
	bodies := map[int][]byte{}
	records := make([]jobRecord, len(items))
	errs := make([]error, len(items))

	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	loopStart := time.Now()
	for w := 0; w < svcClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := items[i]
				cl := router
				if it.Shard >= 0 {
					cl = direct[it.Shard]
					select {
					case <-answered[it.Key]:
					case <-ctx.Done():
						errs[i] = ctx.Err()
						continue
					}
				}
				rec, body, err := runJob(ctx, cl, p.Keys[it.Key])
				rec.it = it
				records[i], errs[i] = rec, err
				if err == nil {
					mu.Lock()
					if first, ok := bodies[it.Key]; !ok {
						bodies[it.Key] = body
					} else if !bytes.Equal(first, body) {
						errs[i] = fmt.Errorf("result for key %d differs from its first answer", it.Key)
					}
					mu.Unlock()
				}
				once[it.Key].Do(func() { close(answered[it.Key]) })
			}
		}()
	}
	wg.Wait()
	st.loopWall += time.Since(loopStart).Seconds()
	for i := range items {
		r.op(fmt.Sprintf("round %d job %d", round, i), errs[i])
		if errs[i] == nil {
			st.jobs = append(st.jobs, records[i])
		}
	}
	r.check(fmt.Sprintf("round %d bodies", round), len(bodies) == svcKeys, "%d keys answered of %d", len(bodies), svcKeys)

	if err := scrapeCluster(ctx, c, st); err != nil {
		return err
	}
	st.keys += float64(len(bodies))
	if traced {
		fetchTraces(ctx, c, records, errs, st, r)
	}
	return nil
}

// runJob sends one request and times the three client calls.
func runJob(ctx context.Context, cl *service.Client, req service.Request) (jobRecord, []byte, error) {
	rec := jobRecord{kind: req.Analysis}
	t0 := time.Now()
	sub, err := cl.Submit(ctx, req)
	t1 := time.Now()
	if err != nil {
		return rec, nil, fmt.Errorf("submit: %w", err)
	}
	rec.traceID = sub.TraceID
	rec.cold = !sub.Cached && !sub.Coalesced
	js, err := cl.Wait(ctx, sub.ID)
	t2 := time.Now()
	if err != nil {
		return rec, nil, fmt.Errorf("wait %s: %w", sub.ID, err)
	}
	if js.State != service.StateDone {
		return rec, nil, fmt.Errorf("job %s ended %s: %s", sub.ID, js.State, js.Error)
	}
	// Run time alone: the queued part depends on which job the other
	// client's request happened to put ahead of it on the shard.
	rec.runS = js.RunMS / 1000
	body, err := cl.ResultBytes(ctx, sub.ID)
	t3 := time.Now()
	if err != nil {
		return rec, nil, fmt.Errorf("result %s: %w", sub.ID, err)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rec.submit, rec.wait, rec.result, rec.totalT = ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2)), ms(t3.Sub(t0))
	return rec, body, nil
}

// scrapeCluster reads the router's federated /metrics/cluster and adds
// the cluster-wide row to the run's totals.
func scrapeCluster(ctx context.Context, c *svcCluster, st *svcStats) error {
	body, code, err := get(ctx, c.routerHS.URL+"/metrics/cluster")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /metrics/cluster: HTTP %d: %v", code, err)
	}
	ps, err := parseProm(string(body))
	if err != nil {
		return err
	}
	const all = "cluster"
	st.hits += ps.value("service_cache_hits_total", all)
	st.misses += ps.value("service_cache_misses_total", all)
	st.coalesced += ps.value("service_jobs_coalesced_total", all)
	st.solves += ps.value("service_solves_total", all)
	st.peekHits += ps.value("service_peer_peek_hits_total", all)
	st.peekMisses += ps.value("service_peer_peek_misses_total", all)
	st.rejected += ps.value("service_jobs_rejected_total", all)
	merge := func(acc *obs.HistogramSnapshot, h obs.HistogramSnapshot) {
		if acc.Count == 0 {
			*acc = h
		} else if m, ok := obs.MergeHistograms(*acc, h); ok {
			*acc = m
		}
	}
	merge(&st.queueWait, ps.hist("service_queue_wait_ms_interactive", all))
	merge(&st.solve, ps.hist("service_solve_ms_interactive", all))
	merge(&st.forward, ps.hist("cluster_forward_ms", all))
	return nil
}

// fetchTraces fetches the stitched trace of a sample of the round's jobs
// from the router, after the load has stopped, and keeps it in r.spans.
// A trace missing a fragment (the router's, or the serving shard's)
// counts as incomplete.
func fetchTraces(ctx context.Context, c *svcCluster, records []jobRecord, errs []error, st *svcStats, r *report) {
	fetched := 0
	for i, rec := range records {
		if errs[i] != nil || rec.traceID == "" || (rec.it.Shard < 0 && i%4 != 0) {
			continue
		}
		if fetched == tracesPerRound {
			break
		}
		fetched++
		st.traces++
		body, code, err := get(ctx, c.routerHS.URL+"/debug/trace/"+rec.traceID)
		var tr cluster.StitchedTrace
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &tr) != nil || tr.Root == nil {
			st.incomplete++
			continue
		}
		r.spans = append(r.spans, tr)
		hasRouter, hasShard := false, false
		for _, s := range tr.Shards {
			hasRouter = hasRouter || s == "router"
			hasShard = hasShard || strings.HasPrefix(s, "s")
		}
		if !hasShard || (rec.it.Shard < 0 && !hasRouter) {
			st.incomplete++
		}
		var walk func(n *cluster.StitchNode)
		walk = func(n *cluster.StitchNode) {
			if n.Name == "peer.peek" {
				st.peekMS = append(st.peekMS, n.DurMS)
			}
			for _, k := range n.Spans {
				walk(k)
			}
		}
		walk(tr.Root)
	}
}
