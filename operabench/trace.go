package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"opera/internal/factor"
	"opera/internal/obs"
	"opera/internal/order"
	"opera/internal/sparse"
)

// selfTimesMS sums the self time of every span in the dump by span name,
// in milliseconds.
func selfTimesMS(d *obs.Dump) map[string]float64 {
	out := map[string]float64{}
	var walk func(s obs.SpanDump)
	walk = func(s obs.SpanDump) {
		kids := make([]interval, len(s.Spans))
		for i, c := range s.Spans {
			kids[i] = interval{c.StartMS, c.StartMS + c.DurMS}
			walk(c)
		}
		out[s.Name] += selfTime(interval{s.StartMS, s.StartMS + s.DurMS}, kids)
	}
	for _, s := range d.Spans {
		walk(s)
	}
	return out
}

// mergedHist returns histogram base, or when only its per-worker
// variants base.w<i> exist, their merge.
func mergedHist(m obs.MetricsSnapshot, base string) obs.HistogramSnapshot {
	if h, ok := m.Histograms[base]; ok {
		return h
	}
	var names []string
	for name := range m.Histograms {
		if strings.HasPrefix(name, base+".w") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out obs.HistogramSnapshot
	for i, name := range names {
		if i == 0 {
			out = m.Histograms[name]
			continue
		}
		if merged, ok := obs.MergeHistograms(out, m.Histograms[name]); ok {
			out = merged
		}
	}
	return out
}

// installLayerMetrics points the factor, order and sparse packages'
// metric hooks at reg and returns the function that unhooks them.
func installLayerMetrics(reg *obs.Registry) func() {
	factor.SetMetrics(reg)
	order.SetMetrics(reg)
	sparse.SetMetrics(reg)
	return func() {
		factor.SetMetrics(nil)
		order.SetMetrics(nil)
		sparse.SetMetrics(nil)
	}
}

// runtimeTotals reads the process's cumulative heap allocation (bytes)
// and completed GC cycles.
func runtimeTotals() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// runtimeDelta reports heap allocation and GC cycles between two
// runtimeTotals readings as per-layer metrics.
func (r *report) runtimeDelta(alloc0, gc0 float64) {
	alloc1, gc1 := runtimeTotals()
	r.set("runtime.alloc_mb", (alloc1-alloc0)/(1<<20), 1)
	r.set("runtime.gc_cycles", gc1-gc0, 1)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// promSeries is one parsed /metrics/cluster exposition: plain samples by
// metric name and shard label, and histogram buckets by name and shard.
type promSeries struct {
	values  map[string]map[string]float64
	buckets map[string]map[string][]obs.BucketSnapshot
}

// parseProm reads the federated text exposition the router serves. Bucket
// rows carry cumulative counts; they are turned back into per-bucket
// counts so obs.HistogramSnapshot.Quantile applies.
func parseProm(text string) (*promSeries, error) {
	ps := &promSeries{values: map[string]map[string]float64{}, buckets: map[string]map[string][]obs.BucketSnapshot{}}
	cum := map[string]map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lb, rb := strings.IndexByte(line, '{'), strings.LastIndexByte(line, '}')
		if lb < 0 || rb < lb {
			return nil, fmt.Errorf("metrics line without labels: %q", line)
		}
		name := line[:lb]
		v, err := strconv.ParseFloat(strings.TrimSpace(line[rb+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		labels := map[string]string{}
		for _, kv := range strings.Split(line[lb+1:rb], ",") {
			k, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("metrics label %q in %q", kv, line)
			}
			labels[k] = strings.Trim(val, `"`)
		}
		shard := labels["shard"]
		if base, ok := strings.CutSuffix(name, "_bucket"); ok {
			ub := math.Inf(1)
			if le := labels["le"]; le != "+Inf" {
				if ub, err = strconv.ParseFloat(le, 64); err != nil {
					return nil, fmt.Errorf("metrics bucket %q: %w", line, err)
				}
			}
			if ps.buckets[base] == nil {
				ps.buckets[base] = map[string][]obs.BucketSnapshot{}
				cum[base] = map[string]int64{}
			}
			n := int64(v)
			ps.buckets[base][shard] = append(ps.buckets[base][shard], obs.BucketSnapshot{UpperBound: ub, Count: n - cum[base][shard]})
			cum[base][shard] = n
			continue
		}
		if ps.values[name] == nil {
			ps.values[name] = map[string]float64{}
		}
		ps.values[name][shard] = v
	}
	return ps, nil
}

// value returns a sample by exposition name and shard (0 when absent).
func (ps *promSeries) value(name, shard string) float64 { return ps.values[name][shard] }

// hist rebuilds a histogram snapshot by exposition name and shard.
func (ps *promSeries) hist(name, shard string) obs.HistogramSnapshot {
	h := obs.HistogramSnapshot{Buckets: ps.buckets[name][shard]}
	for _, b := range h.Buckets {
		h.Count += b.Count
	}
	h.Sum = ps.value(name+"_sum", shard)
	return h
}
