package factor

import (
	"sync/atomic"
	"time"

	"opera/internal/obs"
)

// factorMetrics times the factorization entry points. Factorizations
// run once (or once per transient-matrix refresh), so one atomic
// pointer load per call is negligible against the numeric work.
type factorMetrics struct {
	chol      *obs.Histogram
	superChol *obs.Histogram
	refactor  *obs.Histogram
	lu        *obs.Histogram
	count     *obs.Counter
	flops     *obs.Counter
	fill      *obs.Gauge
}

var metrics atomic.Pointer[factorMetrics]

// SetMetrics installs factorization-duration histograms
// (factor.chol_ms, factor.supernodal_ms, factor.refactor_ms,
// factor.lu_ms), a total counter (factor.factorizations_total), a
// cumulative work counter (factor.flops_total, symbolic estimates) and
// a fill-ratio gauge (factor.fill_ratio, nnz(L)/nnz(upper(A)) of the
// most recent factorization) on the registry; nil uninstalls them.
func SetMetrics(reg *obs.Registry) {
	if reg == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&factorMetrics{
		chol:      reg.Histogram("factor.chol_ms", obs.MSBuckets),
		superChol: reg.Histogram("factor.supernodal_ms", obs.MSBuckets),
		refactor:  reg.Histogram("factor.refactor_ms", obs.MSBuckets),
		lu:        reg.Histogram("factor.lu_ms", obs.MSBuckets),
		count:     reg.Counter("factor.factorizations_total"),
		flops:     reg.Counter("factor.flops_total"),
		fill:      reg.Gauge("factor.fill_ratio"),
	})
}

// recordWork accumulates a factorization's estimated flop count and
// publishes its fill ratio. Called on the success path of each numeric
// factorization; nil-safe when no registry is installed.
func recordWork(flops int64, fill float64) {
	m := metrics.Load()
	if m == nil {
		return
	}
	m.flops.Add(flops)
	if fill > 0 {
		m.fill.Set(fill)
	}
}

// observe times one factorization via the selector (nil-safe end to
// end) and bumps the total count.
func observe(pick func(*factorMetrics) *obs.Histogram) func() {
	m := metrics.Load()
	if m == nil {
		return func() {}
	}
	h := pick(m)
	start := time.Now()
	return func() {
		h.ObserveSince(start)
		m.count.Inc()
	}
}
