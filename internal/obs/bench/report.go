package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// SchemaVersion stamps every report. Compare refuses mixed schemas:
// a metric that changed meaning between versions must not silently
// pass a threshold check.
const SchemaVersion = 1

// Report is the machine-readable envelope `benchtab -json` emits and
// the CI perf gate consumes. The header pins everything that makes two
// reports comparable; Rows carry the per-scenario measurements.
type Report struct {
	Schema    int    `json:"schema"`
	Suite     string `json:"suite"`
	Created   string `json:"created,omitempty"` // RFC 3339, informational
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Workers is the solver worker cap the suite ran with (0 means
	// GOMAXPROCS). Wall times are only comparable at equal workers.
	Workers int   `json:"workers"`
	Rows    []Row `json:"rows"`
}

// Row is one scenario's measurements. Wall, alloc and RSS are
// machine-dependent (soft thresholds with noise floors); flops, fill,
// nnz, escalations and CG iterations are deterministic functions of the
// input and the code, so any regression there is a real algorithmic
// change (hard).
type Row struct {
	Name     string `json:"name"`
	Path     string `json:"path"`
	Nodes    int    `json:"nodes"`
	N        int    `json:"n,omitempty"` // actual system dimension
	Order    int    `json:"order,omitempty"`
	Steps    int    `json:"steps,omitempty"`
	Samples  int    `json:"samples,omitempty"`
	Ordering string `json:"ordering,omitempty"`
	Kernel   string `json:"kernel,omitempty"`

	WallMS       float64 `json:"wall_ms"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	PeakRSSBytes uint64  `json:"peak_rss_bytes,omitempty"`

	Rung        string  `json:"rung,omitempty"`
	FactorNNZ   int     `json:"factor_nnz,omitempty"`
	FactorFlops int64   `json:"factor_flops,omitempty"`
	FillRatio   float64 `json:"fill_ratio,omitempty"`
	CondEst     float64 `json:"cond_est,omitempty"`
	MaxResidual float64 `json:"max_residual,omitempty"`
	Escalations int     `json:"escalations,omitempty"`
	// CGIterations counts the solve's CG iterations (coupled and
	// separable rows; 0 on a separable row).
	CGIterations int `json:"cg_iterations,omitempty"`
}

// NewReport builds an empty report with the current platform header.
func NewReport(suite string, workers int) *Report {
	return &Report{
		Schema:    SchemaVersion,
		Suite:     suite,
		Created:   time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Workers:   workers,
		Rows:      []Row{},
	}
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DecodeReport parses a report and validates its schema stamp.
func DecodeReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: decoding report: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: report schema %d, this build understands %d", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// ReadReportFile parses a report from the named file.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeReport(f)
}

// Threshold is the regression policy for one metric. A new/base ratio
// above Hard fails the gate; above Soft it warns. Deltas where both
// sides sit at or below Floor are noise and pass regardless — a 9 ms
// row going to 13 ms on a shared runner is not a 1.4x regression.
type Threshold struct {
	Soft  float64 `json:"soft"`
	Hard  float64 `json:"hard"`
	Floor float64 `json:"floor,omitempty"`
}

// DefaultThresholds is the per-metric policy the CI gate uses.
// Machine-dependent metrics (wall, alloc) warn at 1.3x and fail past
// 2x, with noise floors sized for shared runners. Deterministic
// metrics (flops, fill, nnz, escalations, CG iterations) fail on any
// growth beyond rounding — Soft == Hard, so there is no warn band.
// Peak RSS is process-monotone across rows and therefore
// informational only.
func DefaultThresholds() map[string]Threshold {
	return map[string]Threshold{
		"wall_ms": {Soft: 1.3, Hard: 2.0, Floor: 20},
		// Allocation volume is only semi-deterministic: the solvers reuse
		// scratch via sync.Pool, whose hit rate depends on GC timing, so
		// small rows jitter by tens of percent run to run. The floor
		// ignores rows below 16 MiB and the bands are wide; a real alloc
		// regression (a dropped pool, a per-step allocation) shows up as
		// a multiple, not a percentage.
		"alloc_bytes":   {Soft: 1.5, Hard: 3.0, Floor: 16 << 20},
		"factor_flops":  {Soft: 1.01, Hard: 1.01},
		"fill_ratio":    {Soft: 1.01, Hard: 1.01},
		"factor_nnz":    {Soft: 1.01, Hard: 1.01},
		"escalations":   {Soft: 1.0, Hard: 1.0},
		"cg_iterations": {Soft: 1.0, Hard: 1.0},
	}
}

// comparedMetrics fixes the metric order in the delta table.
var comparedMetrics = []string{
	"wall_ms", "alloc_bytes", "factor_flops", "fill_ratio", "factor_nnz", "escalations", "cg_iterations",
}

func (r Row) metric(name string) float64 {
	switch name {
	case "wall_ms":
		return r.WallMS
	case "alloc_bytes":
		return float64(r.AllocBytes)
	case "factor_flops":
		return float64(r.FactorFlops)
	case "fill_ratio":
		return r.FillRatio
	case "factor_nnz":
		return float64(r.FactorNNZ)
	case "escalations":
		return float64(r.Escalations)
	case "cg_iterations":
		return float64(r.CGIterations)
	default:
		return 0
	}
}

// Severity of one delta.
const (
	SeverityOK   = "ok"
	SeverityWarn = "warn"
	SeverityFail = "fail"
)

// Delta is one (row, metric) comparison.
type Delta struct {
	Row      string  `json:"row"`
	Metric   string  `json:"metric"`
	Base     float64 `json:"base"`
	New      float64 `json:"new"`
	Ratio    float64 `json:"ratio"` // new/base; 0 when base is 0
	Severity string  `json:"severity"`
}

// Comparison is the full diff of two reports.
type Comparison struct {
	Deltas []Delta `json:"deltas"`
	// MissingRows lists baseline scenarios absent from the new report —
	// a silently dropped scenario must fail the gate, not pass it.
	MissingRows []string `json:"missing_rows,omitempty"`
	// NewRows lists scenarios only in the new report (informational).
	NewRows []string `json:"new_rows,omitempty"`
	Warns   int      `json:"warns"`
	Fails   int      `json:"fails"`
}

// ExitCode maps the comparison onto the benchtab process exit code:
// 0 clean, 1 soft regressions only (warn), 2 hard regressions or
// missing rows (fail the gate).
func (c *Comparison) ExitCode() int {
	switch {
	case c.Fails > 0 || len(c.MissingRows) > 0:
		return 2
	case c.Warns > 0:
		return 1
	default:
		return 0
	}
}

// Compare diffs new against base row-by-row under the given
// thresholds (nil selects DefaultThresholds).
func Compare(base, new *Report, th map[string]Threshold) *Comparison {
	if th == nil {
		th = DefaultThresholds()
	}
	c := &Comparison{}
	newByName := make(map[string]Row, len(new.Rows))
	for _, r := range new.Rows {
		newByName[r.Name] = r
	}
	baseNames := make(map[string]bool, len(base.Rows))
	for _, b := range base.Rows {
		baseNames[b.Name] = true
		n, ok := newByName[b.Name]
		if !ok {
			c.MissingRows = append(c.MissingRows, b.Name)
			continue
		}
		for _, m := range comparedMetrics {
			d := compareMetric(b.Name, m, b.metric(m), n.metric(m), th[m])
			switch d.Severity {
			case SeverityWarn:
				c.Warns++
			case SeverityFail:
				c.Fails++
			}
			c.Deltas = append(c.Deltas, d)
		}
	}
	for _, r := range new.Rows {
		if !baseNames[r.Name] {
			c.NewRows = append(c.NewRows, r.Name)
		}
	}
	sort.Strings(c.MissingRows)
	sort.Strings(c.NewRows)
	return c
}

// KernelGate checks that the supernodal kernel earns its keep: for
// every pair of "factor" rows identical up to the kernel, the
// supernodal row's wall time must not exceed the scalar row's by more
// than margin (default 1.1 — 10% grace for runner noise; the rows
// share a noise floor with the wall threshold). Returns one message
// per violated pair; empty means the gate passes. Unpaired rows are
// skipped — the gate never fails on a suite without kernel pairs.
func KernelGate(rep *Report, margin float64) []string {
	if margin <= 0 {
		margin = 1.1
	}
	const floor = 20 // ms, same noise floor as the wall_ms threshold
	type key struct {
		nodes    int
		ordering string
	}
	scalar := make(map[key]Row)
	super := make(map[key]Row)
	for _, r := range rep.Rows {
		if r.Path != "factor" {
			continue
		}
		k := key{r.Nodes, r.Ordering}
		switch r.Kernel {
		case "scalar":
			scalar[k] = r
		case "supernodal":
			super[k] = r
		}
	}
	var fails []string
	for k, s := range super {
		ref, ok := scalar[k]
		if !ok {
			continue
		}
		if s.WallMS <= floor && ref.WallMS <= floor {
			continue
		}
		if s.WallMS > ref.WallMS*margin {
			fails = append(fails, fmt.Sprintf(
				"kernel gate: %s %.1fms slower than %s %.1fms (ratio %.2f > %.2f)",
				s.Name, s.WallMS, ref.Name, ref.WallMS, s.WallMS/ref.WallMS, margin))
		}
	}
	sort.Strings(fails)
	return fails
}

func compareMetric(row, metric string, base, new float64, t Threshold) Delta {
	d := Delta{Row: row, Metric: metric, Base: base, New: new, Severity: SeverityOK}
	if base > 0 {
		d.Ratio = new / base
	}
	if base <= t.Floor && new <= t.Floor {
		return d // both inside the noise floor
	}
	switch {
	case base == 0 && new > 0:
		// A metric appearing from nothing is a regression; with no ratio
		// to grade it, treat it as hard unless it is inside the floor.
		d.Severity = SeverityFail
	case t.Hard > 0 && d.Ratio > t.Hard:
		d.Severity = SeverityFail
	case t.Soft > 0 && d.Ratio > t.Soft:
		d.Severity = SeverityWarn
	}
	return d
}

// WriteMarkdown renders the comparison as a markdown delta table —
// the CI gate pastes this into the job summary. Rows are grouped by
// scenario; improvements and unchanged metrics render without a flag.
func (c *Comparison) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "| scenario | metric | base | new | ratio | status |\n|---|---|---:|---:|---:|---|\n"); err != nil {
		return err
	}
	for _, d := range c.Deltas {
		status := ""
		switch d.Severity {
		case SeverityWarn:
			status = "⚠ warn"
		case SeverityFail:
			status = "✗ FAIL"
		}
		ratio := "—"
		if d.Ratio > 0 {
			ratio = fmt.Sprintf("%.2fx", d.Ratio)
		}
		if _, err := fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n",
			d.Row, d.Metric, fmtMetric(d.Metric, d.Base), fmtMetric(d.Metric, d.New), ratio, status); err != nil {
			return err
		}
	}
	for _, name := range c.MissingRows {
		if _, err := fmt.Fprintf(w, "| %s | — | — | *missing* | — | ✗ FAIL |\n", name); err != nil {
			return err
		}
	}
	for _, name := range c.NewRows {
		if _, err := fmt.Fprintf(w, "| %s | — | — | *new row* | — | |\n", name); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n%d fail, %d warn\n", c.Fails+len(c.MissingRows), c.Warns)
	return err
}

func fmtMetric(metric string, v float64) string {
	switch metric {
	case "wall_ms":
		return fmt.Sprintf("%.1fms", v)
	case "alloc_bytes":
		return fmtBytes(uint64(v))
	case "fill_ratio":
		return fmt.Sprintf("%.3f", v)
	case "factor_flops":
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
