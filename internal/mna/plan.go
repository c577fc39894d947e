package mna

import (
	"fmt"

	"opera/internal/sparse"
)

// Plan is the fill plan of a System's realizations. G(z) and C(z) have
// fixed patterns, the unions of Ga's (Ca's) and every sensitivity's,
// whatever z is; the plan maps every stored entry of Ga, Ca and each
// non-nil GSens[k], CSens[k] to its slot in them once, so a
// realization is one pass over the stored values that allocates
// nothing. Fill performs exactly the operations of the sparse.Add
// chain G(z) = (…(Ga + z_0·G_0) + z_1·G_1 …) that defines a
// realization: a slot's first contributor sets it (the nominal value,
// or z_k times the sensitivity's), and every later one adds z_k times
// its value. A plan is read-only after System.Plan, so concurrent
// samples share one.
type Plan struct {
	k    int
	g, c fillPlan
}

// fillPlan fills one of G(z) and C(z).
type fillPlan struct {
	pattern *sparse.Matrix // the union pattern (values unused)
	terms   []fillTerm     // the nominal matrix, then each non-nil sensitivity in k order
}

// fillTerm places one summand's stored entries.
type fillTerm struct {
	k     int // variable index; -1 for the nominal matrix
	m     *sparse.Matrix
	slot  []int  // slot[p]: position of m's entry p in the pattern
	first []bool // first[p]: no earlier term stores that slot
}

// Plan builds the fill plan of s's realizations.
func (s *System) Plan() *Plan {
	return &Plan{k: s.Dims(), g: newFillPlan(s.Ga, s.GSens), c: newFillPlan(s.Ca, s.CSens)}
}

func newFillPlan(nominal *sparse.Matrix, sens []*sparse.Matrix) fillPlan {
	ms := []*sparse.Matrix{nominal}
	ks := []int{-1}
	pattern := nominal
	for k, m := range sens {
		if m != nil {
			ms = append(ms, m)
			ks = append(ks, k)
			pattern = sparse.Add(1, pattern, 1, m)
		}
	}
	f := fillPlan{pattern: pattern}
	seen := make([]bool, pattern.NNZ())
	for i, m := range ms {
		t := fillTerm{k: ks[i], m: m, slot: make([]int, m.NNZ()), first: make([]bool, m.NNZ())}
		// Both patterns sort their columns and the union contains m's,
		// so one merge walk per column places every entry.
		for j := 0; j < m.Cols; j++ {
			q := pattern.Colp[j]
			for p := m.Colp[j]; p < m.Colp[j+1]; p++ {
				for pattern.Rowi[q] != m.Rowi[p] {
					q++
				}
				t.slot[p], t.first[p] = q, !seen[q]
				seen[q] = true
			}
		}
		f.terms = append(f.terms, t)
	}
	return f
}

// Matrices returns a fresh, zero-valued pair on the patterns of G(z)
// and C(z), for Fill to write realizations into.
func (p *Plan) Matrices() (g, c *sparse.Matrix) {
	return p.g.pattern.CloneStructure(), p.c.pattern.CloneStructure()
}

// Fill writes G(z) and C(z) for one realization z (length K) into the
// values of g and c, which must come from Matrices.
func (p *Plan) Fill(z []float64, g, c *sparse.Matrix) {
	if len(z) != p.k {
		panic(fmt.Sprintf("mna: Fill needs %d variables, got %d", p.k, len(z)))
	}
	p.g.fill(z, g.Val)
	p.c.fill(z, c.Val)
}

func (f *fillPlan) fill(z, val []float64) {
	if len(val) != f.pattern.NNZ() {
		panic(fmt.Sprintf("mna: Fill target has %d values, the pattern %d", len(val), f.pattern.NNZ()))
	}
	for _, t := range f.terms {
		coef := 1.0 // sparse.Add scales the accumulated matrix by 1
		if t.k >= 0 {
			coef = z[t.k]
		}
		for p, v := range t.m.Val {
			if q := t.slot[p]; t.first[p] {
				val[q] = coef * v
			} else {
				val[q] += coef * v
			}
		}
	}
}

// Excitation tabulates the parts of u(t, z) that no realization
// changes: ua(t_s) and every u_k(t_s) at t_s = s·h for s = 0..steps,
// each evaluated once by RHS. It is read-only after Tabulate, so
// concurrent samples share one; At forms a realization's excitation
// from it.
type Excitation struct {
	n, k int
	// val holds step s at val[s·(K+1)·n:]: ua, then u_0 … u_{K−1},
	// each n long — the layout superpose reads.
	val []float64
}

// Tabulate evaluates the excitation table at steps of size h.
func (s *System) Tabulate(h float64, steps int) *Excitation {
	n, k := s.N, s.Dims()
	e := &Excitation{n: n, k: k, val: make([]float64, (steps+1)*(k+1)*n)}
	uk := make([][]float64, k)
	for st := 0; st <= steps; st++ {
		row := e.row(st)
		for d := range uk {
			uk[d] = row[(d+1)*n : (d+2)*n]
		}
		s.RHS(float64(st)*h, row[:n], uk)
	}
	return e
}

func (e *Excitation) row(step int) []float64 {
	w := (e.k + 1) * e.n
	return e.val[step*w : (step+1)*w]
}

// At writes u(t_s, z) = ua(t_s) + Σ_k z_k·u_k(t_s) into u.
func (e *Excitation) At(step int, z, u []float64) {
	if len(z) != e.k || len(u) != e.n {
		panic(fmt.Sprintf("mna: Excitation.At got %d variables and %d nodes, want %d and %d", len(z), len(u), e.k, e.n))
	}
	superpose(u, e.row(step), z)
}

// superpose writes u = ua + Σ_k z_k·u_k from one row laid out as ua,
// u_0, …, u_{K−1} (each len(u) long): the one order in which every
// realization's excitation is formed.
func superpose(u, row, z []float64) {
	n := len(u)
	copy(u, row[:n])
	for k, zk := range z {
		for i, v := range row[(k+1)*n : (k+2)*n] {
			u[i] += zk * v
		}
	}
}
