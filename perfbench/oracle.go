package main

import (
	"errors"
	"math"
	"sort"
)

// The oracle: computations the benchmark makes apart from the program, so
// that the program's outputs can be checked against them.

// lsq accumulates the normal equations of a least-squares fit with an
// intercept: y ≈ w·x + b.
type lsq struct {
	dim int
	n   int
	a   []float64 // (dim+1)² — Σ z zᵀ with z = (x, 1)
	b   []float64 // dim+1   — Σ z y
}

func newLSQ(dim int) *lsq {
	return &lsq{dim: dim, a: make([]float64, (dim+1)*(dim+1)), b: make([]float64, dim+1)}
}

// add folds one (x, y) pair into the fit.
func (l *lsq) add(x []float64, y float64) {
	k := l.dim + 1
	z := func(i int) float64 {
		if i == l.dim {
			return 1
		}
		return x[i]
	}
	for i := 0; i < k; i++ {
		zi := z(i)
		for j := 0; j < k; j++ {
			l.a[i*k+j] += zi * z(j)
		}
		l.b[i] += zi * y
	}
	l.n++
}

// errSingular reports a fit whose normal equations have no unique solution.
var errSingular = errors.New("least squares: singular normal equations")

// solve returns the fitted weights and intercept. The normal equations are
// solved by Gaussian elimination with partial pivoting, after scaling each
// column by its diagonal so that features of very different magnitudes
// stay well conditioned.
func (l *lsq) solve() (w []float64, bias float64, err error) {
	k := l.dim + 1
	s := make([]float64, k)
	for i := range s {
		d := l.a[i*k+i]
		if d <= 0 {
			return nil, 0, errSingular
		}
		s[i] = 1 / math.Sqrt(d)
	}
	m := make([]float64, k*(k+1)) // augmented, scaled system
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			m[i*(k+1)+j] = l.a[i*k+j] * s[i] * s[j]
		}
		m[i*(k+1)+k] = l.b[i] * s[i]
	}
	for c := 0; c < k; c++ {
		p := c
		for r := c + 1; r < k; r++ {
			if math.Abs(m[r*(k+1)+c]) > math.Abs(m[p*(k+1)+c]) {
				p = r
			}
		}
		if math.Abs(m[p*(k+1)+c]) < 1e-12 {
			return nil, 0, errSingular
		}
		if p != c {
			for j := 0; j <= k; j++ {
				m[c*(k+1)+j], m[p*(k+1)+j] = m[p*(k+1)+j], m[c*(k+1)+j]
			}
		}
		for r := c + 1; r < k; r++ {
			f := m[r*(k+1)+c] / m[c*(k+1)+c]
			for j := c; j <= k; j++ {
				m[r*(k+1)+j] -= f * m[c*(k+1)+j]
			}
		}
	}
	sol := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		v := m[i*(k+1)+k]
		for j := i + 1; j < k; j++ {
			v -= m[i*(k+1)+j] * sol[j]
		}
		sol[i] = v / m[i*(k+1)+i]
	}
	for i := range sol {
		sol[i] *= s[i]
	}
	return sol[:l.dim], sol[l.dim], nil
}

// predict evaluates a linear model with intercept.
func predict(w []float64, bias float64, x []float64) float64 {
	v := bias
	for i, wi := range w {
		v += wi * x[i]
	}
	return v
}

// fastest returns the smallest of the pre-sampled per-arm runtimes.
func fastest(rt []float64) float64 {
	m := rt[0]
	for _, v := range rt[1:] {
		m = math.Min(m, v)
	}
	return m
}

// meanOf returns the mean of the per-arm runtimes: the expected runtime of
// a uniformly random choice.
func meanOf(rt []float64) float64 {
	s := 0.0
	for _, v := range rt {
		s += v
	}
	return s / float64(len(rt))
}

// regret sums runtimes for the regret ratio Σchosen / Σfastest − 1, next to
// the same ratio for a uniformly random choice over the same runtimes.
type regret struct {
	chosen, best, random float64
	n                    int
}

func (g *regret) add(rt []float64, arm int) {
	g.chosen += rt[arm]
	g.best += fastest(rt)
	g.random += meanOf(rt)
	g.n++
}

func (g *regret) merge(o regret) {
	g.chosen += o.chosen
	g.best += o.best
	g.random += o.random
	g.n += o.n
}

// pct is the regret of the choices made, in percent.
func (g *regret) pct() float64 { return 100 * (g.chosen/g.best - 1) }

// randomPct is the regret a uniformly random choice would have had.
func (g *regret) randomPct() float64 { return 100 * (g.random/g.best - 1) }

// rmse accumulates squared prediction errors.
type rmse struct {
	sq float64
	n  int
}

func (r *rmse) add(pred, obs float64) {
	d := pred - obs
	r.sq += d * d
	r.n++
}

func (r *rmse) merge(o rmse) { r.sq += o.sq; r.n += o.n }

func (r *rmse) value() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return math.Sqrt(r.sq / float64(r.n))
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (the "inclusive" method). vs is sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

// median of vs (sorted in place).
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// sampler keeps latency samples in bounded memory. When its buffer fills it
// keeps every other sample and halves its sampling rate from then on, so the
// kept samples still span the whole run evenly; each kept sample stands for
// stride calls.
type sampler struct {
	buf    []int64
	stride int
	skip   int
	n      int // calls recorded
}

func newSampler(capacity int) *sampler {
	return &sampler{buf: make([]int64, 0, capacity), stride: 1}
}

func (s *sampler) add(ns int64) {
	s.n++
	if s.skip > 0 {
		s.skip--
		return
	}
	s.skip = s.stride - 1
	if len(s.buf) == cap(s.buf) {
		k := 0
		for i := 0; i < len(s.buf); i += 2 {
			s.buf[k] = s.buf[i]
			k++
		}
		s.buf = s.buf[:k]
		s.stride *= 2
		s.skip = s.stride - 1
	}
	s.buf = append(s.buf, ns)
}

// reset empties the sampler for a new phase.
func (s *sampler) reset() {
	s.buf = s.buf[:0]
	s.stride, s.skip, s.n = 1, 0, 0
}

// percentile returns the nearest-rank q-quantile, in nanoseconds, over the
// kept samples of several samplers, each weighted by its stride.
func percentile(q float64, ss ...*sampler) float64 {
	type ws struct {
		v int64
		w int
	}
	var all []ws
	total := 0
	for _, s := range ss {
		for _, v := range s.buf {
			all = append(all, ws{v, s.stride})
			total += s.stride
		}
	}
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	target := q * float64(total)
	acc := 0
	for _, e := range all {
		acc += e.w
		if float64(acc) >= target {
			return float64(e.v)
		}
	}
	return float64(all[len(all)-1].v)
}

// count returns the number of calls the samplers recorded.
func count(ss ...*sampler) int {
	n := 0
	for _, s := range ss {
		n += s.n
	}
	return n
}
