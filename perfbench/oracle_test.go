package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLSQExactLine(t *testing.T) {
	l := newLSQ(1)
	for _, p := range [][2]float64{{0, 1}, {1, 3}, {2, 5}} {
		l.add([]float64{p[0]}, p[1])
	}
	w, b, err := l.solve()
	if err != nil || !near(w[0], 2, 1e-12) || !near(b, 1, 1e-12) {
		t.Fatalf("y = 2x + 1: got w=%v b=%v err=%v", w, b, err)
	}
}

func TestLSQTwoFeaturesAndScale(t *testing.T) {
	// y = 3·x0 − 2·x1 + 5, with x1 six orders of magnitude above x0.
	l := newLSQ(2)
	for _, x := range [][]float64{{1, 2e6}, {2, 1e6}, {0, 3e6}, {4, 5e6}, {3, 0}} {
		l.add(x, 3*x[0]-2*x[1]+5)
	}
	w, b, err := l.solve()
	if err != nil || !near(w[0], 3, 1e-6) || !near(w[1], -2, 1e-9) || !near(b, 5, 1e-4) {
		t.Fatalf("got w=%v b=%v err=%v", w, b, err)
	}
}

func TestLSQLeastSquares(t *testing.T) {
	// Points (0,0), (1,1), (2,1): the fitted line is y = x/2 + 1/6.
	l := newLSQ(1)
	for _, p := range [][2]float64{{0, 0}, {1, 1}, {2, 1}} {
		l.add([]float64{p[0]}, p[1])
	}
	w, b, err := l.solve()
	if err != nil || !near(w[0], 0.5, 1e-12) || !near(b, 1.0/6, 1e-12) {
		t.Fatalf("got w=%v b=%v err=%v", w, b, err)
	}
}

func TestLSQSingular(t *testing.T) {
	l := newLSQ(1)
	for i := 0; i < 3; i++ {
		l.add([]float64{4}, float64(i))
	}
	if _, _, err := l.solve(); err == nil {
		t.Fatal("a constant feature collinear with the intercept solved")
	}
}

func TestRegret(t *testing.T) {
	var g regret
	g.add([]float64{10, 20}, 1) // chose 20, best 10, random 15
	g.add([]float64{30, 15}, 0) // chose 30, best 15, random 22.5
	if !near(g.pct(), 100, 1e-12) || !near(g.randomPct(), 50, 1e-12) || g.n != 2 {
		t.Fatalf("regret %v%%, random %v%%, n %d; want 100, 50, 2", g.pct(), g.randomPct(), g.n)
	}
	var h regret
	h.add([]float64{5, 7, 9}, 0)
	h.merge(g)
	// chosen 55, best 30 → 83.33%; random 44.5 → 48.33%.
	if !near(h.pct(), 100*(55.0/30-1), 1e-12) || !near(h.randomPct(), 100*(44.5/30-1), 1e-12) {
		t.Fatalf("merged regret %v%%, random %v%%", h.pct(), h.randomPct())
	}
}

func TestRMSE(t *testing.T) {
	var r rmse
	if !math.IsNaN(r.value()) {
		t.Fatal("empty RMSE is not NaN")
	}
	r.add(1, 2)
	r.add(3, 1)
	if !near(r.value(), math.Sqrt(2.5), 1e-12) {
		t.Fatalf("rmse %v, want sqrt(2.5)", r.value())
	}
}

func TestRuntimeDraws(t *testing.T) {
	c := cyclesApp()
	rt := make([]float64, len(c.hw))
	c.runtimes([]float64{100}, 0, rt)
	for arm, want := range []float64{700, 730, 800, 1050} {
		if rt[arm] != want {
			t.Fatalf("cycles at 100 tasks, arm %d: %v, want %v", arm, rt[arm], want)
		}
	}
	c.runtimes([]float64{500}, 1, rt) // every arm shares the draw: +25 s
	for arm, want := range []float64{3125, 2555, 2025, 1675} {
		if rt[arm] != want {
			t.Fatalf("cycles at 500 tasks, z=1, arm %d: %v, want %v", arm, rt[arm], want)
		}
	}
	b := bp3dApp()
	rt = make([]float64, len(b.hw))
	b.runtimes(make([]float64, 7), -100, rt)
	for _, v := range rt {
		if v != minRuntime {
			t.Fatalf("a runtime below the floor was not clamped: %v", rt)
		}
	}
	m := matmulApp()
	rt = make([]float64, len(m.hw))
	m.runtimes([]float64{12500, 0, -50, 50}, 0, rt)
	if fastest(rt) != rt[4] || rt[0] < 5*rt[4] {
		t.Fatalf("size-12500 matmul: %v; want the 16-core arm fastest by far", rt)
	}
}

func TestPlanShape(t *testing.T) {
	apps := paperApps()
	pop := population(apps, 12, 7, mix{adaptive: true, cached: true})
	spec := planSpec{rounds: 5, batchEvery: 10, batchSize: 8}
	in := generate(pop, apps, 7, 2, spec)
	seen := map[int32]bool{}
	for c, pl := range in.plans {
		if pl.roundLen != len(pop)/2 || len(pl.groups) != 5*pl.roundLen {
			t.Fatalf("client %d: %d groups in rounds of %d", c, len(pl.groups), pl.roundLen)
		}
		decisions := 0
		for r := 0; r < 5; r++ {
			inRound := map[int32]bool{}
			for i, g := range pl.groups[r*pl.roundLen : (r+1)*pl.roundLen] {
				if inRound[g.tenant] || int(g.tenant)%2 != c {
					t.Fatalf("client %d round %d: tenant %d repeated or not the client's", c, r, g.tenant)
				}
				inRound[g.tenant] = true
				seen[g.tenant] = true
				k := r*pl.roundLen + i
				if g.batch != (k%10 == 9) || (g.batch && len(g.steps) != 8) || (!g.batch && len(g.steps) != 1) {
					t.Fatalf("group %d: batch %t with %d steps", k, g.batch, len(g.steps))
				}
				decisions += len(g.steps)
			}
		}
		if decisions != pl.decisions {
			t.Fatalf("client %d: %d decisions counted, plan says %d", c, decisions, pl.decisions)
		}
	}
	if len(seen) != len(pop) {
		t.Fatalf("%d of %d tenants planned", len(seen), len(pop))
	}
	if d := generate(pop, apps, 7, 2, spec).digest(apps); d != in.digest(apps) {
		t.Fatal("the same seed gave different inputs")
	}
	if d := generate(pop, apps, 8, 2, spec).digest(apps); d == in.digest(apps) {
		t.Fatal("another seed gave the same inputs")
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestSamplerPercentiles(t *testing.T) {
	s := newSampler(64)
	for i := 1; i <= 1000; i++ {
		s.add(int64(i))
	}
	if s.n != 1000 || len(s.buf) > 64 {
		t.Fatalf("n %d, kept %d", s.n, len(s.buf))
	}
	if p := percentile(0.5, s); !near(p, 500, 20) {
		t.Fatalf("median of 1..1000 from the decimated sampler: %v", p)
	}
	if p := percentile(0.99, s); !near(p, 990, 20) {
		t.Fatalf("p99 of 1..1000 from the decimated sampler: %v", p)
	}
	exact := newSampler(16)
	for _, v := range []int64{5, 1, 4, 2, 3} {
		exact.add(v)
	}
	if percentile(0.5, exact) != 3 || percentile(1, exact) != 5 || percentile(0.2, exact) != 1 {
		t.Fatal("nearest-rank percentiles of 1..5 are wrong")
	}
}

func TestMixSeedNonZero(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		if mixSeed(r.Uint64(), uint64(i)) == 0 {
			t.Fatal("zero seed")
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables and
// the workloads.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads listed, %d implemented", len(b.Workloads), len(workloadOrder))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadOrder[i] {
			t.Fatalf("workload %d is %q, want %q", i, w.Name, workloadOrder[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d/%d metrics listed, %d/%d reported", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Fatalf("end_to_end %d: %+v, table says %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Fatalf("per_layer %d: %+v, table says %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced: all
// checks pass, nothing fails, and every metric is measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 0.2, trace: traced, scale: probeScale, setups: 2, restarts: 2, spanDir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w, traced, err)
			}
			for _, c := range res.checks {
				if c.err != nil {
					t.Errorf("%s traced=%t: check %s: %v", w, traced, c.name, c.err)
				}
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d operations failed", w, traced, res.failed, res.attempted)
			}
			defs, values := endToEnd, res.e2e
			if traced {
				defs, values = perLayer, res.layer
			}
			for _, d := range defs {
				if v, ok := values[d.name]; !ok || math.IsNaN(v) {
					t.Errorf("%s traced=%t: %s not measured", w, traced, d.name)
				}
			}
		}
	}
}
