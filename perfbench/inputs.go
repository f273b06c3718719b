package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/schema"
	"banditware/internal/serve"
)

// Inputs are generated here, from the seed alone, with the benchmark's own
// copies of the paper's three runtime models: a change to the program's
// workload generators cannot silently change what the benchmark replays.

// minRuntime floors a drawn runtime: outcome validation rejects negative
// runtimes, and the additive noise of the fast arms can cross zero.
const minRuntime = 0.05

// app is one of the paper's evaluation applications: a feature layout, the
// hardware set it ran on, and a generative runtime model.
type app struct {
	name     string
	features []string
	hw       hardware.Set
	draw     func(r *rand.Rand, x []float64)
	truth    func(arm int, x []float64) float64
	noise    func(arm int, x []float64) float64
	// learnable marks applications whose arms differ by much more than the
	// noise, so a learner must beat a uniformly random choice on them.
	learnable bool
}

// runtimes fills out with the runtime of x on every arm for one standard
// normal draw z. The draw is shared by the arms: a run's variation comes
// from the workflow, not the hardware, so the fastest pre-sampled arm is
// the truly fastest one and regret measures the choice, not the noise.
func (a *app) runtimes(x []float64, z float64, out []float64) {
	for arm := range out {
		out[arm] = math.Max(a.truth(arm, x)+a.noise(arm, x)*z, minRuntime)
	}
}

// cyclesApp is Experiment 1: four synthetic hardware settings whose linear
// makespan models cross over inside the 100–500 task range.
func cyclesApp() *app {
	slopes := []float64{6.0, 4.5, 3.0, 1.5}
	intercepts := []float64{100, 280, 500, 900}
	return &app{
		name:     "cycles",
		features: []string{"num_tasks"},
		hw: hardware.Set{
			{Name: "H0", CPUs: 1, MemoryGB: 8},
			{Name: "H1", CPUs: 2, MemoryGB: 16},
			{Name: "H2", CPUs: 4, MemoryGB: 24},
			{Name: "H3", CPUs: 8, MemoryGB: 32},
		},
		draw:      func(r *rand.Rand, x []float64) { x[0] = float64(100 + r.IntN(401)) },
		truth:     func(arm int, x []float64) float64 { return slopes[arm]*x[0] + intercepts[arm] },
		noise:     func(int, []float64) float64 { return 25 },
		learnable: true,
	}
}

// bp3dApp is Experiment 2 (BurnPro3D): seven Table-1 features, runtime
// dominated by burn area, and three hardware settings within 1% of each
// other — far below the noise, so no learner can separate them.
func bp3dApp() *app {
	areas := []float64{0.9, 1.2, 1.5, 1.8, 2.2, 2.6} // km²
	mult := []float64{0.99, 1.0, 1.01}
	return &app{
		name: "bp3d",
		features: []string{"surface_moisture", "canopy_moisture", "wind_direction",
			"wind_speed", "sim_time", "max_mem_gb", "area_km2"},
		hw: hardware.Set{
			{Name: "H0", CPUs: 2, MemoryGB: 16},
			{Name: "H1", CPUs: 3, MemoryGB: 24},
			{Name: "H2", CPUs: 4, MemoryGB: 16},
		},
		draw: func(r *rand.Rand, x []float64) {
			x[0] = 0.05 + 0.35*r.Float64()
			x[1] = 0.6 + 0.8*r.Float64()
			x[2] = 360 * r.Float64()
			x[3] = 15 * r.Float64()
			x[4] = 2000 + 4000*r.Float64()
			x[5] = 8 + 56*r.Float64()
			x[6] = areas[r.IntN(len(areas))]
		},
		truth: func(arm int, x []float64) float64 {
			base := 24000*x[6] + 1.2*x[4] + 8000*x[0] + 2500*x[1] - 180*x[3] + 2*x[2]/360 + 0.1*x[5]
			return base * mult[arm]
		},
		noise: func(int, []float64) float64 { return 12000 },
	}
}

// matmulApp is Experiment 3: tiled matrix squaring on five settings, where
// hardware matters only for large matrices and small runs are dominated by
// a per-arm scheduling overhead.
func matmulApp() *app {
	hw := hardware.Set{
		{Name: "H0", CPUs: 2, MemoryGB: 16},
		{Name: "H1", CPUs: 3, MemoryGB: 24},
		{Name: "H2", CPUs: 4, MemoryGB: 16},
		{Name: "H3", CPUs: 8, MemoryGB: 32},
		{Name: "H4", CPUs: 16, MemoryGB: 64},
	}
	small := []float64{100, 200, 300, 400, 500, 650, 800, 1000, 1250, 1500, 2000, 3000}
	large := []float64{5000, 6500, 8000, 9500, 11000, 12500}
	setup := []float64{1.3, 0.9, 1.6, 1.1, 1.4}
	truth := func(arm int, x []float64) float64 {
		size, sparsity := x[0], x[1]
		s := size * size / (size*size + 2500*2500)
		eff := 1 + 0.85*float64(hw[arm].CPUs-1)*s
		work := 0.62e-9 * size * size * size * (1 + 8e-5*size) * (1 - 0.3*sparsity)
		return work/eff + setup[arm]
	}
	return &app{
		name:     "matmul",
		features: []string{"size", "sparsity", "min_value", "max_value"},
		hw:       hw,
		draw: func(r *rand.Rand, x []float64) {
			if r.Float64() < 0.3 {
				x[0] = large[r.IntN(len(large))]
			} else {
				x[0] = small[r.IntN(len(small))]
			}
			x[1] = 0.9 * r.Float64()
			x[2] = -100 * r.Float64()
			x[3] = 1 + 99*r.Float64()
		},
		truth:     truth,
		noise:     func(arm int, x []float64) float64 { return 0.08*truth(arm, x) + 1.2 },
		learnable: true,
	}
}

// paperApps returns the three applications in a fixed order.
func paperApps() []*app { return []*app{cyclesApp(), bp3dApp(), matmulApp()} }

// Policy kinds in the order tenants cycle through them. Algorithm 1, the
// paper's policy, takes every other slot.
var policyCycle = []string{
	serve.PolicyAlgorithm1, serve.PolicyLinUCB,
	serve.PolicyAlgorithm1, serve.PolicyLinTS,
	serve.PolicyAlgorithm1, serve.PolicyEpsGreedy,
	serve.PolicyAlgorithm1, serve.PolicyGreedy,
	serve.PolicyAlgorithm1, serve.PolicySoftmax,
	serve.PolicyAlgorithm1, serve.PolicyRandom,
}

// tenant is one stream of the population: its configuration and the way
// the benchmark feeds it.
type tenant struct {
	name   string
	app    *app
	kind   string
	raw    bool   // fed raw vectors; no declared schema
	adapt  string // serve.AdaptNone, AdaptWindow or AdaptForgetting
	cached bool
	reward string  // reward type
	alpha  float64 // Algorithm 1's ε decay per observation (0: the paper's 0.99)
	seed   uint64
	labels []string // hardware labels, index-aligned with app.hw
}

// mix sets which stream kinds a population may contain.
type mix struct {
	adaptive bool // window and forgetting streams (not delta-mergeable)
	cached   bool
	alpha    float64 // Algorithm 1's ε decay (0: the paper's 0.99)
}

// population builds perApp tenants for each application. The make-up is a
// fixed function of the tenant's index, so every seed gets the same mix:
// policies cycle through policyCycle, a quarter of the tenants (whole
// blocks of twelve) are fed raw vectors, two in seven adapt (window or
// forgetting; never random, which has no model), one in five caches, and
// one in eleven scores cost_weighted instead of runtime.
func population(apps []*app, perApp int, seed uint64, m mix) []tenant {
	out := make([]tenant, 0, perApp*len(apps))
	for _, a := range apps {
		labels := make([]string, len(a.hw))
		for i, h := range a.hw {
			labels[i] = h.String()
		}
		for i := 0; i < perApp; i++ {
			t := tenant{
				name:   fmt.Sprintf("%s-%04d", a.name, i),
				app:    a,
				kind:   policyCycle[i%len(policyCycle)],
				raw:    (i/len(policyCycle))%4 == 0,
				adapt:  serve.AdaptNone,
				reward: serve.RewardRuntime,
				alpha:  m.alpha,
				seed:   mixSeed(seed, uint64(len(out))),
				labels: labels,
			}
			if m.adaptive && t.kind != serve.PolicyRandom {
				switch i % 7 {
				case 3:
					t.adapt = serve.AdaptWindow
				case 5:
					t.adapt = serve.AdaptForgetting
				}
			}
			t.cached = m.cached && (i/3)%5 == 2
			if i%11 == 4 {
				t.reward = serve.RewardCostWeighted
			}
			out = append(out, t)
		}
	}
	return out
}

// mixSeed derives a non-zero per-item seed (splitmix64 finaliser).
func mixSeed(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// stationary reports whether the tenant learns on an infinite horizon.
func (t *tenant) stationary() bool { return t.adapt == serve.AdaptNone }

// schema is the tenant's declared feature layout (nil for raw tenants).
func (t *tenant) schema() *schema.Schema {
	if t.raw {
		return nil
	}
	fields := make([]schema.Field, len(t.app.features))
	for i, n := range t.app.features {
		fields[i] = schema.Field{Name: n, Required: true}
	}
	return &schema.Schema{Fields: fields}
}

// adaptSpec is the tenant's adaptation in the service's terms.
func (t *tenant) adaptSpec() serve.AdaptSpec {
	switch t.adapt {
	case serve.AdaptWindow:
		return serve.AdaptSpec{Mode: serve.AdaptWindow, Window: 32}
	case serve.AdaptForgetting:
		return serve.AdaptSpec{Mode: serve.AdaptForgetting, Factor: 0.98}
	}
	return serve.AdaptSpec{}
}

// config is the tenant's stream configuration.
func (t *tenant) config() serve.StreamConfig {
	cfg := serve.StreamConfig{
		Hardware: t.app.hw,
		Schema:   t.schema(),
		Options:  core.Options{Alpha: t.alpha},
		Policy:   serve.PolicySpec{Type: t.kind, Seed: t.seed},
		Reward:   serve.RewardSpec{Type: t.reward},
		Adapt:    t.adaptSpec(),
	}
	if t.raw {
		cfg.Dim = len(t.app.features)
	}
	if t.cached {
		cfg.Cache = &serve.CacheSpec{}
	}
	return cfg
}

// pool is an application's set of distinct workflow contexts, both as raw
// vectors and as named contexts, shared by every tenant of the app.
type pool struct {
	xs    [][]float64
	named []schema.Context
}

func newPool(a *app, n int, r *rand.Rand) *pool {
	p := &pool{xs: make([][]float64, n), named: make([]schema.Context, n)}
	for i := range p.xs {
		x := make([]float64, len(a.features))
		a.draw(r, x)
		m := make(map[string]float64, len(x))
		for j, f := range a.features {
			m[f] = x[j]
		}
		p.xs[i], p.named[i] = x, schema.Num(m)
	}
	return p
}

// step is one decision: a context of the tenant's app and one pre-sampled
// runtime per arm, so the observed value follows whichever arm is chosen.
type step struct {
	ctx int32
	rt  []float64
}

// group is what a client sends in one go: a single recommend→observe pair,
// or a batch of decisions on one stream.
type group struct {
	tenant int32
	batch  bool
	steps  []step
}

// plan is one client's replayed inputs: rounds of groups, every round
// visiting each of the client's tenants once in a seeded order. One pass
// over the plan is the quality window; the measured phase keeps cycling
// it, whole rounds at a time.
type plan struct {
	groups    []group
	roundLen  int // groups per round
	decisions int // decisions in one pass
}

// planSpec shapes a client's plan.
type planSpec struct {
	tenants    []int32 // the client's tenants (indexes into the population)
	rounds     int
	batchEvery int // every batchEvery-th group is a batch (0: none)
	batchSize  int
}

func newPlan(pop []tenant, pools map[string]*pool, ps planSpec, r *rand.Rand) *plan {
	pl := &plan{roundLen: len(ps.tenants)}
	order := append([]int32(nil), ps.tenants...)
	for round := 0; round < ps.rounds; round++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ti := range order {
			t := &pop[ti]
			g := group{tenant: ti}
			n := 1
			if ps.batchEvery > 0 && len(pl.groups)%ps.batchEvery == ps.batchEvery-1 {
				g.batch, n = true, ps.batchSize
			}
			p := pools[t.app.name]
			rts := make([]float64, n*len(t.app.hw))
			for k := 0; k < n; k++ {
				c := int32(r.IntN(len(p.xs)))
				rt := rts[k*len(t.app.hw) : (k+1)*len(t.app.hw)]
				t.app.runtimes(p.xs[c], r.NormFloat64(), rt)
				g.steps = append(g.steps, step{ctx: c, rt: rt})
			}
			pl.decisions += n
			pl.groups = append(pl.groups, g)
		}
	}
	return pl
}

// inputs is a workload's whole generated input.
type inputs struct {
	pop   []tenant
	pools map[string]*pool
	plans []*plan // one per client
}

// poolSize is the number of distinct contexts per application.
const poolSize = 2048

// generate builds the pools and per-client plans from the seed. Clients
// own disjoint tenant sets: client c gets tenants c, c+clients, ...
func generate(pop []tenant, apps []*app, seed uint64, clients int, ps planSpec) *inputs {
	r := rand.New(rand.NewPCG(seed, 0x62656e6368)) // "bench"
	in := &inputs{pop: pop, pools: map[string]*pool{}}
	for _, a := range apps {
		in.pools[a.name] = newPool(a, poolSize, r)
	}
	for c := 0; c < clients; c++ {
		spec := ps
		spec.tenants = nil
		for i := c; i < len(pop); i += clients {
			spec.tenants = append(spec.tenants, int32(i))
		}
		in.plans = append(in.plans, newPlan(pop, in.pools, spec, r))
	}
	return in
}

// digest fingerprints every generated input — tenant make-up, contexts and
// pre-sampled runtimes — so a change of inputs is recognised as one.
func (in *inputs) digest(apps []*app) string {
	h := sha256.New()
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, t := range in.pop {
		fmt.Fprintf(h, "%s|%s|%t|%s|%t|%s|%g|%d\n", t.name, t.kind, t.raw, t.adapt, t.cached, t.reward, t.alpha, t.seed)
	}
	for _, a := range apps {
		for _, x := range in.pools[a.name].xs {
			for _, v := range x {
				f(v)
			}
		}
	}
	for _, pl := range in.plans {
		for _, g := range pl.groups {
			fmt.Fprintf(h, "%d|%t\n", g.tenant, g.batch)
			for _, s := range g.steps {
				f(float64(s.ctx))
				for _, v := range s.rt {
					f(v)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
