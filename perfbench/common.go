package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"banditware/internal/serve"
)

// samplerCap bounds each latency sampler (see sampler).
const samplerCap = 1 << 17

// client is one caller's state: its plan, latency samplers, per-tenant
// counters and the quality accumulators of its decisions. Clients own
// disjoint tenants, so the shared per-tenant slices are written at
// disjoint indexes only.
type client struct {
	id       int
	plan     *plan
	cu       cursor
	rec, obs *sampler // single-decision calls

	// Per-tenant counts of recommends issued and observes sent, shared by
	// all clients of a run.
	issued, observed []int64

	decisions int64 // decisions completed
	attempted int64 // calls made into the program
	failed    int64
	firstErr  error
	badArm    string // first ticket whose arm did not match the hardware set

	q   *quality
	tr  *tracer
	sl  *slicer // untraced measured phase
	via int     // fleet traced phase: spRouted or spDirect for the next group, else -1
}

// done records a completed group of n decisions at now; rec and obs are
// the single pair's latencies, or -1 for a batch.
func (c *client) done(now time.Time, rec, obs int64, n int) {
	c.decisions += int64(n)
	if rec >= 0 {
		c.rec.add(rec)
		c.obs.add(obs)
	}
	if c.sl != nil {
		c.sl.add(now, rec, obs, n)
	}
}

// slices is how many equal slices the measured phase is cut into.
const slices = 5

// slicer cuts a client's measured phase into equal slices and keeps, per
// slice, the decisions completed and the p99 of each latency. The run
// reports the median over slices, so a stall or a collection that lands
// in one slice moves that slice, not the run's figure.
type slicer struct {
	start          time.Time
	length         time.Duration
	idx            int
	rec, obs       *sampler
	dec            [slices]int64
	recP99, obsP99 []float64
}

func newSlicer(start time.Time, phase time.Duration) *slicer {
	return &slicer{start: start, length: phase / slices, rec: newSampler(samplerCap / 2), obs: newSampler(samplerCap / 2)}
}

func (s *slicer) add(now time.Time, rec, obs int64, n int) {
	i := int(now.Sub(s.start) / s.length)
	if i != s.idx {
		s.close()
		s.idx = i
	}
	if i >= slices {
		return
	}
	s.dec[i] += int64(n)
	if rec >= 0 {
		s.rec.add(rec)
		s.obs.add(obs)
	}
}

// close ends the current slice.
func (s *slicer) close() {
	if s.idx < slices && s.rec.n > 0 {
		s.recP99 = append(s.recP99, percentile(0.99, s.rec))
		s.obsP99 = append(s.obsP99, percentile(0.99, s.obs))
	}
	s.rec.reset()
	s.obs.reset()
}

// sliceE2E reports the median over slices of the decision rate (all
// clients together) and of each client's p99 latencies. It needs every
// slice to have ended, so it runs after the phase.
func sliceE2E(res *result, cs []*client) {
	var rates, rec, obs []float64
	for i := 0; i < slices; i++ {
		n := int64(0)
		for _, c := range cs {
			n += c.sl.dec[i]
		}
		rates = append(rates, float64(n)/cs[0].sl.length.Seconds())
	}
	for _, c := range cs {
		c.sl.close()
		rec = append(rec, c.sl.recP99...)
		obs = append(obs, c.sl.obsP99...)
	}
	res.e2e["decisions_per_s"] = medianOf(rates)
	res.e2e["recommend_p99_us"] = medianOf(rec) / 1e3
	res.e2e["observe_p99_us"] = medianOf(obs) / 1e3
	res.notes = append(res.notes, fmt.Sprintf("per-slice decision rates: %.6g", rates))
}

func newClient(id int, pl *plan, issued, observed []int64, q *quality) *client {
	return &client{
		id: id, plan: pl,
		rec: newSampler(samplerCap), obs: newSampler(samplerCap),
		issued: issued, observed: observed, q: q.fork(), via: -1,
	}
}

// fail counts a failed call, remembering the first error.
func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// checkArm verifies a returned arm against the tenant's hardware set.
func (c *client) checkArm(t *tenant, arm int, label string) bool {
	if arm < 0 || arm >= len(t.labels) || (label != "" && label != t.labels[arm]) {
		if c.badArm == "" {
			c.badArm = fmt.Sprintf("%s: arm %d labelled %q (hardware %v)", t.name, arm, label, t.labels)
		}
		return false
	}
	return true
}

// quality accumulates the learning metrics over one pass of the plan (the
// quality window) and the method-check fits over the whole run.
type quality struct {
	pop  []tenant
	all  regret             // every decision in the window
	last map[string]*regret // learner tenants of learnable apps, last tenth of the window
	// err: predictions of runtime-reward tenants for arms fitted on at least
	// fittedPairs observations per parameter.
	err  rmse
	seen [][]int  // per tenant and arm: window decisions observed so far
	fits [][]*lsq // method tenants: per arm, every pair sent
}

func newQuality(pop []tenant, in *inputs) *quality {
	q := &quality{pop: pop, last: map[string]*regret{}, fits: make([][]*lsq, len(pop)), seen: make([][]int, len(pop))}
	for i := range pop {
		t := &pop[i]
		q.seen[i] = make([]int, len(t.app.hw))
		if methodTenant(t) {
			q.fits[i] = make([]*lsq, len(t.app.hw))
			for a := range q.fits[i] {
				q.fits[i][a] = newLSQ(len(t.app.features))
			}
		}
	}
	return q
}

// fork returns a per-client accumulator sharing the method fits and the
// observation counts (whose tenants are disjoint across clients).
func (q *quality) fork() *quality {
	return &quality{pop: q.pop, last: map[string]*regret{}, fits: q.fits, seen: q.seen}
}

func (q *quality) merge(o *quality) {
	q.all.merge(o.all)
	q.err.merge(o.err)
	for k, v := range o.last {
		if q.last[k] == nil {
			q.last[k] = &regret{}
		}
		q.last[k].merge(*v)
	}
}

// methodTenant reports whether the method check covers a tenant:
// stationary Algorithm 1 streams fed raw vectors and learning the runtime.
func methodTenant(t *tenant) bool {
	return t.kind == serve.PolicyAlgorithm1 && t.raw && t.stationary() && t.reward == serve.RewardRuntime
}

// learner reports whether a tenant counts in the learning check.
func learner(t *tenant) bool {
	return t.app.learnable && t.kind != serve.PolicyRandom && t.reward == serve.RewardRuntime
}

// note records one completed decision. pass is the plan pass the decision
// belongs to and k its index within the pass.
func (q *quality) note(ti int32, in *inputs, s *step, arm int, pred []float64, pass, k, passLen int) {
	t := &q.pop[ti]
	x := in.pools[t.app.name].xs[s.ctx]
	if f := q.fits[ti]; f != nil {
		f[arm].add(x, s.rt[arm])
	}
	if pass != 0 {
		return
	}
	q.all.add(s.rt, arm)
	seen := q.seen[ti][arm]
	q.seen[ti][arm]++
	if t.reward == serve.RewardRuntime && arm < len(pred) && seen >= fittedPairs*(len(x)+1) {
		q.err.add(pred[arm], s.rt[arm])
	}
	if learner(t) && 10*k >= 9*passLen {
		g := q.last[t.app.name]
		if g == nil {
			g = &regret{}
			q.last[t.app.name] = g
		}
		g.add(s.rt, arm)
	}
}

// check is one named output check.
type check struct {
	name string
	err  error
}

// checkLearning: on every learnable app, the last tenth of the window beats
// a uniformly random choice over the same runtimes.
func checkLearning(q *quality, apps []*app) []check {
	var out []check
	for _, a := range apps {
		if !a.learnable {
			continue
		}
		g := q.last[a.name]
		var err error
		switch {
		case g == nil || g.n == 0:
			err = fmt.Errorf("no learner decisions on %s", a.name)
		case g.pct() >= g.randomPct():
			err = fmt.Errorf("%s: regret %.2f%% over the last tenth is not below random's %.2f%%", a.name, g.pct(), g.randomPct())
		}
		out = append(out, check{"learning." + a.name, err})
	}
	return out
}

// methodTolerance is the largest gap allowed between the service's model
// and the benchmark's own fit, relative to the arm's mean runtime.
const methodTolerance = 1e-3

// minFitPairs is how many pairs per parameter an arm needs before its fit is
// compared.
const minFitPairs = 3

// fittedPairs is how many observations per parameter an arm's model needs
// before its predictions count in the RMSE: with fewer, a linear fit is an
// extrapolation from an underdetermined system, and its errors of 10⁶ s
// would make the figure a matter of which arm a seed happened to explore.
const fittedPairs = 2

// checkMethod compares each covered arm's Service.Model with the
// benchmark's least-squares-with-intercept fit of the pairs it sent, at
// every context of the app's pool.
func checkMethod(model func(name string, arm int) ([]float64, float64, error), q *quality, in *inputs) check {
	worst, compared := 0.0, 0
	for ti, fits := range q.fits {
		if fits == nil {
			continue
		}
		t := &q.pop[ti]
		for arm, f := range fits {
			if f.n < minFitPairs*(f.dim+1) {
				continue
			}
			w, b, err := f.solve()
			if err != nil {
				continue
			}
			sw, sb, err := model(t.name, arm)
			if err != nil {
				return check{"method.model", fmt.Errorf("%s arm %d: %w", t.name, arm, err)}
			}
			scale := f.b[f.dim] / float64(f.n) // mean runtime
			for _, x := range in.pools[t.app.name].xs {
				gap := math.Abs(predict(sw, sb, x)-predict(w, b, x)) / scale
				if !(gap <= methodTolerance) {
					return check{"method.model", fmt.Errorf("%s arm %d: service model is %.3g of the mean runtime from the least-squares fit", t.name, arm, gap)}
				}
				worst = math.Max(worst, gap)
			}
			compared++
		}
	}
	if compared == 0 {
		return check{"method.model", fmt.Errorf("no arm had enough observations to compare")}
	}
	return check{"method.model", nil}
}

// checkAccounting compares what the benchmark sent with the service's own
// totals and per-stream counts.
func checkAccounting(name string, st serve.Stats, pop []tenant, issued, observed []int64) check {
	var sumI, sumO int64
	for i := range pop {
		sumI += issued[i]
		sumO += observed[i]
	}
	byName := make(map[string]serve.StreamInfo, len(st.Streams))
	for _, s := range st.Streams {
		byName[s.Name] = s
	}
	var err error
	switch {
	case int64(st.TotalIssued) != sumI || int64(st.TotalObserved) != sumO:
		err = fmt.Errorf("totals issued/observed %d/%d, benchmark sent %d/%d", st.TotalIssued, st.TotalObserved, sumI, sumO)
	case st.TotalPending != 0:
		err = fmt.Errorf("%d tickets left pending", st.TotalPending)
	case len(st.Streams) != len(pop):
		err = fmt.Errorf("%d streams, want %d", len(st.Streams), len(pop))
	}
	for i := 0; err == nil && i < len(pop); i++ {
		s, ok := byName[pop[i].name]
		if !ok || int64(s.Issued) != issued[i] || int64(s.Observed) != observed[i] {
			err = fmt.Errorf("stream %s: issued/observed %d/%d, benchmark sent %d/%d", pop[i].name, s.Issued, s.Observed, issued[i], observed[i])
		}
	}
	return check{name, err}
}

// serviceModel reads one arm's model from a service.
func serviceModel(svc *serve.Service) func(string, int) ([]float64, float64, error) {
	return func(name string, arm int) ([]float64, float64, error) {
		m, err := svc.Model(name, arm)
		return m.Weights, m.Bias, err
	}
}

// restartTimes persists svc and brings a fresh service up from the bytes,
// reps times, and checks that the last loaded service re-saves to exactly
// the bytes it was loaded from.
func restartTimes(svc *serve.Service, reps int) (restart, save, load []float64, size int, c check) {
	var buf bytes.Buffer
	c.name = "restart.resave"
	for rep := 0; rep < reps; rep++ {
		buf.Reset()
		runtime.GC() // start each repetition from a collected heap
		t0 := time.Now()
		if err := svc.Save(&buf); err != nil {
			c.err = fmt.Errorf("save: %w", err)
			return
		}
		t1 := time.Now()
		var header struct {
			SavedAt time.Time `json:"saved_at"`
		}
		// The loaded service's clock reads the snapshot's saved_at (parsed
		// below, before the re-save reads the clock), so its re-save can be
		// compared byte for byte.
		loaded, err := serve.Load(bytes.NewReader(buf.Bytes()), serve.ServiceOptions{Now: func() time.Time { return header.SavedAt }})
		if err == nil && !loaded.Ready() {
			err = fmt.Errorf("loaded service is not ready")
		}
		t2 := time.Now()
		if err != nil {
			c.err = fmt.Errorf("load: %w", err)
			return
		}
		restart = append(restart, t2.Sub(t0).Seconds())
		save = append(save, t1.Sub(t0).Seconds())
		load = append(load, t2.Sub(t1).Seconds())
		size = buf.Len()
		if rep == reps-1 {
			if err := json.Unmarshal(buf.Bytes(), &header); err != nil {
				c.err = fmt.Errorf("reading snapshot header: %w", err)
				return
			}
			var again bytes.Buffer
			if err := loaded.Save(&again); err != nil {
				c.err = fmt.Errorf("re-save: %w", err)
				return
			}
			if !bytes.Equal(again.Bytes(), buf.Bytes()) {
				c.err = fmt.Errorf("re-saved snapshot differs from the %d bytes it was loaded from (%d bytes)", buf.Len(), again.Len())
			}
		}
		loaded.Close()
	}
	return
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is the part of runtime.MemStats the benchmark reads.
type memSnap struct {
	heap, mallocs uint64
	gcs           uint32
	pauseNs       uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{heap: ms.HeapAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	return readMem().heap
}

// phase measures one stretch of traffic: wall time, CPU time and the
// allocator's counters.
type phase struct {
	start time.Time
	cpu   time.Duration
	mem   memSnap
}

func beginPhase() phase { return phase{start: time.Now(), cpu: cpuTime(), mem: readMem()} }

// phaseStats is what a phase measured.
type phaseStats struct {
	wall, cpu time.Duration
	mallocs   uint64
	gcs       uint32
	pauseMs   float64
	decisions int64
}

func (p phase) end(decisions int64) phaseStats {
	m := readMem()
	return phaseStats{
		wall: time.Since(p.start), cpu: cpuTime() - p.cpu,
		mallocs: m.mallocs - p.mem.mallocs, gcs: m.gcs - p.mem.gcs,
		pauseMs:   float64(m.pauseNs-p.mem.pauseNs) / 1e6,
		decisions: decisions,
	}
}

func (s phaseStats) rate() float64 { return float64(s.decisions) / s.wall.Seconds() }

// meanOfRange is the mean of vs[lo:hi], in the units of vs.
func meanOfRange(vs []float64, lo, hi int) float64 {
	if hi <= lo {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vs[lo:hi] {
		s += v
	}
	return s / float64(hi-lo)
}

// createAll creates every tenant's stream on svc, recording each create's
// time in seconds when times is not nil.
func createAll(svc *serve.Service, pop []tenant, times []float64) error {
	for i := range pop {
		t0 := time.Now()
		if err := svc.CreateStream(pop[i].name, pop[i].config()); err != nil {
			return fmt.Errorf("creating %s: %w", pop[i].name, err)
		}
		if times != nil {
			times[i] = time.Since(t0).Seconds()
		}
	}
	return nil
}

// allocLayer reports the allocator and collector figures of a phase.
func allocLayer(res *result, st phaseStats) {
	res.layer["serve.allocs_per_decision"] = float64(st.mallocs) / float64(st.decisions)
	res.layer["runtime.gc_cycles"] = float64(st.gcs)
	res.layer["runtime.gc_pause_ms"] = st.pauseMs
}

// createTenths returns the mean create time, in µs, over the first and the
// last tenth of the population.
func createTenths(times []float64) (first, last float64) {
	n := len(times)
	k := max(n/10, 1)
	return meanOfRange(times, 0, k) * 1e6, meanOfRange(times, n-k, n) * 1e6
}
