package main

import (
	"fmt"
	"runtime"
	"time"

	"banditware/internal/serve"
)

// paper-inproc: the paper's three applications learned online by one
// in-process caller through RecommendCtxInto / RecommendInto and
// ObserveSeq, every recommend observed. No transport: the engines, RLS,
// schema, reward, drift and the ticket ledger do nearly all the work, and
// the single caller keeps every decision deterministic.

const (
	inprocPerApp = 200 // tenants per application
	inprocRounds = 200 // rounds in the quality window
)

// inprocStep issues and observes one decision of group g directly on svc.
// With a tracer, the service calls are spans and the decision's inputs are
// replayed through the layers below serve.
func (c *client) inprocStep(svc *serve.Service, in *inputs, g *group, tk *serve.Ticket, tr *tracer, rp *replayer) {
	t := &in.pop[g.tenant]
	s := &g.steps[0]
	p := in.pools[t.app.name]
	req := uint32(c.decisions)
	var err error
	t0 := time.Now()
	if t.raw {
		err = svc.RecommendInto(t.name, p.xs[s.ctx], tk)
	} else {
		err = svc.RecommendCtxInto(t.name, p.named[s.ctx], tk)
	}
	t1 := time.Now()
	c.attempted++
	if err != nil {
		c.fail(fmt.Errorf("recommend %s: %w", t.name, err))
		return
	}
	c.issued[g.tenant]++
	rec := int64(t1.Sub(t0))
	if tr != nil {
		recSpan := tr.add(spServeRecommend, -1, req, int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
		// A cached stream answers a hit without its engine; the ticket then
		// carries no predictions.
		engine := !(t.cached && len(tk.Predicted) == 0 && t.kind != serve.PolicyRandom)
		if err := rp.recommend(tr, recSpan, req, g.tenant, s, engine); err != nil {
			c.fail(fmt.Errorf("replay recommend %s: %w", t.name, err))
		}
	}
	arm := tk.Arm
	if !c.checkArm(t, arm, tk.Hardware) {
		arm = 0
	}
	t1 = time.Now()
	err = svc.ObserveSeq(t.name, tk.Seq, s.rt[arm])
	t2 := time.Now()
	c.attempted++
	if err != nil {
		c.fail(fmt.Errorf("observe %s: %w", t.name, err))
		return
	}
	c.observed[g.tenant]++
	c.done(t2, rec, int64(t2.Sub(t1)), 1)
	c.q.note(g.tenant, in, s, arm, tk.Predicted, c.cu.pass, c.cu.k, c.plan.decisions)
	if tr != nil {
		obsSpan := tr.add(spServeObserve, -1, req, int64(t1.Sub(tr.epoch)), int64(t2.Sub(tr.epoch)))
		if err := rp.observe(tr, obsSpan, req, g.tenant, s, arm); err != nil {
			c.fail(fmt.Errorf("replay observe %s: %w", t.name, err))
		}
	}
}

// cursor walks a plan pass after pass.
type cursor struct {
	pos, pass, k int
}

// advance moves past group g.
func (cu *cursor) advance(pl *plan, g *group) {
	cu.k += len(g.steps)
	cu.pos++
	if cu.pos == len(pl.groups) {
		cu.pos, cu.pass, cu.k = 0, cu.pass+1, 0
	}
}

// runRounds drives do over the client's plan, whole rounds at a time,
// until the deadline has passed and the first pass (the quality window) is
// complete, or stop reports true at a round boundary.
func (c *client) runRounds(deadline time.Time, stop func() bool, do func(g *group)) {
	pl, cu := c.plan, &c.cu
	for {
		if cu.pos%pl.roundLen == 0 && cu.pass > 0 && (time.Now().After(deadline) || (stop != nil && stop())) {
			return
		}
		g := &pl.groups[cu.pos]
		do(g)
		cu.advance(pl, g)
	}
}

func runInproc(cfg config) (*result, error) {
	res := newResult("paper-inproc")
	apps := paperApps()
	pop := population(apps, scaled(inprocPerApp, cfg.scale, 12), cfg.seed, mix{adaptive: true, cached: true})
	in := generate(pop, apps, cfg.seed, 1, planSpec{rounds: inprocRounds})
	res.digest = in.digest(apps)
	issued, observed := make([]int64, len(pop)), make([]int64, len(pop))
	q := newQuality(pop, in)
	c := newClient(0, in.plans[0], issued, observed, q)
	createTimes := make([]float64, len(pop))
	var tk serve.Ticket
	var tr *tracer
	var rp *replayer
	if cfg.trace {
		tr = newTracer(time.Now())
		rp = newReplayer(pop, in)
	}
	base := liveHeap()

	// Set-up: build the service and create the whole population.
	var svc *serve.Service
	var setups []float64
	for rep := 0; rep < cfg.setups; rep++ {
		if svc != nil {
			svc.Close()
		}
		runtime.GC() // start each repetition from a collected heap
		t0 := time.Now()
		svc = serve.NewService(serve.ServiceOptions{})
		if err := createAll(svc, pop, createTimes); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.Close()

	step := func(g *group) { c.inprocStep(svc, in, g, &tk, nil, nil) }
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	ph := beginPhase()
	if !cfg.trace {
		c.sl = newSlicer(ph.start, seconds)
		c.runRounds(ph.start.Add(seconds), nil, step)
		st := ph.end(c.decisions)
		res.e2e["cpu_us_per_decision"] = st.cpu.Seconds() * 1e6 / float64(c.decisions)
		sliceE2E(res, []*client{c})
	} else {
		// Untraced half, then a traced half that ends early if the span
		// buffer fills.
		c.runRounds(ph.start.Add(seconds/2), nil, step)
		a := ph.end(c.decisions)
		allocLayer(res, a)
		before := svc.Stats()
		d0 := c.decisions
		pb := beginPhase()
		c.runRounds(pb.start.Add(seconds/2), tr.full, func(g *group) {
			c.inprocStep(svc, in, g, &tk, tr, rp)
		})
		b := pb.end(c.decisions - d0)
		res.layer["trace.overhead_pct"] = 100 * (a.rate()/b.rate() - 1)
		after := svc.Stats()
		cacheLayer(res, before, after)
		spanLayer(res, tr)
		if err := writeSpans(cfg.spanDir, fmt.Sprintf("paper-inproc-seed%d.tsv", cfg.seed), tr); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	svc.FlushObserves()
	res.attempted, res.failed = c.attempted, c.failed
	res.e2e["setup_s"] = medianOf(setups)
	latencyE2E(res, []*client{c})
	res.e2e["heap_bytes_per_stream"] = float64(int64(liveHeap())-int64(base)) / float64(len(pop))
	res.layer["serve.create_first_us"], res.layer["serve.create_last_us"] = createTenths(createTimes)

	// Checks.
	st := svc.Stats()
	res.checks = append(res.checks, checkAccounting("accounting.stats", st, pop, issued, observed))
	res.checks = append(res.checks, armCheck([]*client{c}))
	res.checks = append(res.checks, checkMethod(serviceModel(svc), q, in))
	qualityE2E(res, q, []*client{c}, apps, apps)
	res.layer["drift.detections"] = float64(st.TotalDriftEvents)

	restart, save, load, size, rc := restartTimes(svc, cfg.restarts)
	res.checks = append(res.checks, rc)
	restartLayer(res, restart, save, load, size, len(pop))
	return res, nil
}

// scaled returns n·scale, at least lo.
func scaled(n int, scale float64, lo int) int {
	return max(int(float64(n)*scale+0.5), lo)
}

// latencyE2E fills the latency metrics from the clients' samplers.
func latencyE2E(res *result, cs []*client) {
	var rec, obs []*sampler
	for _, c := range cs {
		rec = append(rec, c.rec)
		obs = append(obs, c.obs)
	}
	res.e2e["recommend_p50_us"] = percentile(0.50, rec...) / 1e3
	res.e2e["observe_p50_us"] = percentile(0.50, obs...) / 1e3
	res.notes = append(res.notes, fmt.Sprintf("latency samples: recommend %d, observe %d; whole-run p99 recommend %.4g us, observe %.4g us",
		count(rec...), count(obs...), percentile(0.99, rec...)/1e3, percentile(0.99, obs...)/1e3))
}

// qualityE2E merges the clients' quality accumulators into the learning
// metrics, and runs the learning check on the apps in learn.
func qualityE2E(res *result, q *quality, cs []*client, apps, learn []*app) {
	for _, c := range cs {
		q.merge(c.q)
	}
	res.e2e["regret_pct"] = q.all.pct()
	res.e2e["predict_rmse_s"] = q.err.value()
	res.notes = append(res.notes, fmt.Sprintf("prediction RMSE %.6g s over %d fitted-arm decisions", q.err.value(), q.err.n))
	res.notes = append(res.notes, fmt.Sprintf("quality window: %d decisions; regret %.4g%%, random choice would have had %.4g%%",
		q.all.n, q.all.pct(), q.all.randomPct()))
	for _, a := range apps {
		if g := q.last[a.name]; g != nil {
			res.notes = append(res.notes, fmt.Sprintf("learning %s: last-tenth regret %.2f%% vs random %.2f%% over %d decisions", a.name, g.pct(), g.randomPct(), g.n))
		}
	}
	res.checks = append(res.checks, checkLearning(q, learn)...)
}

// armCheck fails if any client saw a ticket whose arm did not index the
// stream's hardware set with the matching name.
func armCheck(cs []*client) check {
	for _, c := range cs {
		if c.badArm != "" {
			return check{"accounting.arms", fmt.Errorf("%s", c.badArm)}
		}
	}
	return check{"accounting.arms", nil}
}

// cacheLayer reports the recommendation-cache lookups made between two
// stats readings and the share that hit.
func cacheLayer(res *result, before, after serve.Stats) {
	hits := after.TotalCacheHits - before.TotalCacheHits
	lookups := hits + after.TotalCacheMisses - before.TotalCacheMisses + after.TotalCacheFallthroughs - before.TotalCacheFallthroughs
	res.layer["armset.cache_lookups"] = float64(lookups)
	if lookups > 0 {
		res.layer["armset.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
}

// spanLayer reports the per-layer call times from the traced spans: the
// median duration of each replayed call, and the median self time of the
// service calls (their span minus the replayed work beneath them).
func spanLayer(res *result, trs ...*tracer) {
	self, full := selfTimes(trs...), durations(trs...)
	for name, sp := range map[string]int{
		"regress.update_ns":  spRegressUpdate,
		"regress.predict_ns": spRegressPredict,
		"core.recommend_ns":  spCoreRecommend,
		"core.observe_ns":    spCoreObserve,
		"policy.select_ns":   spPolicySelect,
		"policy.update_ns":   spPolicyUpdate,
		"schema.encode_ns":   spSchemaEncode,
		"reward.score_ns":    spRewardScore,
		"drift.add_ns":       spDriftAdd,
	} {
		if len(full[sp]) > 0 {
			res.layer[name] = medianOf(full[sp])
		}
	}
	if len(self[spServeRecommend]) > 0 {
		res.layer["serve.recommend_ns"] = medianOf(self[spServeRecommend])
		res.layer["serve.observe_ns"] = medianOf(self[spServeObserve])
	}
}

// restartLayer reports the restart figures.
func restartLayer(res *result, restart, save, load []float64, size, streams int) {
	res.e2e["restart_s"] = medianOf(restart)
	res.layer["serve.save_s"] = medianOf(save)
	res.layer["serve.load_s"] = medianOf(load)
	res.layer["serve.snapshot_bytes_per_stream"] = float64(size) / float64(streams)
}
