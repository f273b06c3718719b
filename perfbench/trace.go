package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"banditware/internal/core"
	"banditware/internal/drift"
	"banditware/internal/policy"
	"banditware/internal/regress"
	"banditware/internal/reward"
	"banditware/internal/schema"
	"banditware/internal/serve"
)

// Span names. A span wraps one call the benchmark makes into a layer.
const (
	spServeRecommend = iota
	spServeObserve
	spSchemaEncode
	spCoreRecommend
	spCoreObserve
	spPolicySelect
	spPolicyUpdate
	spRegressPredict
	spRegressUpdate
	spRewardScore
	spDriftAdd
	spServeBatch
	spHTTPRecommend
	spHTTPObserve
	spHTTPRecommendBatch
	spHTTPObserveBatch
	spHandlerRecommend
	spHandlerObserve
	spHandlerRecommendBatch
	spHandlerObserveBatch
	spRouted
	spDirect
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"serve.recommend", "serve.observe", "schema.encode", "core.recommend", "core.observe",
	"policy.select", "policy.update", "regress.predict", "regress.update", "reward.score",
	"drift.add", "serve.batch", "http.recommend", "http.observe", "http.recommend_batch",
	"http.observe_batch", "handler.recommend", "handler.observe", "handler.recommend_batch",
	"handler.observe_batch", "dist.routed", "dist.direct",
}

// span is one traced call: its name, start and end (ns since the tracer's
// epoch), the span that caused it, and the request it belongs to.
type span struct {
	name       uint8
	parent     int32 // -1 for a root span
	req        uint32
	start, end int64
}

// spanCap bounds each tracer's in-memory spans. The traced phase ends at
// the first round boundary after a tracer is seven-eighths full; the rest
// is headroom for the round in flight.
const spanCap = 1 << 18

// tracer keeps one client's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, spanCap)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) full() bool { return len(tr.spans) >= spanCap/8*7 }

// add records a span and returns its index (its id as a parent).
func (tr *tracer) add(name int, parent int32, req uint32, start, end int64) int32 {
	tr.spans = append(tr.spans, span{uint8(name), parent, req, start, end})
	return int32(len(tr.spans) - 1)
}

// selfTimes returns, per span name, every span's duration minus the
// durations of its child spans. Replayed calls carry the service span
// they replay as parent: they ran after it, not inside it, but they
// repeat work the service did inside its span, so their durations are
// what the subtraction removes.
func selfTimes(trs ...*tracer) [numSpanNames][]float64 {
	var out [numSpanNames][]float64
	for _, tr := range trs {
		child := make([]int64, len(tr.spans))
		for _, s := range tr.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range tr.spans {
			out[s.name] = append(out[s.name], float64(s.end-s.start-child[i]))
		}
	}
	return out
}

// durations returns, per span name, every span's full duration.
func durations(trs ...*tracer) [numSpanNames][]float64 {
	var out [numSpanNames][]float64
	for _, tr := range trs {
		for _, s := range tr.spans {
			out[s.name] = append(out[s.name], float64(s.end-s.start))
		}
	}
	return out
}

// writeSpans writes every span as a tab-separated line under dir.
func writeSpans(dir, file string, trs ...*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client\tspan\tname\tparent\trequest\tstart_ns\tend_ns")
	for c, tr := range trs {
		for i, s := range tr.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", c, i, spanNames[s.name], s.parent, s.req, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianOf returns the median of vs, or NaN when empty.
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return nan
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	return median(c)
}

// replay mirrors one tenant in the layers below serve. In the traced phase
// every decision's inputs are replayed through the public functions of
// schema, core or policy, regress, reward and drift, each call in its own
// span whose parent is the service call it mirrors.
type replay struct {
	enc    *schema.Encoder
	encBuf []float64
	bandit *core.Bandit
	dec    core.Decision
	pol    policy.Policy
	rls    []*regress.RLS
	det    []*drift.PageHinkley
	score  reward.Func
}

// replayDetector is the serving layer's default detector tuning: default
// Page-Hinkley parameters with a 20-sample warmup.
var replayDetector = drift.Config{Warmup: 20}

func newReplay(t *tenant) (*replay, error) {
	dim := len(t.app.features)
	n := len(t.app.hw)
	rp := &replay{}
	if s := t.schema(); s != nil {
		rp.enc = s.Compile()
	}
	forget, window := 1.0, 0
	switch t.adapt {
	case serve.AdaptWindow:
		window = t.adaptSpec().Window
	case serve.AdaptForgetting:
		forget = t.adaptSpec().Factor
	}
	var err error
	switch t.kind {
	case serve.PolicyAlgorithm1:
		opts := core.Options{Alpha: t.alpha, Seed: t.seed, WindowSize: window}
		if forget < 1 {
			opts.ForgettingFactor = forget
		}
		rp.bandit, err = core.New(t.app.hw, dim, opts)
	case serve.PolicyLinUCB:
		rp.pol, err = policy.NewLinUCB(n, dim, 1)
	case serve.PolicyLinTS:
		rp.pol, err = policy.NewLinTS(n, dim, 1, t.seed)
	case serve.PolicyEpsGreedy:
		rp.pol, err = policy.NewFixedEpsilonGreedy(n, dim, 0.1, t.seed)
	case serve.PolicyGreedy:
		rp.pol, err = policy.NewGreedy(n, dim)
	case serve.PolicySoftmax:
		rp.pol, err = policy.NewSoftmax(n, dim, 1, t.seed)
	case serve.PolicyRandom:
		rp.pol, err = policy.NewRandom(n, dim, t.seed)
	}
	if err != nil {
		return nil, err
	}
	if ad, ok := rp.pol.(policy.Adaptive); ok && t.adapt != serve.AdaptNone {
		if err := ad.SetAdaptation(forget, window); err != nil {
			return nil, err
		}
	}
	for a := 0; a < n; a++ {
		var r *regress.RLS
		if forget < 1 {
			r, err = regress.NewRLSForgetting(dim, 0, forget)
		} else {
			r, err = regress.NewRLS(dim, 0)
		}
		if err != nil {
			return nil, err
		}
		d, err := drift.New(replayDetector)
		if err != nil {
			return nil, err
		}
		rp.rls = append(rp.rls, r)
		rp.det = append(rp.det, d)
	}
	rp.score, _, err = reward.Compile(reward.Spec{Type: t.reward})
	return rp, err
}

// replayer holds the replays of one client's tenants.
type replayer struct {
	pop      []tenant
	in       *inputs
	byTenant map[int32]*replay
}

func newReplayer(pop []tenant, in *inputs) *replayer {
	return &replayer{pop: pop, in: in, byTenant: map[int32]*replay{}}
}

func (r *replayer) get(ti int32) (*replay, error) {
	if rp := r.byTenant[ti]; rp != nil {
		return rp, nil
	}
	rp, err := newReplay(&r.pop[ti])
	if err != nil {
		return nil, err
	}
	r.byTenant[ti] = rp
	return rp, nil
}

// recommend replays a recommend's encoding and engine selection as
// children of the service span parent.
func (r *replayer) recommend(tr *tracer, parent int32, req uint32, ti int32, s *step, engine bool) error {
	t := &r.pop[ti]
	rp, err := r.get(ti)
	if err != nil {
		return err
	}
	p := r.in.pools[t.app.name]
	x := p.xs[s.ctx]
	if rp.enc != nil {
		t0 := tr.now()
		rp.encBuf, err = rp.enc.EncodeInto(p.named[s.ctx], rp.encBuf[:0])
		tr.add(spSchemaEncode, parent, req, t0, tr.now())
		if err != nil {
			return err
		}
		x = rp.encBuf
	}
	if !engine {
		return nil // served from the recommendation cache
	}
	t0 := tr.now()
	if rp.bandit != nil {
		err = rp.bandit.RecommendInto(x, &rp.dec)
		tr.add(spCoreRecommend, parent, req, t0, tr.now())
	} else {
		_, err = rp.pol.Select(x)
		tr.add(spPolicySelect, parent, req, t0, tr.now())
	}
	return err
}

// observe replays an observe of runtime on arm. The engine update is a
// child of the service span; the chosen arm's RLS prediction and update
// (the regression the engine runs on) are children of the engine span;
// reward scoring and the drift detector are children of the service span.
func (r *replayer) observe(tr *tracer, parent int32, req uint32, ti int32, s *step, arm int) error {
	t := &r.pop[ti]
	rp, err := r.get(ti)
	if err != nil {
		return err
	}
	x := r.in.pools[t.app.name].xs[s.ctx]
	if rp.enc != nil {
		x = rp.encBuf // the encoding of this decision's context
	}
	t0 := tr.now()
	score := rp.score(reward.Outcome{Runtime: s.rt[arm]}, t.app.hw[arm])
	tr.add(spRewardScore, parent, req, t0, tr.now())
	t0 = tr.now()
	var engine int32
	if rp.bandit != nil {
		err = rp.bandit.Observe(arm, x, score)
		engine = tr.add(spCoreObserve, parent, req, t0, tr.now())
	} else {
		err = rp.pol.Update(arm, x, score)
		engine = tr.add(spPolicyUpdate, parent, req, t0, tr.now())
	}
	if err != nil || t.kind == serve.PolicyRandom {
		return err
	}
	t0 = tr.now()
	pred := rp.rls[arm].Predict(x)
	t1 := tr.now()
	tr.add(spRegressPredict, engine, req, t0, t1)
	rp.det[arm].Add(score - pred)
	t2 := tr.now()
	tr.add(spDriftAdd, parent, req, t1, t2)
	err = rp.rls[arm].Update(x, score)
	tr.add(spRegressUpdate, engine, req, t2, tr.now())
	return err
}
