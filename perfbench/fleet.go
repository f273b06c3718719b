package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"banditware/internal/dist"
	"banditware/internal/schema"
	"banditware/internal/serve"
)

// fleet-tenants: several thousand tenant streams with flat popularity
// behind dist.NewLocalFleet — two replicas and the router, in this
// process on loopback. Background sync loops are off; the benchmark runs
// SyncAll every syncEvery decisions and ends with a replica restart.
// Registry writes and state movement dominate: the create broadcast, the
// router hop, delta capture and apply, and snapshot bootstrap.

const (
	fleetPerApp = 1024 // tenants per application
	fleetRounds = 12   // rounds in each client's quality window
	// fleetAlpha is the fleet tenants' Algorithm 1 ε decay: a tenant sees
	// about a dozen decisions per run, so its exploration fades in a few
	// observations instead of the paper's hundreds.
	fleetAlpha    = 0.8
	fleetReplicas = 2
	fleetClients  = 2
	syncEvery     = 4000 // decisions between sync rounds
)

// createBody is the POST /v1/streams request for a tenant.
type createBody struct {
	Name     string           `json:"name"`
	Hardware []wireHardware   `json:"hardware"`
	Dim      int              `json:"dim,omitempty"`
	Schema   *schema.Schema   `json:"schema,omitempty"`
	Policy   serve.PolicySpec `json:"policy"`
	Reward   serve.RewardSpec `json:"reward"`
	Cache    *serve.CacheSpec `json:"cache,omitempty"`
	Alpha    float64          `json:"alpha,omitempty"`
}

type wireHardware struct {
	Name     string  `json:"name"`
	CPUs     int     `json:"cpus"`
	MemoryGB float64 `json:"memory_gb"`
}

func createRequest(t *tenant) ([]byte, error) {
	cfg := t.config()
	b := createBody{Name: t.name, Dim: cfg.Dim, Schema: cfg.Schema, Policy: cfg.Policy, Reward: cfg.Reward, Cache: cfg.Cache, Alpha: t.alpha}
	for _, h := range t.app.hw {
		b.Hardware = append(b.Hardware, wireHardware{h.Name, h.CPUs, h.MemoryGB})
	}
	return json.Marshal(b)
}

// fleetSetup starts a fleet and creates the population through the router
// with one creator per client, recording each create's round trip.
func fleetSetup(pop []tenant, bodies [][]byte, times []float64) (*dist.LocalFleet, error) {
	f, err := dist.NewLocalFleet(dist.FleetOptions{
		Replicas:     fleetReplicas,
		SyncInterval: -1,
		// The router's membership is checked explicitly (at start and
		// after the restart); background polling could re-ring streams
		// mid-run if a probe timed out on a busy machine.
		PollInterval: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, fleetClients)
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := newHTTPCaller(f.RouterURL())
			defer h.close()
			for i := c; i < len(pop); i += fleetClients {
				t0 := time.Now()
				if err := h.do(http.MethodPost, "/v1/streams", bodies[i], 0, nil); err != nil {
					errs[c] = fmt.Errorf("creating %s: %w", pop[i].name, err)
					return
				}
				times[i] = time.Since(t0).Seconds()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

func runFleet(cfg config) (*result, error) {
	res := newResult("fleet-tenants")
	apps := paperApps()
	pop := population(apps, scaled(fleetPerApp, cfg.scale, 8), cfg.seed, mix{cached: true, alpha: fleetAlpha})
	in := generate(pop, apps, cfg.seed, fleetClients, planSpec{rounds: fleetRounds})
	res.digest = in.digest(apps)
	bodies := make([][]byte, len(pop))
	for i := range pop {
		b, err := createRequest(&pop[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	issued, observed := make([]int64, len(pop)), make([]int64, len(pop))
	q := newQuality(pop, in)
	var cs []*client
	epoch := time.Now()
	for i, pl := range in.plans {
		c := newClient(i, pl, issued, observed, q)
		if cfg.trace {
			c.tr = newTracer(epoch)
		}
		cs = append(cs, c)
	}
	createTimes := make([]float64, len(pop))
	base := liveHeap()

	var f *dist.LocalFleet
	var setups []float64
	for rep := 0; rep < cfg.setups; rep++ {
		if f != nil {
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // start each repetition from a collected heap
		t0 := time.Now()
		var err error
		if f, err = fleetSetup(pop, bodies, createTimes); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			f.Close()
		}
	}()
	urls := f.ReplicaURLs()
	ring := dist.NewRing(urls, 0)
	router := make([]*httpCaller, len(cs))
	direct := make([]map[string]*httpCaller, len(cs))
	for i := range cs {
		router[i] = newHTTPCaller(f.RouterURL())
		direct[i] = map[string]*httpCaller{}
		for _, u := range urls {
			direct[i][u] = newHTTPCaller(u)
		}
	}
	closeCallers := func() {
		for i := range cs {
			router[i].close()
			for _, h := range direct[i] {
				h.close()
			}
		}
	}
	defer closeCallers()

	// Sync rounds run inline, one at a time, every syncEvery decisions.
	var syncMu sync.Mutex
	var decided atomic.Int64
	var syncTimes []float64
	var syncErr error
	syncAll := func() {
		syncMu.Lock()
		defer syncMu.Unlock()
		t0 := time.Now()
		if err := f.SyncAll(); err != nil && syncErr == nil {
			syncErr = err
		}
		syncTimes = append(syncTimes, time.Since(t0).Seconds())
	}
	after := func(c *client, before int64) {
		n := decided.Add(c.decisions - before)
		if n/syncEvery != (n-(c.decisions-before))/syncEvery {
			syncAll()
		}
	}
	step := func(c *client, g *group) {
		d := c.decisions
		c.httpStep(router[c.id], in, g, nil, nil, nil)
		after(c, d)
	}
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	ph := beginPhase()
	if !cfg.trace {
		for _, c := range cs {
			c.sl = newSlicer(ph.start, seconds)
		}
		runClients(cs, ph.start.Add(seconds), nil, step)
		st := ph.end(decided.Load())
		res.e2e["cpu_us_per_decision"] = st.cpu.Seconds() * 1e6 / float64(st.decisions)
		sliceE2E(res, cs)
	} else {
		runClients(cs, ph.start.Add(seconds/2), nil, step)
		a := ph.end(decided.Load())
		allocLayer(res, a)
		rps := make([]*replayer, len(cs))
		for i := range rps {
			rps[i] = newReplayer(pop, in)
		}
		d0 := decided.Load()
		pb := beginPhase()
		runClients(cs, pb.start.Add(seconds/2), func(c *client) bool { return c.tr.full() }, func(c *client, g *group) {
			d := c.decisions
			c.httpStep(router[c.id], in, g, c.tr, rps[c.id], nil)
			after(c, d)
		})
		b := pb.end(decided.Load() - d0)
		res.layer["trace.overhead_pct"] = 100 * (a.rate()/b.rate() - 1)
		// One more round per client alternates between the router and the
		// stream's owner, found through dist.Ring: the difference of their
		// round trips is the router hop.
		var wg sync.WaitGroup
		for _, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < c.plan.roundLen; i++ {
					g := &c.plan.groups[c.cu.pos]
					h := router[c.id]
					c.via = spRouted
					if i%2 == 1 {
						h, c.via = direct[c.id][ring.Owner(in.pop[g.tenant].name)], spDirect
					}
					d := c.decisions
					c.httpStep(h, in, g, c.tr, rps[c.id], nil)
					after(c, d)
					c.cu.advance(c.plan, g)
				}
				c.via = -1
			}()
		}
		wg.Wait()
		var ctrs []*tracer
		for _, c := range cs {
			ctrs = append(ctrs, c.tr)
		}
		spanLayer(res, ctrs...)
		d := durations(ctrs...)
		res.layer["dist.router_hop_us"] = (medianOf(d[spRouted]) - medianOf(d[spDirect])) / 1e3
		res.layer["http.recommend.rtt_p50_us"] = medianOf(d[spHTTPRecommend]) / 1e3
		res.layer["http.observe.rtt_p50_us"] = medianOf(d[spHTTPObserve]) / 1e3
		if err := writeSpans(cfg.spanDir, fmt.Sprintf("fleet-tenants-seed%d.tsv", cfg.seed), ctrs...); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	syncAll() // the final round
	for _, c := range cs {
		res.attempted += c.attempted
		res.failed += c.failed
		if c.firstErr != nil {
			res.notes = append(res.notes, fmt.Sprintf("client %d first error: %v", c.id, c.firstErr))
		}
	}
	res.e2e["setup_s"] = medianOf(setups)
	latencyE2E(res, cs)
	res.e2e["heap_bytes_per_stream"] = float64(int64(liveHeap())-int64(base)) / float64(len(pop))
	res.layer["serve.create_first_us"], res.layer["serve.create_last_us"] = createTenths(createTimes)
	res.layer["dist.create_broadcast_us"] = meanOfRange(createTimes, 0, len(createTimes)) * 1e6
	res.layer["dist.sync_rounds"] = float64(len(syncTimes))
	res.layer["dist.sync_round_ms"] = medianOf(syncTimes) * 1e3
	res.notes = append(res.notes, fmt.Sprintf("sync rounds: %d", len(syncTimes)))
	res.checks = append(res.checks, check{"fleet.sync", syncErr})

	// Checks: after the final sync round every replica holds every
	// stream's full history.
	svc0 := f.Replica(0).Service()
	for r := 0; r < fleetReplicas; r++ {
		res.checks = append(res.checks, checkAccounting(fmt.Sprintf("fleet.replica%d", r), f.Replica(r).Service().Stats(), pop, issued, observed))
		res.checks = append(res.checks, checkRounds(fmt.Sprintf("fleet.replica%d_rounds", r), f.Replica(r).Service(), pop, observed))
	}
	res.checks = append(res.checks, armCheck(cs))
	res.checks = append(res.checks, checkMethod(serviceModel(svc0), q, in))
	// A fleet tenant sees about a dozen decisions: enough to learn Cycles'
	// two parameters per arm, not MatMul's five, so only Cycles is held to
	// beating a random choice here.
	qualityE2E(res, q, cs, apps, apps[:1])
	res.layer["drift.detections"] = float64(svc0.Stats().TotalDriftEvents)
	_, save, load, size, rc := restartTimes(svc0, 1)
	res.checks = append(res.checks, rc)
	res.layer["serve.save_s"], res.layer["serve.load_s"] = save[0], load[0]
	res.layer["serve.snapshot_bytes_per_stream"] = float64(size) / float64(len(pop))

	// Restart: kill replica 1 and bring it back through peer bootstrap
	// until the router serves from it again.
	var restarts, boots []float64
	for rep := 0; rep < cfg.restarts; rep++ {
		if err := f.Kill(1); err != nil {
			return nil, err
		}
		f.Router().CheckNow()
		runtime.GC()
		t0 := time.Now()
		if err := f.Restart(1); err != nil {
			return nil, fmt.Errorf("restarting replica 1: %w", err)
		}
		t1 := time.Now()
		if n := len(f.Router().CheckNow()); n != fleetReplicas {
			return nil, fmt.Errorf("router sees %d ready replicas after the restart", n)
		}
		restarts = append(restarts, time.Since(t0).Seconds())
		boots = append(boots, t1.Sub(t0).Seconds())
	}
	res.e2e["restart_s"] = medianOf(restarts)
	res.layer["dist.bootstrap_s"] = medianOf(boots)
	res.checks = append(res.checks, checkPeers(svc0, f.Replica(1).Service(), pop))

	closeCallers()
	closed = true
	res.checks = append(res.checks, check{"hygiene.fleet_closed", closeFleet(f, append(urls, f.RouterURL()))})
	return res, nil
}

// checkRounds: every stream's engine absorbed exactly the observations the
// benchmark sent it.
func checkRounds(name string, svc *serve.Service, pop []tenant, observed []int64) check {
	for i := range pop {
		r, err := svc.Round(pop[i].name)
		if err != nil {
			return check{name, err}
		}
		if int64(r) != observed[i] {
			return check{name, fmt.Errorf("stream %s: %d rounds, benchmark sent %d observations", pop[i].name, r, observed[i])}
		}
	}
	return check{name, nil}
}

// checkPeers: the restarted replica matches its peer, stream by stream —
// counts, rounds, and every arm's model.
func checkPeers(a, b *serve.Service, pop []tenant) check {
	const name = "fleet.restarted_matches_peer"
	for i := range pop {
		t := &pop[i]
		ia, err := a.StreamInfo(t.name)
		if err != nil {
			return check{name, err}
		}
		ib, err := b.StreamInfo(t.name)
		if err != nil {
			return check{name, err}
		}
		if ia.Round != ib.Round || ia.Issued != ib.Issued || ia.Observed != ib.Observed {
			return check{name, fmt.Errorf("stream %s: round/issued/observed %d/%d/%d on the peer, %d/%d/%d restarted",
				t.name, ia.Round, ia.Issued, ia.Observed, ib.Round, ib.Issued, ib.Observed)}
		}
		if t.kind == serve.PolicyRandom {
			continue
		}
		for arm := range t.app.hw {
			ma, errA := a.Model(t.name, arm)
			mb, errB := b.Model(t.name, arm)
			if errA != nil || errB != nil {
				return check{name, fmt.Errorf("stream %s arm %d: %v / %v", t.name, arm, errA, errB)}
			}
			if ma.Bias != mb.Bias || len(ma.Weights) != len(mb.Weights) {
				return check{name, fmt.Errorf("stream %s arm %d: models differ", t.name, arm)}
			}
			for k := range ma.Weights {
				if ma.Weights[k] != mb.Weights[k] && !(math.IsNaN(ma.Weights[k]) && math.IsNaN(mb.Weights[k])) {
					return check{name, fmt.Errorf("stream %s arm %d: models differ", t.name, arm)}
				}
			}
		}
	}
	return check{name, nil}
}

// closeFleet closes the fleet and checks that none of its listeners still
// accepts connections.
func closeFleet(f *dist.LocalFleet, urls []string) error {
	if err := f.Close(); err != nil {
		return err
	}
	addrs := make([]string, len(urls))
	for i, u := range urls {
		addrs[i] = strings.TrimPrefix(u, "http://")
	}
	return verifyClosed(addrs...)
}
