package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"banditware"
	"banditware/internal/schema"
	"banditware/internal/serve"
)

// http-mixed: a Service behind banditware.NewServiceServer on loopback, in
// this process. Two closed-loop keep-alive clients each own half of the
// streams; nine in ten request groups are single recommend→observe pairs
// and one in ten is a recommend/batch plus observe/batch of eight
// decisions. The JSON codec and net/http dominate; the engine is a small
// share.

const (
	httpPerApp     = 128 // tenants per application
	httpRounds     = 80  // rounds in each client's quality window
	httpBatchEvery = 10
	httpBatchSize  = 8
	httpClients    = 2 // closed-loop clients, one connection each (nproc here)
)

// requestHeader carries the client's request id to the traced server
// handler, so handler spans join the client's round-trip spans.
const requestHeader = "X-Perfbench-Request"

// httpCaller is one keep-alive HTTP client with reusable buffers.
type httpCaller struct {
	hc   *http.Client
	base string
	req  []byte
	resp bytes.Buffer
}

func newHTTPCaller(base string) *httpCaller {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpCaller{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (h *httpCaller) close() { h.hc.CloseIdleConnections() }

// errStatus reports a non-2xx response.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends body (nil for GET) to path and decodes the JSON answer into out.
// reqID, when non-zero, is passed to the server in requestHeader.
func (h *httpCaller) do(method, path string, body []byte, reqID uint64, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != 0 {
		req.Header.Set(requestHeader, strconv.FormatUint(reqID, 10))
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	h.resp.Reset()
	_, err = h.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &errStatus{resp.StatusCode, string(bytes.TrimSpace(h.resp.Bytes()))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(h.resp.Bytes(), out)
}

// wireTicket is the part of a ticket the benchmark reads.
type wireTicket struct {
	ID        string    `json:"id"`
	Arm       int       `json:"arm"`
	Hardware  string    `json:"hardware"`
	Predicted []float64 `json:"predicted"`
}

type wireTickets struct {
	Tickets []wireTicket `json:"tickets"`
}

type wireApplied struct {
	Applied int `json:"applied"`
}

// appendContext appends step s's context in the tenant's wire form: named
// for schema'd tenants, raw features otherwise.
func appendContext(b []byte, t *tenant, p *pool, s *step) []byte {
	x := p.xs[s.ctx]
	if t.raw {
		b = append(b, '[')
		for i, v := range x {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		return append(b, ']')
	}
	b = append(b, '{')
	for i, f := range t.app.features {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, f)
		b = append(b, ':')
		b = strconv.AppendFloat(b, x[i], 'g', -1, 64)
	}
	return append(b, '}')
}

// recommendBody is the single recommend request for step s.
func recommendBody(b []byte, t *tenant, p *pool, s *step) []byte {
	if t.raw {
		b = append(b, `{"features":`...)
	} else {
		b = append(b, `{"context":`...)
	}
	return append(appendContext(b, t, p, s), '}')
}

// observeBody redeems ticket id with runtime rt.
func observeBody(b []byte, id string, rt float64) []byte {
	b = append(b, `{"ticket":`...)
	b = strconv.AppendQuote(b, id)
	b = append(b, `,"runtime":`...)
	b = strconv.AppendFloat(b, rt, 'g', -1, 64)
	return append(b, '}')
}

// reqID is the id of the client's next call, sent to the server in
// requestHeader when tracing (0 otherwise): the client number in the high
// bits, the call count in the low 32.
func (c *client) reqID(tr *tracer) uint64 {
	if tr == nil {
		return 0
	}
	return uint64(c.id+1)<<40 | uint64(uint32(c.attempted+1))
}

// httpStep sends one group over HTTP: a single pair, or a batch pair.
// With a tracer, each round trip is a span and single decisions are
// replayed through the layers below serve.
func (c *client) httpStep(h *httpCaller, in *inputs, g *group, tr *tracer, rp *replayer, mirror *serve.Service) {
	t := &in.pop[g.tenant]
	p := in.pools[t.app.name]
	if g.batch {
		c.httpBatch(h, in, g, t, p, tr, mirror)
		return
	}
	req := c.reqID(tr)
	s := &g.steps[0]
	var tk wireTicket
	h.req = recommendBody(h.req[:0], t, p, s)
	t0 := time.Now()
	err := h.do(http.MethodPost, "/v1/streams/"+t.name+"/recommend", h.req, req, &tk)
	t1 := time.Now()
	c.attempted++
	if err != nil {
		c.fail(fmt.Errorf("recommend %s: %w", t.name, err))
		return
	}
	c.issued[g.tenant]++
	rec := int64(t1.Sub(t0))
	if tr != nil {
		name := spHTTPRecommend
		if c.via == spDirect {
			name = spDirect
		}
		sp := tr.add(name, -1, uint32(req), int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
		if c.via == spRouted {
			tr.add(spRouted, -1, uint32(req), int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
		}
		if err := rp.recommend(tr, sp, uint32(req), g.tenant, s, true); err != nil {
			c.fail(fmt.Errorf("replay recommend %s: %w", t.name, err))
		}
	}
	arm := tk.Arm
	if !c.checkArm(t, arm, tk.Hardware) {
		arm = 0
	}
	h.req = observeBody(h.req[:0], tk.ID, s.rt[arm])
	oreq := c.reqID(tr)
	t1 = time.Now()
	err = h.do(http.MethodPost, "/v1/observe", h.req, oreq, nil)
	t2 := time.Now()
	c.attempted++
	if err != nil {
		c.fail(fmt.Errorf("observe %s: %w", tk.ID, err))
		return
	}
	c.observed[g.tenant]++
	c.q.note(g.tenant, in, s, arm, tk.Predicted, c.cu.pass, c.cu.k, c.plan.decisions)
	c.done(t2, rec, int64(t2.Sub(t1)), 1)
	if tr != nil {
		sp := int32(-1)
		if c.via != spDirect {
			sp = tr.add(spHTTPObserve, -1, uint32(oreq), int64(t1.Sub(tr.epoch)), int64(t2.Sub(tr.epoch)))
		}
		if err := rp.observe(tr, sp, uint32(oreq), g.tenant, s, arm); err != nil {
			c.fail(fmt.Errorf("replay observe %s: %w", t.name, err))
		}
	}
}

// httpBatch sends a recommend/batch for the group's contexts and redeems
// every ticket in one observe/batch. With a mirror service (traced runs),
// the same contexts go through the mirror's batch calls in-process.
func (c *client) httpBatch(h *httpCaller, in *inputs, g *group, t *tenant, p *pool, tr *tracer, mirror *serve.Service) {
	req := c.reqID(tr)
	b := h.req[:0]
	if t.raw {
		b = append(b, `{"batch":[`...)
	} else {
		b = append(b, `{"contexts":[`...)
	}
	for i := range g.steps {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendContext(b, t, p, &g.steps[i])
	}
	h.req = append(b, "]}"...)
	var ts wireTickets
	t0 := time.Now()
	err := h.do(http.MethodPost, "/v1/streams/"+t.name+"/recommend/batch", h.req, req, &ts)
	t1 := time.Now()
	c.attempted++
	if err != nil {
		c.fail(fmt.Errorf("recommend batch %s: %w", t.name, err))
		return
	}
	c.issued[g.tenant] += int64(len(ts.Tickets))
	if len(ts.Tickets) != len(g.steps) {
		c.fail(fmt.Errorf("recommend batch %s: %d tickets for %d contexts", t.name, len(ts.Tickets), len(g.steps)))
		return
	}
	seen := make(map[string]bool, len(ts.Tickets))
	b = append(h.req[:0], `{"observations":[`...)
	arms := make([]int, len(ts.Tickets))
	for i, tk := range ts.Tickets {
		if seen[tk.ID] && c.badArm == "" {
			c.badArm = fmt.Sprintf("%s: batch returned ticket %s twice", t.name, tk.ID)
		}
		seen[tk.ID] = true
		arms[i] = tk.Arm
		if !c.checkArm(t, tk.Arm, tk.Hardware) {
			arms[i] = 0
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = observeBody(b, tk.ID, g.steps[i].rt[arms[i]])
	}
	h.req = append(b, "]}"...)
	var ap wireApplied
	oreq := c.reqID(tr)
	t2 := time.Now()
	err = h.do(http.MethodPost, "/v1/streams/"+t.name+"/observe/batch", h.req, oreq, &ap)
	t3 := time.Now()
	c.attempted++
	if err == nil && ap.Applied != len(ts.Tickets) {
		err = fmt.Errorf("applied %d of %d", ap.Applied, len(ts.Tickets))
	}
	if err != nil {
		c.fail(fmt.Errorf("observe batch %s: %w", t.name, err))
		return
	}
	c.observed[g.tenant] += int64(len(ts.Tickets))
	for i, tk := range ts.Tickets {
		c.q.note(g.tenant, in, &g.steps[i], arms[i], tk.Predicted, c.cu.pass, c.cu.k+i, c.plan.decisions)
	}
	c.done(t3, -1, -1, len(ts.Tickets))
	if tr != nil {
		tr.add(spHTTPRecommendBatch, -1, uint32(req), int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
		tr.add(spHTTPObserveBatch, -1, uint32(oreq), int64(t2.Sub(tr.epoch)), int64(t3.Sub(tr.epoch)))
		if err := mirrorBatch(tr, mirror, g, t, p, uint32(req)); err != nil {
			c.fail(fmt.Errorf("mirror batch %s: %w", t.name, err))
		}
	}
}

// mirrorBatch sends a batch group's contexts through an in-process
// service's batch calls and records the pair's time, split evenly over its
// decisions as serve.batch spans, so the service's batch cost is timed
// apart from HTTP.
func mirrorBatch(tr *tracer, svc *serve.Service, g *group, t *tenant, p *pool, req uint32) error {
	var ts []serve.Ticket
	var err error
	var t0 int64
	if t.raw {
		xs := make([][]float64, len(g.steps))
		for i := range g.steps {
			xs[i] = p.xs[g.steps[i].ctx]
		}
		t0 = tr.now()
		ts, err = svc.RecommendBatch(t.name, xs)
	} else {
		ctxs := make([]schema.Context, len(g.steps))
		for i := range g.steps {
			ctxs[i] = p.named[g.steps[i].ctx]
		}
		t0 = tr.now()
		ts, err = svc.RecommendBatchCtx(t.name, ctxs)
	}
	if err != nil {
		return err
	}
	obs := make([]serve.TicketObservation, len(ts))
	for i, tk := range ts {
		obs[i] = serve.TicketObservation{TicketID: tk.ID, Runtime: g.steps[i].rt[tk.Arm]}
	}
	if _, err := svc.ObserveBatch(obs); err != nil {
		return err
	}
	t1 := tr.now()
	per := (t1 - t0) / int64(len(ts))
	for i := range ts {
		tr.add(spServeBatch, -1, req, t0+int64(i)*per, t0+int64(i+1)*per)
	}
	return nil
}

// traceHandler wraps a handler so that, for requests carrying
// requestHeader, each ServeHTTP call is a span in the tracer of the
// client that sent it. Every client uses one keep-alive connection, so
// one client's requests are served one after another and each server
// tracer is written by one goroutine at a time.
func traceHandler(h http.Handler, trs []*tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(requestHeader), 10, 64)
		if err != nil || id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		tr := trs[int(id>>40)-1]
		t0 := tr.now()
		h.ServeHTTP(w, r)
		tr.add(handlerSpan(r.URL.Path), -1, uint32(id), t0, tr.now())
	})
}

// handlerSpan names the handler span of a serving route.
func handlerSpan(path string) int {
	switch {
	case strings.HasSuffix(path, "/recommend/batch"):
		return spHandlerRecommendBatch
	case strings.HasSuffix(path, "/observe/batch"):
		return spHandlerObserveBatch
	case strings.HasSuffix(path, "/recommend"):
		return spHandlerRecommend
	}
	return spHandlerObserve
}

// httpServer is a service behind banditware.NewServiceServer on a loopback
// ephemeral port.
type httpServer struct {
	srv  *http.Server
	addr string
	done chan error
}

func startServer(svc *serve.Service, wrap func(http.Handler) http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := banditware.NewServiceServer(svc)
	if wrap != nil {
		srv.Handler = wrap(srv.Handler)
	}
	s := &httpServer{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

func (s *httpServer) url() string { return "http://" + s.addr }

// close shuts the server down and waits for Serve to return.
func (s *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// runClients runs one goroutine per client over its plan until the deadline
// (whole rounds, first pass complete) or until stop reports true.
func runClients(cs []*client, deadline time.Time, stop func(c *client) bool, step func(c *client, g *group)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st func() bool
			if stop != nil {
				st = func() bool { return stop(c) }
			}
			c.runRounds(deadline, st, func(g *group) { step(c, g) })
		}()
	}
	wg.Wait()
}

func runHTTPMixed(cfg config) (*result, error) {
	res := newResult("http-mixed")
	apps := paperApps()
	pop := population(apps, scaled(httpPerApp, cfg.scale, 4), cfg.seed, mix{adaptive: true, cached: true})
	in := generate(pop, apps, cfg.seed, httpClients, planSpec{rounds: httpRounds, batchEvery: httpBatchEvery, batchSize: httpBatchSize})
	res.digest = in.digest(apps)
	issued, observed := make([]int64, len(pop)), make([]int64, len(pop))
	q := newQuality(pop, in)
	var cs []*client
	var srvTracers []*tracer
	epoch := time.Now()
	for i, pl := range in.plans {
		c := newClient(i, pl, issued, observed, q)
		if cfg.trace {
			c.tr = newTracer(epoch)
			srvTracers = append(srvTracers, newTracer(epoch))
		}
		cs = append(cs, c)
	}
	createTimes := make([]float64, len(pop))
	base := liveHeap()

	var wrap func(http.Handler) http.Handler
	if cfg.trace {
		wrap = func(h http.Handler) http.Handler { return traceHandler(h, srvTracers) }
	}
	var svc *serve.Service
	var srv *httpServer
	var setups []float64
	for rep := 0; rep < cfg.setups; rep++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
			svc.Close()
		}
		runtime.GC() // start each repetition from a collected heap
		t0 := time.Now()
		svc = serve.NewService(serve.ServiceOptions{})
		if err := createAll(svc, pop, createTimes); err != nil {
			return nil, err
		}
		var err error
		if srv, err = startServer(svc, wrap); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	callers := make([]*httpCaller, len(cs))
	for i := range callers {
		callers[i] = newHTTPCaller(srv.url())
	}
	defer func() {
		for _, h := range callers {
			h.close()
		}
	}()

	step := func(c *client, g *group) { c.httpStep(callers[c.id], in, g, nil, nil, nil) }
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	ph := beginPhase()
	decided := func() int64 {
		n := int64(0)
		for _, c := range cs {
			n += c.decisions
		}
		return n
	}
	if !cfg.trace {
		for _, c := range cs {
			c.sl = newSlicer(ph.start, seconds)
		}
		runClients(cs, ph.start.Add(seconds), nil, step)
		st := ph.end(decided())
		res.e2e["cpu_us_per_decision"] = st.cpu.Seconds() * 1e6 / float64(st.decisions)
		sliceE2E(res, cs)
	} else {
		runClients(cs, ph.start.Add(seconds/2), nil, step)
		a := ph.end(decided())
		allocLayer(res, a)
		mirror := serve.NewService(serve.ServiceOptions{})
		if err := createAll(mirror, pop, nil); err != nil {
			return nil, fmt.Errorf("mirror: %w", err)
		}
		rps := make([]*replayer, len(cs))
		for i := range rps {
			rps[i] = newReplayer(pop, in)
		}
		before := svc.Stats()
		d0 := decided()
		pb := beginPhase()
		runClients(cs, pb.start.Add(seconds/2), func(c *client) bool { return c.tr.full() || srvTracers[c.id].full() },
			func(c *client, g *group) { c.httpStep(callers[c.id], in, g, c.tr, rps[c.id], mirror) })
		b := pb.end(decided() - d0)
		res.layer["trace.overhead_pct"] = 100 * (a.rate()/b.rate() - 1)
		cacheLayer(res, before, svc.Stats())
		var ctrs []*tracer
		for _, c := range cs {
			ctrs = append(ctrs, c.tr)
		}
		spanLayer(res, ctrs...)
		httpLayer(res, ctrs, srvTracers)
		if v := medianOf(durations(ctrs...)[spServeBatch]); v == v {
			res.layer["serve.batch_ns_per_decision"] = v
		}
		allocs, err := handlerAllocs(mirror, pop, in)
		if err != nil {
			return nil, err
		}
		res.layer["http.handler_allocs_per_request"] = allocs
		mirror.Close()
		if err := writeSpans(cfg.spanDir, fmt.Sprintf("http-mixed-seed%d.tsv", cfg.seed), append(ctrs, srvTracers...)...); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
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

	// Checks: the in-process Stats and GET /v1/stats must both agree with
	// what the clients sent.
	st := svc.Stats()
	res.checks = append(res.checks, checkAccounting("accounting.stats", st, pop, issued, observed))
	res.layer["drift.detections"] = float64(st.TotalDriftEvents)
	var wire serve.Stats
	err := callers[0].do(http.MethodGet, "/v1/stats", nil, 0, &wire)
	if err != nil {
		res.checks = append(res.checks, check{"accounting.http_stats", err})
	} else {
		res.checks = append(res.checks, checkAccounting("accounting.http_stats", wire, pop, issued, observed))
	}
	res.checks = append(res.checks, armCheck(cs))
	res.checks = append(res.checks, checkMethod(serviceModel(svc), q, in))
	qualityE2E(res, q, cs, apps, apps)
	for _, h := range callers {
		h.close()
	}
	res.checks = append(res.checks, check{"hygiene.server_closed", closeAndVerify(srv)})

	restart, save, load, size, rc := restartTimes(svc, cfg.restarts)
	res.checks = append(res.checks, rc)
	restartLayer(res, restart, save, load, size, len(pop))
	svc.Close()
	return res, nil
}

// closeAndVerify shuts a server down and checks its port no longer accepts.
func closeAndVerify(s *httpServer) error {
	if err := s.close(); err != nil {
		return err
	}
	return verifyClosed(s.addr)
}

// verifyClosed fails if any of the addresses still accepts connections.
func verifyClosed(addrs ...string) error {
	for _, a := range addrs {
		if conn, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			conn.Close()
			return fmt.Errorf("%s still accepts connections after close", a)
		}
	}
	return nil
}

// httpLayer reports, per route, the median round trip seen by the clients,
// the median time in the wrapped handler, and the median per-request
// difference between the two (the transport: client, connection and
// net/http server machinery).
func httpLayer(res *result, clients, servers []*tracer) {
	rtt := [...]int{spHTTPRecommend, spHTTPObserve, spHTTPRecommendBatch, spHTTPObserveBatch}
	hnd := [...]int{spHandlerRecommend, spHandlerObserve, spHandlerRecommendBatch, spHandlerObserveBatch}
	for i, route := range httpRoutes {
		var rtts, hs, diffs []float64
		for c := range clients {
			handled := map[uint32]float64{}
			for _, s := range servers[c].spans {
				if int(s.name) == hnd[i] {
					handled[s.req] = float64(s.end - s.start)
					hs = append(hs, float64(s.end-s.start))
				}
			}
			for _, s := range clients[c].spans {
				if int(s.name) != rtt[i] {
					continue
				}
				rtts = append(rtts, float64(s.end-s.start))
				if h, ok := handled[s.req]; ok {
					diffs = append(diffs, float64(s.end-s.start)-h)
				}
			}
		}
		if len(rtts) == 0 || len(hs) == 0 {
			continue
		}
		res.layer["http."+route+".rtt_p50_us"] = medianOf(rtts) / 1e3
		res.layer["http."+route+".handler_p50_us"] = medianOf(hs) / 1e3
		res.layer["http."+route+".transport_p50_us"] = medianOf(diffs) / 1e3
	}
}

// handlerAllocs counts the allocations of the serving handler alone: n
// recommend and n observe requests served by ServeHTTP into response
// recorders, with the requests built beforehand.
func handlerAllocs(svc *serve.Service, pop []tenant, in *inputs) (float64, error) {
	const n = 200
	h := serve.NewHandler(svc)
	build := func(path string, body []byte) (*http.Request, *httptest.ResponseRecorder) {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		return r, httptest.NewRecorder()
	}
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		t := &pop[i%len(pop)]
		s := &step{ctx: int32(i % poolSize)}
		reqs[i], recs[i] = build("/v1/streams/"+t.name+"/recommend", recommendBody(nil, t, in.pools[t.app.name], s))
	}
	m0 := readMem()
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	m1 := readMem()
	for i := range reqs {
		var tk wireTicket
		if recs[i].Code != http.StatusOK {
			return 0, fmt.Errorf("handler recommend: HTTP %d: %s", recs[i].Code, recs[i].Body.String())
		}
		if err := json.Unmarshal(recs[i].Body.Bytes(), &tk); err != nil {
			return 0, err
		}
		reqs[i], recs[i] = build("/v1/observe", observeBody(nil, tk.ID, 100))
	}
	m2 := readMem()
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	m3 := readMem()
	for i := range reqs {
		if recs[i].Code != http.StatusOK {
			return 0, fmt.Errorf("handler observe: HTTP %d: %s", recs[i].Code, recs[i].Body.String())
		}
	}
	// ReadMemStats itself allocates nothing, so the deltas are the handler's.
	return float64(m1.mallocs-m0.mallocs+m3.mallocs-m2.mallocs) / (2 * n), nil
}
