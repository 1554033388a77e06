package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/route"
	"edgealloc/internal/serve"
)

// serveSpec is the open-loop serving workload: a fixed arrival schedule
// of slot advances sent over at most Conns client connections to an
// in-process edgerouter fronting Replicas in-process edged replicas with
// one solve worker each.
type serveSpec struct {
	tag     int64 // seed label
	I, J, T int   // session shape; a session is reborn after T slots
	mob     mobility
	// Population is the number of live sessions; each client connection
	// owns Population/Conns of them and advances them round-robin.
	Population int
	Conns      int
	Replicas   int
	// FixedRate (advances/s) sits below the knee: the open loop offers it
	// for the whole measured time.
	FixedRate float64
	// TailQ is the latency percentile reported at FixedRate.
	TailQ float64
	// Warmup runs at FixedRate before anything is recorded.
	Warmup time.Duration
	// SetupReps is how many times the cluster and its population are
	// set up; the median is reported and the last one measured.
	SetupReps int
	// QualityGens: the first QualityGens generations of every population
	// slot make up the fixed session set whose cost and ratio to the
	// lower bound are reported.
	QualityGens int
}

var streamSpec = serveSpec{
	tag: 3, I: 15, J: 6, T: 16, mob: mobility{Churn: 0.3},
	Population: 16, Conns: 2, Replicas: 2,
	FixedRate: 35, TailQ: 0.99,
	Warmup:      time.Second,
	SetupReps:   31,
	QualityGens: 4,
}

// cluster is one in-process edgerouter → edged deployment on loopback.
type cluster struct {
	replicas []string // base URLs
	servers  []*serve.Server
	https    []*http.Server
	done     sync.WaitGroup
	routerTr *http.Transport
	client   *http.Client
	base     string
}

// startCluster brings up the replicas and the router, wrapping their
// handlers with span recording when tr is non-nil.
func startCluster(spec serveSpec, tr *tracer) (*cluster, error) {
	c := &cluster{}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		c.https = append(c.https, hs)
		c.done.Add(1)
		go func() {
			defer c.done.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on close
		}()
		return "http://" + ln.Addr().String(), nil
	}
	for k := 0; k < spec.Replicas; k++ {
		srv := serve.New(serve.Config{Workers: 1})
		c.servers = append(c.servers, srv)
		url, err := listen(tr.wrap(srv.Handler(), "serve", k))
		if err != nil {
			c.close()
			return nil, err
		}
		c.replicas = append(c.replicas, url)
	}
	c.routerTr = &http.Transport{MaxIdleConnsPerHost: spec.Conns}
	rt, err := route.New(route.Config{
		Replicas: c.replicas,
		Client:   &http.Client{Transport: c.routerTr, Timeout: 2 * time.Minute},
	})
	if err != nil {
		c.close()
		return nil, err
	}
	if c.base, err = listen(tr.wrap(rt.Handler(), "route", 0)); err != nil {
		c.close()
		return nil, err
	}
	c.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: spec.Conns, MaxIdleConnsPerHost: spec.Conns},
		Timeout:   2 * time.Minute,
	}
	return c, nil
}

// close stops the HTTP servers and the daemons and waits for them.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range c.https {
		_ = hs.Shutdown(ctx) // best effort: nothing is in flight at teardown
	}
	c.done.Wait()
	for _, s := range c.servers {
		_ = s.Close() // stops the eviction janitor; no solve is in flight
	}
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	if c.routerTr != nil {
		c.routerTr.CloseIdleConnections()
	}
}

// do sends one request and decodes a JSON response into out (nil to
// discard), returning the status code.
func (c *cluster) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// tracer records the serving spans: the client's, and the router's and
// replicas' handler spans, linked through the session id in the path
// (one request per session is ever in flight).
type tracer struct {
	rec *recorder
	mu  sync.Mutex
	// open maps a session id to its in-flight traced request.
	open map[string]*openReq
}

type openReq struct {
	trace  int64
	parent int64 // the span the next hop's handler span hangs under
}

func newTracer(rec *recorder) *tracer {
	if rec == nil {
		return nil
	}
	return &tracer{rec: rec, open: map[string]*openReq{}}
}

// wrap records a span named layer+"."+kind around every traced request,
// tagged with the index of the server it ran on.
func (tr *tracer) wrap(h http.Handler, layer string, index int) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, kind := sessionOf(r)
		tr.mu.Lock()
		o := tr.open[id]
		tr.mu.Unlock()
		if o == nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.rec.begin(o.trace, o.parent, layer+"."+kind)
		tr.mu.Lock()
		o.parent = sp
		tr.mu.Unlock()
		h.ServeHTTP(w, r)
		tr.rec.end(sp, map[string]float64{"replica": float64(index)})
	})
}

// sessionOf names the session and kind of request: an "advance" carries
// the id in the path, a "create" in the body, which is read and put back.
func sessionOf(r *http.Request) (id, kind string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case r.Method == http.MethodPost && len(parts) == 2:
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			return "", ""
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
		var probe struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(raw, &probe) // a malformed body is the handler's to reject
		return probe.ID, "create"
	case len(parts) == 4 && parts[3] == "slots":
		return parts[2], "advance"
	}
	return "", ""
}

// track registers a traced request of session id under parent span.
func (tr *tracer) track(id string, trace, parent int64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.open[id] = &openReq{trace: trace, parent: parent}
	tr.mu.Unlock()
}

func (tr *tracer) untrack(id string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	delete(tr.open, id)
	tr.mu.Unlock()
}

// --- wire types (the subset of edged's API the workload reads) ---------

type slotReq struct {
	Slot        int       `json:"slot"`
	OpPrice     []float64 `json:"opPrice"`
	Attach      []int     `json:"attach"`
	AccessDelay []float64 `json:"accessDelay"`
}

type slotResp struct {
	Slot int  `json:"slot"`
	Done bool `json:"done"`
	Cost struct {
		SlotTotal float64 `json:"slotTotal"`
		RunTotal  float64 `json:"runTotal"`
	} `json:"cost"`
	Solve struct {
		Seconds         float64 `json:"seconds"`
		Converged       bool    `json:"converged"`
		InnerIterations int     `json:"innerIterations"`
	} `json:"solve"`
	Conformance *struct {
		OK           bool           `json:"ok"`
		Violations   map[string]int `json:"violations"`
		LowerBoundP0 float64        `json:"lowerBoundP0"`
	} `json:"conformance"`
}

// --- client-side sessions ----------------------------------------------

// session is one population slot's current generation as the client
// sees it.
type session struct {
	k, gen  int
	id      string
	inst    []byte   // the skeleton instance, JSON
	create  []byte   // create request body, once an id is assigned
	bodies  [][]byte // one advance request body per slot
	next    int
	created bool
	totals  []float64 // slotTotal per solved slot, from the responses
}

// finished is a session that ran its whole horizon.
type finished struct {
	k, gen     int
	totals     []float64
	runTotal   float64
	confOK     bool
	violations int
	lowerBound float64
}

func sessionSeed(seed int64, spec serveSpec, k, gen int) int64 {
	return mix(seed, spec.tag, int64(k), int64(gen))
}

// newSession draws population slot k's generation gen and encodes every
// advance it will send, so encoding stays outside the timed advances.
func newSession(spec serveSpec, seed int64, k, gen int) (*session, error) {
	skel, slots := sessionStream(sessionSeed(seed, spec, k, gen), spec.I, spec.J, spec.T, spec.mob)
	s := &session{k: k, gen: gen}
	var err error
	if s.inst, err = json.Marshal(skel); err != nil {
		return nil, err
	}
	for t, d := range slots {
		b, err := json.Marshal(slotReq{Slot: t, OpPrice: d.OpPrice, Attach: d.Attach, AccessDelay: d.AccessDelay})
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	return s, nil
}

// assign names s so that the router places it on the replica its client
// connection drives, and encodes its create request. Pinning each
// connection to one replica keeps two advances from queueing on one
// worker by chance: with placement left to the hash of the session id and
// the replicas' loopback ports, closed-loop throughput ranged from 99 to
// 179 advances/s over ten runs.
func (s *session) assign(spec serveSpec, replicas []string) error {
	target := replicas[(s.k%spec.Conns)%len(replicas)]
	for n := 0; ; n++ {
		s.id = fmt.Sprintf("p%d-g%d-%d", s.k, s.gen, n)
		if route.Owner(replicas, s.id) == target {
			break
		}
	}
	var err error
	s.create, err = json.Marshal(map[string]any{
		"id": s.id, "instance": json.RawMessage(s.inst), "horizon": spec.T,
	})
	return err
}

// --- the open loop -----------------------------------------------------

// arrival is one scheduled advance.
type arrival struct {
	seq   int64
	phase int // -1 warm-up, 0 measured
	due   time.Time
	sent  time.Time // when the generator released it
}

// outcome is what one arrival measured.
type outcome struct {
	arrival
	start     time.Time // request sent
	done      time.Time // response read
	ok        bool
	solveMs   float64
	inner     int // FISTA iterations of the solve
	converged bool
	last      bool // the session's final slot (conformance oracle ran)
	traced    bool
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// loop runs the open loop over an up cluster and its live population.
type loop struct {
	spec serveSpec
	seed int64
	c    *cluster
	tr   *tracer
	mu   sync.Mutex
	out  []outcome
	fin  []finished
	// requests and requestFails count the creates and deletes of rebirths.
	requests, requestFails int
	errs                   []string // first few failure details
	workers                []*worker
}

// note keeps the first few failure details for the report.
func (l *loop) note(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// request counts one create or delete and whether it failed.
func (l *loop) request(failed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests++
	if failed {
		l.requestFails++
	}
}

// worker is one client connection's share of the sessions, advanced
// round-robin.
type worker struct {
	own  []*session
	next int
}

func (w *worker) session() *session {
	s := w.own[w.next%len(w.own)]
	w.next++
	return s
}

// split deals the population out to the client connections.
func (l *loop) split(pop []*session) {
	l.workers = make([]*worker, l.spec.Conns)
	for k := range l.workers {
		l.workers[k] = &worker{}
	}
	for k, s := range pop {
		w := l.workers[k%len(l.workers)]
		w.own = append(w.own, s)
	}
}

// openLoop offers FixedRate for the warm-up and then for fixed, and
// returns once every arrival has completed.
func (l *loop) openLoop(fixed time.Duration) {
	rate := l.spec.FixedRate
	warm := int(rate * l.spec.Warmup.Seconds())
	total := warm + int(rate*fixed.Seconds())
	// Buffered for the whole schedule so the generator never blocks on
	// a backlog: arrivals wait in the channel, timed from when due.
	ch := make(chan arrival, total)
	var wg sync.WaitGroup
	for _, w := range l.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for a := range ch {
				l.advance(w.session(), a)
			}
		}(w)
	}
	start := time.Now().Add(10 * time.Millisecond)
	for k := 0; k < total; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		phase := 0
		if k < warm {
			phase = -1
		}
		ch <- arrival{seq: int64(k), phase: phase, due: due, sent: time.Now()}
	}
	close(ch)
	wg.Wait()
}

// advance sends session s's next slot, and on the final slot records the
// session and replaces it with its next generation.
func (l *loop) advance(s *session, a arrival) {
	o := outcome{arrival: a}
	defer func() {
		l.mu.Lock()
		l.out = append(l.out, o)
		l.mu.Unlock()
	}()
	if !s.created && !l.create(s) {
		o.done = time.Now()
		return // the arrival is lost: a failed advance
	}
	// Three advances in four, drawn by a hash of the sequence number so
	// that the choice does not follow the connection, are traced: enough
	// for the per-layer tails. The untraced fourth measure the tracing
	// overhead.
	o.traced = l.tr != nil && uint64(mix(0, a.seq))%4 != 0
	var root, rtt int64
	if o.traced {
		root = l.tr.rec.beginAt(a.seq, 0, "advance", a.due)
		q := l.tr.rec.beginAt(a.seq, root, "client.queue", a.due)
		l.tr.rec.end(q, nil)
		rtt = l.tr.rec.begin(a.seq, root, "client.rtt")
		l.tr.track(s.id, a.seq, rtt)
	}
	var resp slotResp
	o.start = time.Now()
	status, err := l.c.do(http.MethodPost, "/v1/sessions/"+s.id+"/slots", s.bodies[s.next], &resp)
	o.done = time.Now()
	if o.traced {
		l.tr.untrack(s.id)
		l.tr.rec.end(rtt, nil)
		l.tr.rec.end(root, map[string]float64{"solve_s": resp.Solve.Seconds})
	}
	if err != nil || status != http.StatusOK {
		l.note("advance %s slot %d: status %d: %v", s.id, s.next, status, err)
		return
	}
	if resp.Slot != s.next {
		l.note("advance %s: answered slot %d, sent %d", s.id, resp.Slot, s.next)
		return
	}
	o.ok, o.solveMs, o.inner, o.converged = true, resp.Solve.Seconds*1e3, resp.Solve.InnerIterations, resp.Solve.Converged
	s.totals = append(s.totals, resp.Cost.SlotTotal)
	s.next++
	if !resp.Done {
		return
	}
	o.last = true
	f := finished{k: s.k, gen: s.gen, totals: s.totals, runTotal: resp.Cost.RunTotal}
	if c := resp.Conformance; c != nil {
		f.confOK, f.lowerBound = c.OK, c.LowerBoundP0
		for _, n := range c.Violations {
			f.violations += n
		}
	}
	l.mu.Lock()
	l.fin = append(l.fin, f)
	l.mu.Unlock()
	// Rebirth: drop the finished session and set up the next generation,
	// created before its first advance so that advance times a solve.
	status, err = l.c.do(http.MethodDelete, "/v1/sessions/"+s.id, nil, nil)
	l.request(err != nil || status != http.StatusNoContent)
	if err != nil || status != http.StatusNoContent {
		l.note("delete %s: status %d: %v", s.id, status, err)
	}
	ns, err := newSession(l.spec, l.seed, s.k, s.gen+1)
	if err == nil {
		err = ns.assign(l.spec, l.c.replicas)
	}
	if err != nil {
		l.note("drawing session: %v", err)
		return
	}
	*s = *ns
	l.create(s)
}

// create registers s with the router.
func (l *loop) create(s *session) bool {
	var sp int64
	if l.tr != nil {
		trace := createTrace + int64(s.k)<<20 + int64(s.gen)
		sp = l.tr.rec.begin(trace, 0, "client.create")
		l.tr.track(s.id, trace, sp)
	}
	status, err := l.c.do(http.MethodPost, "/v1/sessions", s.create, nil)
	if l.tr != nil {
		l.tr.untrack(s.id)
		l.tr.rec.end(sp, nil)
	}
	s.created = err == nil && status == http.StatusCreated
	l.request(!s.created)
	if !s.created {
		l.note("create %s: status %d: %v", s.id, status, err)
	}
	return s.created
}

// createTrace offsets the trace ids of session creates from those of
// advances, which are the arrival sequence numbers.
const createTrace = int64(1) << 40

// setupCluster brings up a cluster and creates the initial population,
// timing both.
func setupCluster(spec serveSpec, seed int64, tr *tracer) (*cluster, []*session, float64, error) {
	pop := make([]*session, spec.Population)
	for k := range pop {
		s, err := newSession(spec, seed, k, 0)
		if err != nil {
			return nil, nil, 0, err
		}
		pop[k] = s
	}
	t0 := time.Now()
	c, err := startCluster(spec, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, s := range pop {
		if err := s.assign(spec, c.replicas); err != nil {
			c.close()
			return nil, nil, 0, err
		}
		status, err := c.do(http.MethodPost, "/v1/sessions", s.create, nil)
		if err != nil || status != http.StatusCreated {
			c.close()
			return nil, nil, 0, fmt.Errorf("creating %s: status %d: %v", s.id, status, err)
		}
		s.created = true
	}
	return c, pop, time.Since(t0).Seconds(), nil
}

// serveRun measures the serve-stream workload.
func serveRun(spec serveSpec, seed int64, seconds float64, rec *recorder) (*runReport, error) {
	tr := newTracer(rec)
	rep := &runReport{}
	var (
		setups []float64
		c      *cluster
		pop    []*session
	)
	for r := 0; r < spec.SetupReps; r++ {
		cl, p, s, err := setupCluster(spec, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s)
		if r < spec.SetupReps-1 {
			cl.close()
			continue
		}
		c, pop = cl, p
	}
	l := &loop{spec: spec, seed: seed, c: c, tr: tr}
	l.split(pop)
	gc0 := readGC()
	l.openLoop(secs(seconds))
	gcFrac := readGC().since(gc0)
	rejected, err := rejectedByReason(c)
	c.close()
	if err != nil {
		return nil, err
	}
	peak := peakHeapMB()

	if len(l.errs) > 0 {
		rep.info("failure_details", "count", float64(len(l.errs)), len(l.errs), strings.Join(l.errs, "; "))
	}
	l.report(rep, setups, peak)
	replays, err := verifySessions(l.fin, spec, seed, rec != nil)
	if err != nil {
		return nil, err
	}
	reportSessions(rep, l.fin, replays, spec)
	if rec == nil {
		return rep, nil
	}
	var (
		eps   []episodeResult
		slots []slotSample
	)
	for _, r := range replays {
		eps = append(eps, r.ep)
		slots = append(slots, r.slots...)
	}
	solverLayers(rep, eps, slots, spec.J, 0, "in-process replay of the served sessions")
	rep.layer("runtime.gc_cpu_frac", "ratio", gcFrac, 1, "GC CPU / total CPU over the open loop")
	l.layers(rep, rec, rejected)
	return rep, nil
}

// rejectedByReason sums edged's shed counters over the replicas.
func rejectedByReason(c *cluster) (map[string]float64, error) {
	out := map[string]float64{}
	for _, s := range c.servers {
		var buf bytes.Buffer
		if err := s.Registry().WritePrometheus(&buf); err != nil {
			return nil, err
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			const prefix = `edgealloc_serve_rejected_total{reason="`
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			rest := strings.TrimPrefix(line, prefix)
			q := strings.Index(rest, `"}`)
			if q < 0 {
				continue
			}
			var v float64
			if _, err := fmt.Sscan(strings.TrimSpace(rest[q+2:]), &v); err == nil {
				out[rest[:q]] += v
			}
		}
	}
	return out, nil
}

// report adds the serving end-to-end metrics, measured at the fixed rate.
func (l *loop) report(rep *runReport, setups []float64, peak float64) {
	var lat, late []float64
	attempted, failed, converged, solved := len(l.out)+l.requests, l.requestFails, 0, 0
	busy := 0.0 // seconds a connection waited on a fixed-rate advance
	var solveMs, inner []float64
	for _, o := range l.out {
		if !o.ok {
			failed++
			continue
		}
		solved++
		if o.converged {
			converged++
		}
		if o.phase == 0 {
			lat = append(lat, float64(o.done.Sub(o.due).Nanoseconds())/1e6)
			late = append(late, float64(o.sent.Sub(o.due).Nanoseconds())/1e6)
			busy += o.done.Sub(o.start).Seconds()
			solveMs = append(solveMs, o.solveMs)
			inner = append(inner, float64(o.inner))
		}
	}
	rep.Attempted, rep.Failed = attempted, failed
	rate := l.spec.FixedRate
	tail, ok := percentile(lat, l.spec.TailQ)
	rep.check(fmt.Sprintf("%d advances at %g/s support a p%g", len(lat), rate, 100*l.spec.TailQ), ok, nil)
	lateTail, _ := percentile(late, l.spec.TailQ)
	rep.check(fmt.Sprintf("generator kept its schedule at %g/s (p%g lateness %.2f ms ≤ %g ms)", rate, 100*l.spec.TailQ, lateTail, maxLateMs),
		lateTail <= maxLateMs, nil)

	rep.e2e("setup_s", "s", median(setups), len(setups), "median of replicas + router + initial sessions over set-ups")
	rep.e2e("latency_ms_mean", "ms", sum(lat)/float64(len(lat)), len(lat),
		fmt.Sprintf("mean advance latency at %g/s, timed from the scheduled send", rate))
	rep.e2e("decisions_per_s", "1/s", float64(l.spec.Conns)*float64(len(lat))/busy, len(lat),
		fmt.Sprintf("service rate at %g/s: connections × advances per second a connection is waiting on one", rate))
	rep.e2e("success_frac", "ratio", 1-float64(failed)/float64(attempted), attempted, "1 − failed/attempted over advances, creates and deletes (429, 5xx, transport errors)")
	rep.e2e("peak_heap_mb", "MB", peak, 1, "high-water heap obtained from the OS (MemStats.HeapSys), client and servers together")
	rep.info("advance_ms_p50", "ms", median(lat), len(lat), fmt.Sprintf("median advance latency at %g/s, timed from the scheduled send", rate))
	rep.info(fmt.Sprintf("advance_ms_p%g", 100*l.spec.TailQ), "ms", tail, len(lat), "the same, the highest percentile the sample supports")
	rep.info("served_solve_ms_mean", "ms", sum(solveMs)/float64(len(solveMs)), len(solveMs), "mean solve.seconds of the advances at the fixed rate")
	rep.info("served_inner_per_advance", "count", sum(inner)/float64(len(inner)), len(inner), "mean solve.innerIterations (deterministic per seed); solve time per iteration separates the host's speed from the inputs'")
	rep.info("fail_frac", "ratio", float64(failed)/float64(attempted), attempted, "")
	rep.info("nonconverged_advances", "count", float64(solved-converged), solved, "advances whose solve did not meet its tolerances")
	rep.info(fmt.Sprintf("gen.late_ms_p%g", 100*l.spec.TailQ), "ms", lateTail, len(late), "generator lateness at the fixed rate")
}

// maxLateMs is how late the generator may release an arrival (at
// TailQ, at the fixed rate) before the run is invalid.
const maxLateMs = 25.0

// layers adds the serving per-layer metrics of a traced run, from the
// spans of every traced advance after the warm-up, and the tracing
// overhead.
func (l *loop) layers(rep *runReport, rec *recorder, rejected map[string]float64) {
	type hops struct{ rtt, route, serve *span }
	byTrace := map[int64]*hops{}
	spans := rec.closed()
	var create []float64
	for k := range spans {
		s := &spans[k]
		h := byTrace[s.Trace]
		if h == nil {
			h = &hops{}
			byTrace[s.Trace] = h
		}
		switch s.Name {
		case "client.rtt":
			h.rtt = s
		case "route.advance":
			h.route = s
		case "serve.advance":
			h.serve = s
		case "serve.create":
			create = append(create, durMs(*s))
		}
	}
	var solve, wait, finish, hop, rtt, tracedLat, plainLat []float64
	perReplica := map[float64]int{}
	for _, o := range l.out {
		if o.phase < 0 || !o.ok {
			continue
		}
		lat := float64(o.done.Sub(o.due).Nanoseconds()) / 1e6
		if !o.traced {
			plainLat = append(plainLat, lat)
			continue
		}
		tracedLat = append(tracedLat, lat)
		h := byTrace[o.seq]
		if h == nil || h.rtt == nil || h.route == nil || h.serve == nil {
			continue
		}
		solve = append(solve, o.solveMs)
		hop = append(hop, durMs(*h.route)-durMs(*h.serve))
		rtt = append(rtt, durMs(*h.rtt)-durMs(*h.route))
		if o.last {
			finish = append(finish, durMs(*h.serve)-o.solveMs)
		} else {
			wait = append(wait, durMs(*h.serve)-o.solveMs)
		}
		perReplica[h.serve.Attrs["replica"]]++
	}
	busiest := 0
	for _, n := range perReplica {
		busiest = max(busiest, n)
	}
	q := func(v []float64, p float64) float64 {
		x, _ := percentile(v, p)
		return x
	}
	rep.info("serve.solve_ms_p50", "ms", median(solve), len(solve), "response solve.seconds")
	rep.info("serve.solve_ms_p99", "ms", q(solve, 0.99), len(solve), "NaN when the sample cannot support a p99")
	rep.info("serve.wait_ms_p50", "ms", median(wait), len(wait), "replica handler time − solve (queue wait, decode, cost accounting, encode), final slots excluded")
	rep.info("serve.wait_ms_p99", "ms", q(wait, 0.99), len(wait), "NaN when the sample cannot support a p99")
	rep.info("serve.finish_ms_p50", "ms", median(finish), len(finish), "final slot's replica handler time − solve (the conformance oracle)")
	rep.info("serve.create_ms_p50", "ms", median(create), len(create), "replica handler time of session creates")
	for _, reason := range []string{"queue-full", "queue-wait", "client-gone", "session-queue", "sessions-full"} {
		rep.info("serve.rejected."+reason, "count", rejected[reason], 1, "edgealloc_serve_rejected_total, both replicas")
	}
	rep.info("route.hop_ms_p50", "ms", median(hop), len(hop), "router handler time − replica handler time")
	rep.info("route.hop_ms_p99", "ms", q(hop, 0.99), len(hop), "NaN when the sample cannot support a p99")
	rep.info("route.replica_share_max", "ratio", float64(busiest)/float64(max(len(hop), 1)), len(hop), "busiest replica's share of advances")
	rep.info("net.rtt_ms_p50", "ms", median(rtt), len(rtt), "client round trip − router handler time")
	solved, converged := 0, 0
	for _, o := range l.out {
		if o.ok {
			solved++
			if o.converged {
				converged++
			}
		}
	}
	rep.layer("core.converged_frac", "ratio", float64(converged)/float64(max(solved, 1)), solved, "served advances whose solve met its tolerances")
	traceOverhead(rep, tracedLat, plainLat, "advance latency at the fixed rate, one advance in four untraced")
}

func durMs(s span) float64 { return float64(s.End-s.Start) / 1e6 }

// replayed is one completed session run again in process.
type replayed struct {
	ep         episodeResult
	slots      []slotSample
	mismatches int
	firstErr   error // first cost mismatch or failed check
}

// verifyWorkers is the replay parallelism, one per CPU of the 2-CPU
// reference host.
const verifyWorkers = 2

// verifySessions replays every completed session in process with the
// options edged gives a session that sends none, and compares each
// slot's cost with the one the server answered. measure adds allocation
// counts, taken one replay at a time so that no other replay's
// allocations land in a slot's figures.
func verifySessions(fin []finished, spec serveSpec, seed int64, measure bool) ([]replayed, error) {
	out := make([]replayed, len(fin))
	errs := make([]error, len(fin))
	workers := verifyWorkers
	if measure {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				out[k], errs[k] = replaySession(fin[k], spec, seed, measure)
			}
		}()
	}
	for k := range fin {
		next <- k
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func replaySession(f finished, spec serveSpec, seed int64, measure bool) (replayed, error) {
	var r replayed
	skel, slots := sessionStream(sessionSeed(seed, spec, f.k, f.gen), spec.I, spec.J, spec.T, spec.mob)
	in, err := fullInstance(skel, slots)
	if err != nil {
		return r, err
	}
	name := fmt.Sprintf("p%d-g%d", f.k, f.gen)
	alg := core.NewOnlineApprox(in, core.Options{})
	prev := in.InitialAlloc()
	var ms0, ms1 runtime.MemStats
	for t := 0; t < in.T; t++ {
		if measure {
			runtime.ReadMemStats(&ms0)
		}
		ts := time.Now()
		x, err := alg.StepCtx(context.Background(), t)
		s := slotSample{wallMs: msSince(ts), traced: measure}
		if err != nil {
			return r, fmt.Errorf("replaying %s slot %d: %w", name, t, err)
		}
		if measure {
			runtime.ReadMemStats(&ms1)
			s.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			s.allocs = float64(ms1.Mallocs - ms0.Mallocs)
		}
		s.diag = alg.LastStepDiag()
		if s.diag.Converged {
			r.ep.converged++
		}
		r.slots = append(r.slots, s)
		op, sq := in.SlotStatic(t, x)
		rc, mg := in.SlotDynamic(prev, x)
		if got := in.Total(model.Breakdown{Op: op, Sq: sq, Rc: rc, Mg: mg}); got != f.totals[t] {
			r.mismatches++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("session %s slot %d: served slotTotal %v, in-process %v", name, t, f.totals[t], got)
			}
		}
		prev = x
	}
	r.ep.slots = in.T
	if err := finishEpisode(in, alg, &r.ep, nil, 0); err != nil {
		return r, fmt.Errorf("checking replay of %s: %w", name, err)
	}
	if r.firstErr == nil && r.ep.checkErr != nil {
		r.firstErr = fmt.Errorf("session %s: %w", name, r.ep.checkErr)
	}
	return r, nil
}

// reportSessions adds the checks and quality metrics of the completed
// sessions and their replays.
func reportSessions(rep *runReport, fin []finished, replays []replayed, spec serveSpec) {
	serverViolations, notOK := 0, 0
	var costSum, lbSum float64
	quality := 0
	for _, f := range fin {
		serverViolations += f.violations
		if !f.confOK {
			notOK++
		}
		if f.gen < spec.QualityGens {
			costSum += f.runTotal
			lbSum += f.lowerBound
			quality++
		}
	}
	mismatches, violations, capMax := 0, 0, 0.0
	var firstErr error
	for _, r := range replays {
		mismatches += r.mismatches
		violations += r.ep.violations
		capMax = math.Max(capMax, r.ep.capLoadMax)
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	want := spec.Population * spec.QualityGens
	var confErr error
	if notOK > 0 {
		confErr = fmt.Errorf("%d sessions not OK, %d violations", notOK, serverViolations)
	}
	rep.check(fmt.Sprintf("every completed session (%d) reports conformance OK", len(fin)),
		notOK == 0 && len(fin) > 0, confErr)
	rep.check(fmt.Sprintf("served slotTotal equals an in-process core.OnlineApprox replay on every slot (%d mismatches), and every replay is conform-clean, passes CheckFeasible(%g) and costs above its certified lower bound",
		mismatches, feasTol), firstErr == nil, firstErr)
	rep.check(fmt.Sprintf("quality set complete: %d of %d sessions", quality, want), quality == want, nil)
	rep.e2e("cost", "cost", costSum/float64(max(quality, 1)), quality,
		fmt.Sprintf("mean weighted P0 cost of the first %d generations of every session slot", spec.QualityGens))
	rep.e2e("ratio_to_lb", "ratio", costSum/lbSum, quality, "served cost / server-certified LowerBoundP0, summed over the same sessions")
	rep.e2e("cap_overrun", "ratio", math.Max(1, capMax), len(replays), "max(1, max load/capacity) of the replayed schedules, equal in cost to the served ones")
	rep.info("completed_sessions", "count", float64(len(fin)), len(fin), "")
	rep.info("conform_violations", "count", float64(serverViolations+violations), len(fin), "server oracle + in-process replay")
}
