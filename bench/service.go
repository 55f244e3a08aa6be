package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wexp"
)

// The service workload runs wexpd in-process behind a loopback HTTP
// listener. An open-loop phase sends a seeded Poisson stream
// of requests at a fixed rate and times each from when it was due; a
// closed-loop phase then measures capacity on the same mix with fresh
// keys. Writes run beside reads, so a cache change that slows uploads
// shows.

// serviceMix fixes the classes of each block of 20 requests (their order
// within a block is seeded): 75% hits on primed keys, 15% misses on fresh
// keys, 10% uploads, half of them duplicates.
var serviceMix = [20]string{
	"hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit",
	"hit", "hit", "hit", "hit", "hit",
	"miss-broadcast", "miss-spokesman", "miss-expansion", "upload", "upload-dup",
}

// missModels are the receive rules of broadcast misses.
var missModels = []string{"unit-disk", "fading:0.25", "sinr", "multi:4"}

// missExpansion are the (objective, size cap) pairs of expansion misses;
// primed keys use (ordinary, 2), so every pair here is a fresh key. With
// poolGraphs graphs they make the fresh keys of poolGraphs × 10 blocks.
var missExpansion = []struct {
	obj  string
	maxK int
}{
	{"unique", 3}, {"edge", 3}, {"ordinary", 3}, {"wireless", 2}, {"unique", 4},
	{"edge", 4}, {"ordinary", 4}, {"wireless", 3}, {"unique", 2}, {"edge", 2},
}

// serviceMaxGraphs bounds the service's graph store far above the
// graphs a run uploads. The store is memory-only: a durable store would
// put two fsyncs of the disk under the checkout on every new upload
// (about 60 ms per upload there, against 0.3 ms on tmpfs), and the benchmark
// writes nowhere else.
const serviceMaxGraphs = 1 << 16

// serviceScale sizes the service workload.
type serviceScale struct {
	// poolGraphs small graphs are uploaded at set-up: the targets of
	// duplicate uploads and expansion misses.
	poolGraphs int
	primed     int // hit keys, computed at set-up
	// Every tenth new upload is a list of bigN vertices and bigM edges
	// (about 0.7 MB at full scale); the others are small graphs.
	bigN, bigM int
	// rate is the open-loop rate in requests per second, about a seventh
	// of the closed-loop capacity on a 2-core machine. Over ten runs its
	// median latency spread 5%; at 4000 requests/s, 40% of capacity,
	// queueing on the two connections made it spread 12%.
	rate float64
	// openShare of the run's seconds is the open-loop phase; the rest
	// bounds the capacity phase.
	openShare float64
	// capacityRequests is the capacity phase's request count. It is fixed
	// so that the graphs a run uploads, and so its memory, do not grow
	// with the machine's speed.
	capacityRequests int
}

var serviceFull = serviceScale{
	poolGraphs: 512, primed: 256,
	bigN: 20_000, bigM: 58_000,
	rate: 1500, openShare: 2.0 / 3, capacityRequests: 20_000,
}

// capacityConns × capacityInFlight requests are in flight in the capacity
// phase; every phase uses at most capacityConns connections.
const (
	capacityConns    = 2
	capacityInFlight = 8
)

type poolGraph struct {
	body   []byte
	digest string
}

type primedKey struct {
	path string
	body []byte
}

// request is one planned HTTP request and what its answer must be.
type request struct {
	class  string
	method string
	path   string
	body   []byte // an upload's edge list, or the line a big upload adds
	big    bool   // body follows the shared big list
	want   []byte // a hit's body: its key's first answer
	pool   int    // a duplicate upload's pool graph
}

// outcome is what one request got.
type outcome struct {
	sent     bool
	failed   bool
	cache    string
	latency  time.Duration // from when it was due
	rtt      time.Duration // from when it was sent
	span     int64
	bodySum  [32]byte
	digest   string // an upload's reported digest
	err      string // why the request failed
	problem  string // a failed check on its answer
	finished time.Time
}

// timedHandler times wexpd's ServeHTTP for traced requests, keyed by the
// client span that sent them.
type timedHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
	mu   sync.Mutex
	durs map[int64]time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	op, _ := strconv.Atoi(r.Header.Get("X-Bench-Op"))
	sp := tr.begin("ServeHTTP", "", parent, op)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	tr.end(sp)
	h.mu.Lock()
	h.durs[parent] = d
	h.mu.Unlock()
}

func (h *timedHandler) duration(span int64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.durs[span]
}

// serviceEnv is one set-up: a running server, its primed cache and the
// planned requests of both phases.
type serviceEnv struct {
	sc       serviceScale
	seed     uint64
	svc      io.Closer
	srv      *http.Server
	served   chan error
	base     string
	client   *http.Client
	handler  *timedHandler // nil in untraced runs
	pool     []poolGraph
	primed   []primedKey
	bigBase  []byte
	open     []request
	due      []time.Duration
	capacity []request
}

func newService(sc serviceScale, seed uint64, traced bool, seconds float64) (_ *serviceEnv, err error) {
	svc, err := wexp.OpenService(wexp.ServiceConfig{MaxGraphs: serviceMaxGraphs, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("open service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	e := &serviceEnv{sc: sc, seed: seed, svc: svc, served: make(chan error, 1)}
	var h http.Handler = svc
	if traced {
		e.handler = &timedHandler{next: svc, durs: map[int64]time.Duration{}}
		h = e.handler
	}
	e.srv = &http.Server{Handler: h}
	go func() { e.served <- e.srv.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     capacityConns,
		MaxIdleConnsPerHost: capacityConns,
		DisableCompression:  true,
	}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	r := wexp.NewRNG(seed)
	for i := 0; i < sc.poolGraphs; i++ {
		body := smallGraph(r)
		got, err := e.call("POST", "/v1/graphs", body)
		var resp struct{ Digest string }
		if err == nil {
			err = json.Unmarshal(got, &resp)
		}
		if err != nil {
			return nil, fmt.Errorf("upload pool graph %d: %w", i, err)
		}
		e.pool = append(e.pool, poolGraph{body, resp.Digest})
	}
	e.bigBase = bigList(sc.bigN, sc.bigM, r)
	for j := 0; j < sc.primed; j++ {
		var path string
		switch {
		case j < sc.primed/2:
			proto := []string{"decay", "spokesman"}[j%2]
			path = fmt.Sprintf("/v1/broadcast?family=hypercube&size=7&protocol=%s&trials=4&maxrounds=256&model=%s&seed=%d",
				proto, missModels[j%len(missModels)], j+1)
		case j < 3*sc.primed/4:
			path = fmt.Sprintf("/v1/spokesman?family=hypercube&size=8&s=%s&trials=8&seed=%d", csv(r.Choose(256, 16)), j+1)
		default:
			path = fmt.Sprintf("/v1/expansion?graph=%s&obj=ordinary&maxk=2", e.pool[j%len(e.pool)].digest)
		}
		body, err := e.call("GET", path, nil)
		if err != nil {
			return nil, fmt.Errorf("prime %s: %w", path, err)
		}
		e.primed = append(e.primed, primedKey{path, body})
	}

	// The open loop's Poisson arrivals, then the capacity phase's
	// requests, which continue the block numbering so that their keys are
	// fresh too.
	openFor := seconds * sc.openShare
	arrivals := wexp.NewRNG(seed ^ 0x6f70656e) // "open"
	for t := 0.0; ; {
		t += -math.Log(1-arrivals.Float64()) / sc.rate
		if t >= openFor {
			break
		}
		e.due = append(e.due, time.Duration(t*float64(time.Second)))
	}
	e.open = e.plan(0, len(e.due))
	e.capacity = e.plan(len(e.open)/len(serviceMix)+1, sc.capacityRequests)
	return e, nil
}

// call sends one set-up request and returns its answer's body.
func (e *serviceEnv) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func (e *serviceEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Every request has been answered by now; a shutdown error could only
	// report a connection still closing, which Serve's return covers.
	_ = e.srv.Shutdown(ctx)
	<-e.served
	e.client.CloseIdleConnections()
	e.svc.Close()
}

// smallGraph is a random graph on 32–48 vertices as an edge list.
func smallGraph(r *wexp.RNG) []byte {
	n := 32 + r.Intn(17)
	var b bytes.Buffer
	fmt.Fprintf(&b, "n %d\n", n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(0.15) {
				fmt.Fprintf(&b, "%d %d\n", u, v)
			}
		}
	}
	return b.Bytes()
}

// bigList is a random graph on vertices 1..n-1 with about m edges, vertex
// 0 left isolated: big upload j adds the edge {0, 1+j}, which makes each a
// new graph.
func bigList(n, m int, r *wexp.RNG) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "n %d\n", n)
	for i := 0; i < m; i++ {
		u := 1 + r.Intn(n-1)
		v := 1 + r.Intn(n-2)
		if v >= u {
			v++
		}
		fmt.Fprintf(&b, "%d %d\n", u, v)
	}
	return b.Bytes()
}

func csv(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// plan lists n requests from block firstBlock on. Every fresh key derives
// from the block number, which never repeats within a run.
func (e *serviceEnv) plan(firstBlock, n int) []request {
	reqs := make([]request, 0, n)
	for b := firstBlock; len(reqs) < n; b++ {
		r := wexp.NewRNG(e.seed*0x9e3779b97f4a7c15 + uint64(b))
		for _, j := range r.Perm(len(serviceMix)) {
			if len(reqs) == n {
				break
			}
			reqs = append(reqs, e.request(serviceMix[j], b, r))
		}
	}
	return reqs
}

func (e *serviceEnv) request(class string, b int, r *wexp.RNG) request {
	q := request{class: class, method: "GET", pool: -1}
	switch class {
	case "hit":
		k := e.primed[r.Intn(len(e.primed))]
		q.path, q.want = k.path, k.body
	case "miss-broadcast":
		q.path = fmt.Sprintf("/v1/broadcast?family=hypercube&size=9&protocol=decay&trials=8&maxrounds=256&model=%s&seed=%d",
			missModels[b%len(missModels)], 1_000_000+b)
	case "miss-spokesman":
		q.path = fmt.Sprintf("/v1/spokesman?family=hypercube&size=10&s=%s&trials=32&seed=%d", csv(r.Choose(1024, 64)), 1_000_000+b)
	case "miss-expansion":
		g := e.pool[b/len(missExpansion)%len(e.pool)]
		x := missExpansion[b%len(missExpansion)]
		q.path = fmt.Sprintf("/v1/expansion?graph=%s&obj=%s&maxk=%d", g.digest, x.obj, x.maxK)
	case "upload":
		q.method, q.path = "POST", "/v1/graphs"
		if b%10 == 9 {
			q.big, q.body = true, fmt.Appendf(nil, "0 %d\n", 1+(b/10)%(e.sc.bigN-1))
		} else {
			q.body = smallGraph(r)
		}
	case "upload-dup":
		q.method, q.path = "POST", "/v1/graphs"
		q.pool = r.Intn(len(e.pool))
		q.body = e.pool[q.pool].body
	}
	return q
}

// do sends one request and checks what it can check on the spot.
func (e *serviceEnv) do(q *request, op int, due time.Time, tr *tracer) outcome {
	var o outcome
	body := io.Reader(bytes.NewReader(q.body))
	if q.big {
		body = io.MultiReader(bytes.NewReader(e.bigBase), body)
	}
	req, err := http.NewRequest(q.method, e.base+q.path, body)
	if err != nil {
		o.sent, o.failed, o.err = true, true, err.Error()
		return o
	}
	if q.big {
		req.ContentLength = int64(len(e.bigBase) + len(q.body))
	}
	sp := tr.begin("request", q.class, 0, op)
	if tr != nil {
		req.Header.Set("X-Bench-Span", strconv.FormatInt(sp.ID, 10))
		req.Header.Set("X-Bench-Op", strconv.Itoa(op))
	}
	sent := time.Now()
	o.sent = true
	resp, err := e.client.Do(req)
	var got []byte
	if err == nil {
		got, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.finished = time.Now()
	tr.end(sp)
	o.span = sp.ID
	o.latency, o.rtt = o.finished.Sub(due), o.finished.Sub(sent)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s", resp.Status)
	}
	if err != nil {
		o.failed, o.err = true, fmt.Sprintf("%s %s: %v", q.method, q.path, err)
		return o
	}
	o.cache = resp.Header.Get("X-Cache")
	o.bodySum = sha256.Sum256(got)
	o.problem = e.verify(q, got, o.cache, &o)
	return o
}

func (e *serviceEnv) verify(q *request, got []byte, cache string, o *outcome) string {
	switch q.class {
	case "hit":
		if !bytes.Equal(got, q.want) {
			return fmt.Sprintf("hit %s: body differs from the key's first answer", q.path)
		}
	case "upload", "upload-dup":
		var resp struct {
			Digest  string
			Existed bool
		}
		if err := json.Unmarshal(got, &resp); err != nil {
			return fmt.Sprintf("upload: bad answer %q: %v", got, err)
		}
		o.digest = resp.Digest
		if q.class == "upload" && resp.Existed {
			return fmt.Sprintf("new upload %s reported existed: true", resp.Digest)
		}
		if q.class == "upload-dup" && (!resp.Existed || resp.Digest != e.pool[q.pool].digest) {
			return fmt.Sprintf("duplicate upload of %s answered digest %s existed %t", e.pool[q.pool].digest, resp.Digest, resp.Existed)
		}
	default:
		if cache != "miss" {
			return fmt.Sprintf("%s %s: X-Cache %q, want a miss on a fresh key", q.class, q.path, cache)
		}
	}
	return ""
}

// checkUploads recomputes the digest of every new upload with
// wexp.GraphDigest and requires the server to have answered the same.
func (e *serviceEnv) checkUploads(r *report, reqs []request, outs []outcome) {
	for i := range reqs {
		q, o := &reqs[i], &outs[i]
		if q.class != "upload" || o.failed || !o.sent {
			continue
		}
		body := io.Reader(bytes.NewReader(q.body))
		if q.big {
			body = io.MultiReader(bytes.NewReader(e.bigBase), body)
		}
		g, err := wexp.ReadEdgeList(body)
		if err != nil {
			r.problem("parse upload %d: %v", i, err)
			continue
		}
		if want := wexp.GraphDigest(g); o.digest != want {
			r.problem("upload %d: server digest %s, wexp.GraphDigest %s", i, o.digest, want)
		}
	}
}

// openLoop sends reqs[i] at start+due[i] whatever the state of earlier
// requests, pacing from a dedicated thread, and returns what each got and
// how late the pacer sent it.
func (e *serviceEnv) openLoop(reqs []request, due []time.Duration, tr *tracer) ([]outcome, []time.Duration, error) {
	outs := make([]outcome, len(reqs))
	late := make([]time.Duration, len(reqs))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	paced := make(chan error, 1)
	go func() {
		if err := lockPacerThread(); err != nil {
			paced <- err
			return
		}
		for i := range reqs {
			at := start.Add(due[i])
			sleepUntil(at)
			late[i] = time.Since(at)
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i] = e.do(&reqs[i], i, at, tr)
			}()
		}
		paced <- nil
	}()
	err := <-paced
	wg.Wait()
	return outs, late, err
}

// closedLoop keeps capacityConns × capacityInFlight requests in flight
// until d has passed or reqs run out, and returns what each got and the
// request rate.
func (e *serviceEnv) closedLoop(reqs []request, d time.Duration, tr *tracer) ([]outcome, float64) {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < capacityConns*capacityInFlight; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || time.Now().After(deadline) {
					return
				}
				outs[i] = e.do(&reqs[i], i, time.Now(), tr)
			}
		}()
	}
	wg.Wait()
	done, last := 0, start
	for _, o := range outs {
		if o.sent {
			done++
			if o.finished.After(last) {
				last = o.finished
			}
		}
	}
	return outs, ratio(float64(done), last.Sub(start).Seconds())
}

// tally counts sent and failed requests and records their problems.
func tally(r *report, outs []outcome) {
	for _, o := range outs {
		if !o.sent {
			continue
		}
		r.Attempted++
		if o.failed {
			r.opFailed(errors.New(o.err))
		}
		if o.problem != "" {
			r.problem("%s", o.problem)
		}
	}
}

func openLatencies(outs []outcome) []time.Duration {
	var lat []time.Duration
	for _, o := range outs {
		if o.sent && !o.failed {
			lat = append(lat, o.latency)
		}
	}
	return lat
}

func serviceDigest(outs []outcome) string {
	d := newDigester()
	for _, o := range outs {
		d.add(fmt.Sprintf("%x", o.bodySum))
	}
	return d.sum()
}

// serviceLayers sets the per-class handler times, the cache hit ratio and
// the transport time of a traced open-loop phase.
func (e *serviceEnv) serviceLayers(r *report, reqs []request, outs []outcome) {
	handler := map[string][]float64{}
	var transport []float64
	hits, keyed := 0, 0
	for i, o := range outs {
		if !o.sent || o.failed {
			continue
		}
		h := e.handler.duration(o.span)
		handler[reqs[i].class] = append(handler[reqs[i].class], h.Seconds())
		transport = append(transport, (o.rtt - h).Seconds())
		if o.cache != "" {
			keyed++
			if o.cache == "hit" {
				hits++
			}
		}
	}
	for _, c := range serviceClasses {
		r.set("service."+c+".handler_p50_s", quantile(handler[c], 0.50))
		r.set("service."+c+".handler_p99_s", quantile(handler[c], 0.99))
	}
	r.set("service.cache_hit_ratio", ratio(float64(hits), float64(keyed)))
	r.set("service.transport_p50_s", quantile(transport, 0.50))
}

func lateness(r *report, late []time.Duration, traced bool) {
	s := seconds(late)
	p50, p99 := quantile(s, 0.50), quantile(s, 0.99)
	if traced {
		r.set("harness.gen_late_p50_s", p50)
		r.set("harness.gen_late_p99_s", p99)
		return
	}
	r.extra("harness.gen_late_p50_s", p50, "s")
	r.extra("harness.gen_late_p99_s", p99, "s")
}

// runService runs the service workload.
func runService(sc serviceScale, cfg runConfig) (*report, error) {
	r := &report{Workload: "service", Seed: cfg.seed, Trace: cfg.trace}
	env, setupS, err := repeatSetup(func() (*serviceEnv, error) {
		return newService(sc, cfg.seed, cfg.trace, cfg.seconds)
	}, (*serviceEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	capFor := time.Duration(cfg.seconds * (1 - sc.openShare) * float64(time.Second))

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		env.handler.tr.Store(tr)
	}
	allocs := heapAllocs()
	outs, late, err := env.openLoop(env.open, env.due, tr)
	if err != nil {
		return nil, err
	}
	tally(r, outs)
	r.Digest = serviceDigest(outs)
	lateness(r, late, cfg.trace)
	r.extra("service.open_requests", float64(len(outs)), "count")

	// The capacity phase: untraced, all of it; traced, its first half
	// untraced and its second half traced, on consecutive fresh keys, which
	// gives the tracing overhead.
	var capOuts []outcome
	if !cfg.trace {
		var rate float64
		capOuts, rate = env.closedLoop(env.capacity, capFor, nil)
		tally(r, capOuts)
		if err := memoryMetrics(r, allocs, r.Attempted); err != nil {
			return nil, err
		}
		r.set("setup_s", setupS)
		r.set("ops_per_s", rate)
		latencyMetrics(r, openLatencies(outs))
	} else {
		env.serviceLayers(r, env.open, outs)
		selfTimeMetrics(r, tr)
		if err := writeSpans(cfg, tr); err != nil {
			return nil, err
		}
		half := len(env.capacity) / 2
		env.handler.tr.Store(nil)
		plainOuts, plain := env.closedLoop(env.capacity[:half], capFor/2, nil)
		env.handler.tr.Store(tr)
		tracedOuts, traced := env.closedLoop(env.capacity[half:], capFor/2, tr)
		capOuts = append(plainOuts, tracedOuts...)
		tally(r, capOuts)
		r.set("harness.trace_overhead", ratio(plain, traced)-1)
	}
	env.checkUploads(r, env.open, outs)
	env.checkUploads(r, env.capacity, capOuts)
	return r, nil
}
