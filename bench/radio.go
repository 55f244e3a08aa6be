package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"time"

	"wexp"
)

// radioModels are the five receive rules the broadcast workload runs
// under; key names each in metrics. SINR runs with a noise floor of 0.01
// instead of its default 0.1: at 0.1 no vertex of degree 20 or more can
// hear even a lone transmitter, so on ER(4096, 0.005), of mean degree 20,
// whether a broadcast goes anywhere depends on the source's degree, and
// one seed's op costs 100 times another's.
var radioModels = []struct{ spec, key string }{
	{"unit-disk", "unit-disk"},
	{"fading:0.25", "fading"},
	{"sinr:1,0.5,0.01", "sinr"},
	{"multi:4", "multi"},
	{"jam:1", "jam"},
}

// millionModels are the receive rules the million workload runs: the
// paper's unit-disk rule and fading, the most expensive model.
var millionModels = []string{"unit-disk", "fading:0.25"}

func modelKey(spec string) string {
	for _, m := range radioModels {
		if m.spec == spec {
			return m.key
		}
	}
	return spec
}

// protocolFactories are the two protocols: Decay spends its rounds in the
// engine, Spokesman in its own per-round election (with 4 sampler trials,
// as wexpd runs it).
var protocolFactories = map[string]wexp.ProtocolFactory{
	"decay":     func(r *wexp.RNG) wexp.Protocol { return wexp.DecayProtocol(r) },
	"spokesman": func(r *wexp.RNG) wexp.Protocol { return wexp.SpokesmanProtocol(r, 4) },
}

// mcCall is one Monte-Carlo broadcast: its inputs, its result and, when
// traced, the decide/engine split of its rounds.
type mcCall struct {
	graph     string
	g         *wexp.Graph
	source    int
	model     string
	protocol  string
	trials    int
	maxRounds int
	seed      uint64
	res       *wexp.MonteCarloResult
	dur       time.Duration
	rounds    roundTimes
}

// run executes the call on the given number of workers, traced when tr is
// set, and records its result and duration.
func (c *mcCall) run(ctx context.Context, workers int, tr *tracer, parent int64, op int) error {
	model, err := wexp.ParseRadioModel(c.model)
	if err != nil {
		return err
	}
	factory := protocolFactories[c.protocol]
	var tf *timedFactory
	if tr != nil {
		tf = &timedFactory{}
		factory = tf.wrap(factory)
	}
	sp := tr.begin("BroadcastMonteCarloWith", c.model, parent, op)
	start := time.Now()
	res, err := wexp.BroadcastMonteCarloWith(ctx, c.g, c.source, factory, c.trials, wexp.MonteCarloOptions{
		RunOpts:   wexp.RunOpts{Workers: workers, Seed: c.seed},
		MaxRounds: c.maxRounds,
		Model:     model,
	})
	c.dur = time.Since(start)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s/%s on %s: %w", c.protocol, c.model, c.graph, err)
	}
	c.res = res
	if tf != nil {
		c.rounds = tf.total()
	}
	return nil
}

// randomSource draws an op's broadcast source. A fixed source would make a
// run's cost hang on that one vertex's neighbourhood, which the seed
// redraws; a source per op averages it out within the run.
func randomSource(seed uint64, g *wexp.Graph) int {
	return wexp.NewRNG(seed).Intn(g.N())
}

// checkRerun re-runs each model's first call on one worker and requires
// the identical result: the engine promises results independent of the
// worker count.
func checkRerun(ctx context.Context, r *report, calls []*mcCall) {
	seen := map[string]bool{}
	for _, c := range calls {
		if seen[c.model] {
			continue
		}
		seen[c.model] = true
		again := *c
		if err := again.run(ctx, 1, nil, 0, 0); err != nil {
			r.problem("re-run on one worker: %v", err)
			continue
		}
		if !reflect.DeepEqual(again.res, c.res) {
			r.problem("%s/%s on %s: one worker gives a different result than two", c.protocol, c.model, c.graph)
		}
	}
}

// radioLayers sets the Monte-Carlo layer's metrics over calls; modelPrefix
// selects the dense ("radio.") or sparse ("radio.sparse.") per-model
// metrics.
func radioLayers(r *report, calls []*mcCall, modelPrefix string) {
	type acc struct {
		engine time.Duration
		gaps   int
		rounds int
	}
	per := map[string]*acc{}
	decide := map[string]*roundTimes{"decay": {}, "spokesman": {}}
	var busy time.Duration
	var informed, transmissions, collisions int64
	for _, c := range calls {
		k := modelKey(c.model)
		if per[k] == nil {
			per[k] = &acc{}
		}
		per[k].engine += c.rounds.engine
		per[k].gaps += c.rounds.gaps
		decide[c.protocol].decide += c.rounds.decide
		decide[c.protocol].rounds += c.rounds.rounds
		busy += c.dur
		for _, t := range c.res.PerTrial {
			per[k].rounds += t.Rounds
			informed += int64(t.InformedCount - 1)
		}
		transmissions += c.res.TotalTransmissions
		collisions += c.res.TotalCollisions
	}
	for k, p := range per {
		r.set(modelPrefix+k+".engine_ns_per_round", ratio(float64(p.engine.Nanoseconds()), float64(p.gaps)))
		r.set(modelPrefix+k+".rounds", float64(p.rounds))
	}
	r.set("radio.decay.decide_ns_per_round", ratio(float64(decide["decay"].decide.Nanoseconds()), float64(decide["decay"].rounds)))
	r.set("spokesman.decide_ns_per_round", ratio(float64(decide["spokesman"].decide.Nanoseconds()), float64(decide["spokesman"].rounds)))
	r.set("radio.mc.busy_s", busy.Seconds())
	r.set("radio.useful_ratio", ratio(float64(informed), float64(transmissions)))
	r.set("radio.collisions", float64(collisions))
}

// --- broadcast --------------------------------------------------------------------

// broadcastScale sizes the broadcast workload.
type broadcastScale struct {
	erN             int
	erP             []float64
	torus           int // torus side
	cubeD           int // hypercube dimension
	decayTrials     int
	spokesmanTrials int
	maxRounds       int
}

var broadcastFull = broadcastScale{
	erN: 4096, erP: []float64{0.005, 0.02}, torus: 64, cubeD: 12,
	decayTrials: 32, spokesmanTrials: 4, maxRounds: 1024,
}

// The broadcast workload cycles through every (graph, model, protocol)
// combination in a fixed order, on graphs small enough for the engine's
// dense strategy. The order is fixed so that every run, whatever its
// seed, does the same mix of work.
type broadcastWorkload struct {
	seed   uint64
	combos []mcCall
	calls  []*mcCall
}

func newBroadcast(sc broadcastScale, seed uint64) (*broadcastWorkload, error) {
	type namedGraph struct {
		name string
		g    *wexp.Graph
	}
	r := wexp.NewRNG(seed)
	var graphs []namedGraph
	for _, p := range sc.erP {
		graphs = append(graphs, namedGraph{"er" + strconv.FormatFloat(p, 'g', -1, 64), wexp.ErdosRenyi(sc.erN, p, r)})
	}
	graphs = append(graphs,
		namedGraph{"torus", wexp.Torus(sc.torus, sc.torus)},
		namedGraph{"hypercube", wexp.Hypercube(sc.cubeD)})
	w := &broadcastWorkload{seed: seed}
	for _, g := range graphs {
		for _, m := range radioModels {
			w.combos = append(w.combos,
				mcCall{graph: g.name, g: g.g, model: m.spec, protocol: "decay", trials: sc.decayTrials, maxRounds: sc.maxRounds},
				mcCall{graph: g.name, g: g.g, model: m.spec, protocol: "spokesman", trials: sc.spokesmanTrials, maxRounds: sc.maxRounds})
		}
	}
	return w, nil
}

// window is one pass over every combination.
func (w *broadcastWorkload) window() int { return len(w.combos) }

func (w *broadcastWorkload) stride() int { return len(w.combos) }

func (w *broadcastWorkload) reset() { w.calls = w.calls[:0] }

func (w *broadcastWorkload) op(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	c := w.combos[i%len(w.combos)]
	c.seed = w.seed<<32 + uint64(i)
	c.source = randomSource(c.seed, c.g)
	opSpan := tr.begin("op", c.graph, 0, i)
	err := c.run(ctx, workers, tr, opSpan.ID, i)
	tr.end(opSpan)
	if err != nil {
		return 0, err
	}
	w.calls = append(w.calls, &c)
	return c.dur, nil
}

func (w *broadcastWorkload) check(r *report) {
	checkRerun(context.Background(), r, w.calls)
	checkJam(r, w.calls)
}

// checkJam requires that no trial completes under jam:1, which always
// silences the receiver of highest degree.
func checkJam(r *report, calls []*mcCall) {
	for _, c := range calls {
		if c.model == "jam:1" && c.res.Completed != 0 {
			r.problem("%s/jam:1 on %s completed %d trials, want none", c.protocol, c.graph, c.res.Completed)
		}
	}
}

func (w *broadcastWorkload) digest() string {
	d := newDigester()
	for _, c := range w.calls[:min(len(w.calls), w.window())] {
		d.add(c.res)
	}
	return d.sum()
}

func (w *broadcastWorkload) layers(r *report) { radioLayers(r, w.calls, "radio.") }

// --- million ------------------------------------------------------------------------

// millionScale sizes the million workload.
type millionScale struct {
	n, m      int
	trials    int
	maxRounds int
	window    int
}

var millionFull = millionScale{n: 1_000_000, m: 4_000_000, trials: 2, maxRounds: 50, window: 3}

// The million workload streams one pre-built edge list of a large sparse
// graph through ingestion on every op and broadcasts on the result. It is
// the only workload on the engine's sparse strategy.
type millionWorkload struct {
	sc   millionScale
	seed uint64
	list []byte
	ops  []millionOp
}

// millionOp is one op's record.
type millionOp struct {
	digest     string
	n, m       int
	ingest     time.Duration
	edges      int64
	allocBytes uint64
	calls      []*mcCall
}

// newMillion writes the seeded edge list: a header and m uniform random
// pairs, so duplicates collapse on ingestion.
func newMillion(sc millionScale, seed uint64) (*millionWorkload, error) {
	r := wexp.NewRNG(seed)
	var buf bytes.Buffer
	buf.Grow(sc.m * 14)
	fmt.Fprintf(&buf, "n %d\n", sc.n)
	line := make([]byte, 0, 32)
	for i := 0; i < sc.m; i++ {
		u := r.Intn(sc.n)
		v := r.Intn(sc.n - 1)
		if v >= u {
			v++
		}
		line = strconv.AppendInt(line[:0], int64(u), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(v), 10)
		line = append(line, '\n')
		buf.Write(line)
	}
	return &millionWorkload{sc: sc, seed: seed, list: buf.Bytes()}, nil
}

func (w *millionWorkload) window() int { return w.sc.window }

func (w *millionWorkload) stride() int { return 1 }

func (w *millionWorkload) reset() { w.ops = w.ops[:0] }

func (w *millionWorkload) op(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	opSpan := tr.begin("op", "", 0, i)
	var rec millionOp
	sp := tr.begin("StreamEdgeListStats", "", opSpan.ID, i)
	allocs := heapAllocs()
	start := time.Now()
	g, st, err := wexp.StreamEdgeListStats(bytes.NewReader(w.list), wexp.EdgeListOptions{})
	rec.ingest = time.Since(start)
	rec.allocBytes = heapAllocs() - allocs
	tr.end(sp)
	if err != nil {
		tr.end(opSpan)
		return 0, fmt.Errorf("ingest: %w", err)
	}
	rec.edges = st.Edges
	lat := rec.ingest
	for j, model := range millionModels {
		c := &mcCall{graph: "million", g: g, model: model, protocol: "decay",
			trials: w.sc.trials, maxRounds: w.sc.maxRounds, seed: w.seed<<32 + uint64(2*i+j)}
		c.source = randomSource(c.seed, g)
		if err := c.run(ctx, workers, tr, opSpan.ID, i); err != nil {
			tr.end(opSpan)
			return 0, err
		}
		lat += c.dur
		rec.calls = append(rec.calls, c)
	}
	tr.end(opSpan)
	rec.digest, rec.n, rec.m = wexp.GraphDigest(g), g.N(), g.M()
	if len(w.ops) > 0 {
		// Only the first op's graph stays alive, for the re-run check.
		for _, c := range rec.calls {
			c.g = nil
		}
	}
	w.ops = append(w.ops, rec)
	return lat, nil
}

func (w *millionWorkload) check(r *report) {
	if len(w.ops) == 0 {
		return
	}
	first := w.ops[0]
	for i, o := range w.ops {
		if o.digest != first.digest || o.n != first.n || o.m != first.m {
			r.problem("ingest %d gives graph %.12s (n=%d, m=%d), ingest 0 gave %.12s (n=%d, m=%d)",
				i, o.digest, o.n, o.m, first.digest, first.n, first.m)
		}
	}
	checkRerun(context.Background(), r, first.calls)
}

func (w *millionWorkload) digest() string {
	d := newDigester()
	for _, o := range w.ops[:min(len(w.ops), w.sc.window)] {
		d.add(o.digest)
		for _, c := range o.calls {
			d.add(c.res)
		}
	}
	return d.sum()
}

func (w *millionWorkload) layers(r *report) {
	var ingest time.Duration
	var edges int64
	var allocs uint64
	var calls []*mcCall
	for _, o := range w.ops {
		ingest += o.ingest
		edges += o.edges
		allocs += o.allocBytes
		calls = append(calls, o.calls...)
	}
	r.set("graph.ingest_s", ingest.Seconds())
	r.set("graph.ingest_edges_per_s", ratio(float64(edges), ingest.Seconds()))
	r.set("graph.ingest_alloc_bytes_per_edge", ratio(float64(allocs), float64(edges)))
	radioLayers(r, calls, "radio.sparse.")
}
