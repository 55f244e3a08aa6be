package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wexp"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started. Spans of one op share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; end closes and records it.
func (t *tracer) begin(name, attr string, parent int64, op int) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Name: name, Attr: attr, Op: op,
		Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far, in start order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := slices.Clone(t.spans)
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	return out
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	body, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover — the time spent in that layer itself.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End-s.Start) - child[s.ID]
	}
	return out
}

// selfTimeMetrics reports each layer's self time as an extra metric.
func selfTimeMetrics(r *report, t *tracer) {
	self := selfTimes(t.snapshot())
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		r.extra("self."+n+"_s", self[n].Seconds(), "s")
	}
}

// --- radio protocol timing -----------------------------------------------------

// protocol is wexp.Protocol with its network type as a parameter: the
// radio network type is internal to wexp, so the wrapper below names it
// through the type argument inferred from the wrapped protocol.
type protocol[N any] interface {
	Name() string
	Transmitters(n N, transmit []bool)
}

// timedProtocol splits one trial's time between the protocol's decision
// (each Transmitters call) and the engine (the gap between consecutive
// calls: the round step, the receive model and the loop around them).
// One instance serves one trial, so its fields need no lock.
type timedProtocol[N any] struct {
	inner   protocol[N]
	decide  time.Duration
	engine  time.Duration
	calls   int
	lastEnd time.Time
}

func (p *timedProtocol[N]) Name() string { return p.inner.Name() }

func (p *timedProtocol[N]) Transmitters(n N, transmit []bool) {
	start := time.Now()
	if p.calls > 0 {
		p.engine += start.Sub(p.lastEnd)
	}
	p.inner.Transmitters(n, transmit)
	p.lastEnd = time.Now()
	p.decide += p.lastEnd.Sub(start)
	p.calls++
}

func (p *timedProtocol[N]) times() roundTimes {
	return roundTimes{p.decide, p.engine, p.calls, max(0, p.calls-1)}
}

// roundTimes is the decide/engine split summed over trials.
type roundTimes struct {
	decide, engine time.Duration
	rounds, gaps   int
}

// timedFactory wraps every protocol a factory makes. times must only be
// read after the Monte-Carlo call that used the factory has returned.
type timedFactory struct {
	mu     sync.Mutex
	trials []interface{ times() roundTimes }
}

func wrapProtocol[N any](tf *timedFactory, p protocol[N]) *timedProtocol[N] {
	w := &timedProtocol[N]{inner: p}
	tf.mu.Lock()
	tf.trials = append(tf.trials, w)
	tf.mu.Unlock()
	return w
}

func (tf *timedFactory) wrap(f wexp.ProtocolFactory) wexp.ProtocolFactory {
	return func(r *wexp.RNG) wexp.Protocol { return wrapProtocol(tf, f(r)) }
}

func (tf *timedFactory) total() roundTimes {
	tf.mu.Lock()
	defer tf.mu.Unlock()
	var t roundTimes
	for _, p := range tf.trials {
		pt := p.times()
		t.decide += pt.decide
		t.engine += pt.engine
		t.rounds += pt.rounds
		t.gaps += pt.gaps
	}
	return t
}
