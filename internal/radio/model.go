package radio

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"wexp/internal/rng"
)

// Model is the pluggable per-round receive rule. The paper's
// Chlamtac–Kutten unit-disk rule "a silent vertex receives iff exactly
// one neighbor transmits" is the UnitDisk model, every network's default;
// the other models replace or extend that rule while reusing the same
// Network state, protocols, and Monte-Carlo harness. UnitDisk, Jam and
// MultiMessage share the engine's accumulate pass and differ only in how
// they commit its exactly-one candidates.
//
// Determinism contract: a model execution is a pure function of (graph,
// source, transmit sets, model parameters, fork salt). Models that need
// randomness (Fading) derive a fresh per-round stream from their parameters,
// the fork salt, and the round number only — never from shared state — so
// Monte-Carlo aggregates are bit-identical at any worker count. Models with
// per-execution state (message sets, scratch buffers) return a fresh
// instance from Fork; a Model value handed to Options.Model is never
// mutated by the run itself.
type Model interface {
	// Name is the canonical parameterized name (e.g. "fading(p=0.25)"),
	// stable across runs — it is used in CLI reports, experiment tables,
	// and wexpd cache keys.
	Name() string
	// Fork returns an instance private to one execution (trial). salt is
	// the execution's pre-split identity; stateless deterministic models
	// may ignore it and return the receiver.
	Fork(salt uint64) Model
	// Init prepares per-execution state after the network is built (and
	// may seed extra initial knowledge, e.g. MultiMessage origins).
	Init(n *Network)
	// Step executes one synchronous round in which exactly the informed
	// vertices marked by transmit send, and returns the number of newly
	// informed vertices.
	Step(n *Network, transmit []bool) int
	// Done reports whether the execution's completion condition holds.
	Done(n *Network) bool
}

// ParseModel parses a model spec of the form "name" or "name:p1,p2,...".
// Accepted forms (missing parameters take the given defaults):
//
//	unit-disk
//	sinr[:alpha[,beta[,n0[,power]]]]   defaults 1, 0.5, 0.1, 1
//	fading[:p[,seed]]                  defaults 0.25, 0
//	multi[:m]                          default 4 (1 ≤ m ≤ 64)
//	jam[:k[,policy]]                   defaults 1, degree (or frontier)
//
// The empty spec selects unit-disk.
func ParseModel(spec string) (Model, error) {
	name, rest, hasArgs := strings.Cut(spec, ":")
	var args []string
	if hasArgs {
		args = strings.Split(rest, ",")
	}
	argf := func(i int, def float64) (float64, error) {
		if i >= len(args) || strings.TrimSpace(args[i]) == "" {
			return def, nil
		}
		return strconv.ParseFloat(strings.TrimSpace(args[i]), 64)
	}
	argi := func(i int, def int) (int, error) {
		if i >= len(args) || strings.TrimSpace(args[i]) == "" {
			return def, nil
		}
		return strconv.Atoi(strings.TrimSpace(args[i]))
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "unit-disk", "unitdisk":
		if len(args) > 0 {
			return nil, fmt.Errorf("radio: unit-disk takes no parameters, got %q", spec)
		}
		return UnitDisk{}, nil
	case "sinr":
		m := &SINR{}
		var err error
		if m.Alpha, err = argf(0, 1); err != nil {
			return nil, fmt.Errorf("radio: sinr alpha: %v", err)
		}
		if m.Beta, err = argf(1, 0.5); err != nil {
			return nil, fmt.Errorf("radio: sinr beta: %v", err)
		}
		if m.N0, err = argf(2, 0.1); err != nil {
			return nil, fmt.Errorf("radio: sinr n0: %v", err)
		}
		if m.Power, err = argf(3, 1); err != nil {
			return nil, fmt.Errorf("radio: sinr power: %v", err)
		}
		if len(args) > 4 {
			return nil, fmt.Errorf("radio: sinr takes at most 4 parameters, got %q", spec)
		}
		if m.Alpha < 0 || m.Beta <= 0 || m.N0 < 0 || m.Power <= 0 {
			return nil, fmt.Errorf("radio: sinr needs alpha ≥ 0, beta > 0, n0 ≥ 0, power > 0, got %s", m.Name())
		}
		return m, nil
	case "fading":
		m := &Fading{}
		var err error
		if m.P, err = argf(0, 0.25); err != nil {
			return nil, fmt.Errorf("radio: fading p: %v", err)
		}
		if len(args) > 1 {
			s, err := strconv.ParseUint(strings.TrimSpace(args[1]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("radio: fading seed: %v", err)
			}
			m.Seed = s
		}
		if len(args) > 2 {
			return nil, fmt.Errorf("radio: fading takes at most 2 parameters, got %q", spec)
		}
		if m.P < 0 || m.P >= 1 {
			return nil, fmt.Errorf("radio: fading needs 0 ≤ p < 1, got %g", m.P)
		}
		return m, nil
	case "multi", "multi-message":
		m := &MultiMessage{}
		var err error
		if m.M, err = argi(0, 4); err != nil {
			return nil, fmt.Errorf("radio: multi m: %v", err)
		}
		if len(args) > 1 {
			return nil, fmt.Errorf("radio: multi takes at most 1 parameter, got %q", spec)
		}
		if m.M < 1 || m.M > 64 {
			return nil, fmt.Errorf("radio: multi needs 1 ≤ m ≤ 64, got %d", m.M)
		}
		return m, nil
	case "jam":
		m := &Jam{}
		var err error
		if m.Budget, err = argi(0, 1); err != nil {
			return nil, fmt.Errorf("radio: jam budget: %v", err)
		}
		if len(args) > 1 {
			m.Policy = strings.TrimSpace(args[1])
		}
		if len(args) > 2 {
			return nil, fmt.Errorf("radio: jam takes at most 2 parameters, got %q", spec)
		}
		if m.Budget < 0 {
			return nil, fmt.Errorf("radio: jam needs budget ≥ 0, got %d", m.Budget)
		}
		switch m.Policy {
		case "":
			m.Policy = JamByDegree
		case JamByDegree, JamByFrontier:
		default:
			return nil, fmt.Errorf("radio: jam policy must be %q or %q, got %q", JamByDegree, JamByFrontier, m.Policy)
		}
		return m, nil
	}
	return nil, fmt.Errorf("radio: unknown model %q (want unit-disk, sinr, fading, multi, jam)", spec)
}

func fmtParam(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// UnitDisk is the paper's collision rule as a Model: a silent vertex
// receives iff exactly one neighbor transmits. It informs every candidate
// of the engine's accumulate pass. Completion is every vertex informed.
type UnitDisk struct{}

// Name implements Model.
func (UnitDisk) Name() string { return "unit-disk" }

// Fork implements Model; UnitDisk is stateless.
func (UnitDisk) Fork(uint64) Model { return UnitDisk{} }

// Init implements Model.
func (UnitDisk) Init(*Network) {}

// Step implements Model.
func (UnitDisk) Step(n *Network, transmit []bool) int {
	newly := 0
	for v := range n.accumulate(transmit).newly.All() {
		if n.inform(v) {
			newly++
		}
	}
	return newly
}

// Done implements Model.
func (UnitDisk) Done(n *Network) bool { return n.InformedCount == n.G.N() }

// SINR is a physical-interference receive rule with distance-free
// degree-weighted power: a transmitter v radiates Power spread over its
// neighborhood, contributing signal
//
//	s(v) = Power / (1+deg(v))^Alpha
//
// to each neighbor. A silent vertex w with at least one transmitting
// neighbor receives iff the strongest single signal beats noise plus the
// interference of all the others:
//
//	max_v s(v)  ≥  Beta · (N0 + Σ_v s(v) − max_v s(v))
//
// A silent vertex that hears transmitters but fails the threshold counts
// one collision (it is drowned, indistinguishable from silence). The rule
// is fully deterministic: signals are summed in ascending vertex order, so
// the float result is a pure function of the graph and the transmit set.
// With N0 = 0 and Beta = 1 this is the capture model; the defaults
// (Alpha=1, Beta=0.5, N0=0.1) make low-degree neighborhoods tolerate a
// second simultaneous transmitter that the unit-disk rule would turn into
// a collision. Completion is every vertex informed.
type SINR struct {
	Alpha float64 // degree-spreading exponent (path-loss analogue)
	Beta  float64 // SINR acceptance threshold
	N0    float64 // ambient noise floor
	Power float64 // per-transmitter radiated power

	sum, best []float64 // per-round scratch, lazily sized to the network
}

// Name implements Model.
func (m *SINR) Name() string {
	return fmt.Sprintf("sinr(alpha=%s,beta=%s,n0=%s,power=%s)",
		fmtParam(m.Alpha), fmtParam(m.Beta), fmtParam(m.N0), fmtParam(m.Power))
}

// Fork implements Model: the copy shares parameters but not scratch.
func (m *SINR) Fork(uint64) Model {
	return &SINR{Alpha: m.Alpha, Beta: m.Beta, N0: m.N0, Power: m.Power}
}

// Init implements Model.
func (m *SINR) Init(n *Network) {
	m.sum = make([]float64, n.G.N())
	m.best = make([]float64, n.G.N())
}

// Step implements Model with the scalar accumulation described on the type.
func (m *SINR) Step(n *Network, transmit []bool) int {
	for i := range m.sum {
		m.sum[i], m.best[i] = 0, 0
	}
	for v := 0; v < n.G.N(); v++ {
		if !transmit[v] || !n.Informed[v] {
			continue
		}
		n.Transmissions++
		s := m.Power / math.Pow(1+float64(n.G.Degree(v)), m.Alpha)
		for _, w := range n.G.Neighbors(v) {
			m.sum[w] += s
			if s > m.best[w] {
				m.best[w] = s
			}
		}
	}
	n.Round++
	newly := 0
	for v := 0; v < n.G.N(); v++ {
		if (transmit[v] && n.Informed[v]) || m.best[v] == 0 {
			continue // transmitting, or no signal at all
		}
		if m.best[v] >= m.Beta*(m.N0+m.sum[v]-m.best[v]) {
			if n.inform(v) {
				newly++
			}
		} else {
			n.Collisions++
		}
	}
	return newly
}

// Done implements Model.
func (m *SINR) Done(n *Network) bool { return n.InformedCount == n.G.N() }

// fadingStream labels the fading model's RNG streams; mixed with the model
// seed and the fork salt so fading draws never collide with protocol
// streams.
var fadingStream = rng.Salt("radio/fading")

// Fading is the unit-disk rule over an erasure channel: each arc from a
// transmitter to a neighbor is independently erased with probability P, and
// the exactly-one-delivery rule applies to the arcs that survive. Erasure
// draws come from a fresh per-round stream seeded by (Seed ⊕ fork salt ⊕
// stream label) + round, consumed in ascending sender order and adjacency
// order — one draw per arc of every active sender, regardless of receiver
// state — so an execution is a pure function of its inputs and Monte-Carlo
// results are bit-identical at any worker count. Note an erasure can help:
// losing one of two colliding arcs turns a collision into a delivery.
// Completion is every vertex informed.
type Fading struct {
	P    float64 // per-arc erasure probability, 0 ≤ p < 1
	Seed uint64  // model-level seed, mixed with the per-execution fork salt

	salt uint64
	hits []int32
}

// Name implements Model. The fork salt is execution identity, not a
// parameter, so it does not appear.
func (m *Fading) Name() string {
	if m.Seed != 0 {
		return fmt.Sprintf("fading(p=%s,seed=%d)", fmtParam(m.P), m.Seed)
	}
	return fmt.Sprintf("fading(p=%s)", fmtParam(m.P))
}

// Fork implements Model, binding the execution's salt.
func (m *Fading) Fork(salt uint64) Model {
	return &Fading{P: m.P, Seed: m.Seed, salt: salt}
}

// Init implements Model.
func (m *Fading) Init(n *Network) { m.hits = make([]int32, n.G.N()) }

// Step implements Model.
func (m *Fading) Step(n *Network, transmit []bool) int {
	// A fresh generator per round: draws depend only on (seed, salt,
	// round), never on how many draws earlier rounds consumed.
	r := rng.New((m.Seed ^ m.salt ^ fadingStream) + uint64(n.Round+1)*0x9E3779B97F4A7C15)
	for i := range m.hits {
		m.hits[i] = 0
	}
	for v := 0; v < n.G.N(); v++ {
		if !transmit[v] || !n.Informed[v] {
			continue
		}
		n.Transmissions++
		for _, w := range n.G.Neighbors(v) {
			if !r.Bernoulli(m.P) {
				m.hits[w]++
			}
		}
	}
	n.Round++
	newly := 0
	for v := 0; v < n.G.N(); v++ {
		switch {
		case transmit[v] && n.Informed[v]:
		case m.hits[v] == 1:
			if n.inform(v) {
				newly++
			}
		case m.hits[v] >= 2:
			n.Collisions++
		}
	}
	return newly
}

// Done implements Model.
func (m *Fading) Done(n *Network) bool { return n.InformedCount == n.G.N() }

// MultiMessage runs M concurrent broadcasts under unit-disk arbitration:
// message j originates at vertex (source + j·⌈n/M⌉) mod n (origins may
// coincide on tiny graphs), a transmitter sends its entire current message
// set, and a silent vertex with exactly one transmitting neighbor receives
// that neighbor's whole set. Informed means "holds at least one message"
// (so protocols and traces keep their usual meaning); completion requires
// every vertex to hold all M messages. Fully deterministic. Note the
// initial informed count is the number of distinct origins, not 1.
type MultiMessage struct {
	M int // number of messages, 1 ≤ M ≤ 64

	have []uint64 // per-vertex message bitmask
}

// Name implements Model.
func (m *MultiMessage) Name() string { return fmt.Sprintf("multi(m=%d)", m.M) }

// Fork implements Model.
func (m *MultiMessage) Fork(uint64) Model { return &MultiMessage{M: m.M} }

// full is the all-messages mask.
func (m *MultiMessage) full() uint64 {
	if m.M >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(m.M) - 1
}

// Init implements Model: place the M origins and mark them informed at
// round 0.
func (m *MultiMessage) Init(n *Network) {
	nv := n.G.N()
	m.have = make([]uint64, nv)
	stride := (nv + m.M - 1) / m.M
	if stride < 1 {
		stride = 1
	}
	for j := 0; j < m.M; j++ {
		o := (n.source + j*stride) % nv
		m.have[o] |= uint64(1) << uint(j)
		n.inform(o)
	}
}

// Holds reports whether vertex v currently holds message j. It is a
// testing/analysis hook; protocols must not use it.
func (m *MultiMessage) Holds(v, j int) bool { return m.have[v]&(uint64(1)<<uint(j)) != 0 }

// Step implements Model: each candidate of the accumulate pass, informed
// or not, merges the message set of its sole transmitting neighbor. The
// pairs are found from the cheaper side: a candidate scans its own
// neighbor list up to its sender (half a list on average), a sender its
// whole list for candidates, so the senders' lists are walked when there
// are fewer than half as many senders as candidates. In-place merging is
// safe: new message bits only flow out of transmitters, and transmitters
// (not silent) never receive, so no mask read this round is written.
func (m *MultiMessage) Step(n *Network, transmit []bool) int {
	sc := n.accumulate(transmit)
	if 2*sc.active.Count() < sc.newly.Count() {
		for v := range sc.active.All() {
			for _, w := range n.G.Neighbors(v) {
				if sc.newly.Contains(int(w)) {
					m.have[w] |= m.have[v]
				}
			}
		}
	} else {
		for v := range sc.newly.All() {
			for _, w := range n.G.Neighbors(v) {
				if sc.active.Contains(int(w)) {
					m.have[v] |= m.have[w]
					break
				}
			}
		}
	}
	newly := 0
	for v := range sc.newly.All() {
		if n.inform(v) {
			newly++
		}
	}
	return newly
}

// Done implements Model: every vertex holds every message.
func (m *MultiMessage) Done(n *Network) bool {
	full := m.full()
	for _, h := range m.have {
		if h != full {
			return false
		}
	}
	return true
}

// Jam policies: which candidate receivers the adversary values most.
const (
	// JamByDegree silences the highest-degree candidates (hubs first).
	JamByDegree = "degree"
	// JamByFrontier silences the candidates with the most uninformed
	// neighbors (future spreaders first).
	JamByFrontier = "frontier"
)

// Jam is the unit-disk rule under a round-budgeted adversary: after the
// exactly-one-transmitter candidates of a round are determined, the jammer
// silences the Budget most valuable uninformed candidates (by Policy, ties
// broken toward the lower vertex id) and each silenced reception counts as
// a collision — jamming is indistinguishable from interference. All other
// candidates receive as usual.
//
// With Budget ≥ 1 a broadcast can never complete: the last uninformed
// vertex is always within the jammer's budget, so experiments should read
// the informed plateau rather than completion. Fully deterministic; the
// candidates come from the engine's accumulate pass, and the jammer is a
// receiver mask over them.
type Jam struct {
	Budget int    // receptions silenced per round
	Policy string // JamByDegree (default) or JamByFrontier

	cands []int32
}

// Name implements Model.
func (m *Jam) Name() string {
	policy := m.Policy
	if policy == "" {
		policy = JamByDegree
	}
	return fmt.Sprintf("jam(k=%d,policy=%s)", m.Budget, policy)
}

// Fork implements Model.
func (m *Jam) Fork(uint64) Model { return &Jam{Budget: m.Budget, Policy: m.Policy} }

// Init implements Model.
func (m *Jam) Init(*Network) {}

// Step implements Model: the uninformed candidates of the accumulate
// pass, ascending by id, go through commit.
func (m *Jam) Step(n *Network, transmit []bool) int {
	m.cands = m.cands[:0]
	for v := range n.accumulate(transmit).newly.All() {
		if !n.Informed[v] {
			m.cands = append(m.cands, int32(v))
		}
	}
	return m.commit(n, m.cands)
}

// value is the jammer's preference for candidate v under the policy.
func (m *Jam) value(n *Network, v int32) int {
	if m.Policy == JamByFrontier {
		c := 0
		for _, w := range n.G.Neighbors(int(v)) {
			if !n.Informed[w] {
				c++
			}
		}
		return c
	}
	return n.G.Degree(int(v))
}

// commit silences the top-Budget candidates and informs the rest,
// returning the newly informed count. cands is ascending by vertex id, so
// the stable sort's tie-break is the lower id.
func (m *Jam) commit(n *Network, cands []int32) int {
	if m.Budget > 0 && len(cands) > 0 {
		jam := min(m.Budget, len(cands))
		sort.SliceStable(cands, func(i, j int) bool {
			return m.value(n, cands[i]) > m.value(n, cands[j])
		})
		n.Collisions += jam
		cands = cands[jam:]
	}
	newly := 0
	for _, v := range cands {
		if n.inform(int(v)) {
			newly++
		}
	}
	return newly
}

// Done implements Model.
func (m *Jam) Done(n *Network) bool { return n.InformedCount == n.G.N() }
