// Package service implements wexpd, the long-running graph-analysis
// daemon: a stdlib-only HTTP/JSON layer over the deterministic engines of
// this repository.
//
// Five components cooperate:
//
//   - a content-addressed graph Store — graphs are keyed by their
//     canonical SHA-256 digest (graph.Digest), so uploading the same graph
//     twice, or requesting the same named family twice, dedupes to one
//     entry. With Config.DataDir set the store is durable: every graph is
//     spilled to disk in a pinned binary CSR encoding and the in-memory
//     tier becomes a bounded cache over it;
//   - a memoized result cache — responses are cached at the byte level
//     under a canonical (graph digest, operation, options) key with LRU
//     eviction, so identical requests return byte-identical bodies and
//     the second one never recomputes;
//   - a singleflight group — N concurrent identical requests trigger
//     exactly one underlying computation; the other N−1 wait and receive
//     the same bytes;
//   - a cancellable job engine — long computations run asynchronously
//     under a per-job context.Context that the expansion, radio, and
//     experiment engines observe at chunk/trial/shard boundaries, so
//     DELETE stops a job promptly without corrupting anything;
//   - a write-ahead log (durable mode) — every job transition is logged,
//     so a crashed server restarts, replays the log, and re-drives
//     incomplete jobs to completion (experiments resume from their shard
//     checkpoints rather than recomputing finished shards).
//
// Every cached computation is deterministic (the engines are bit-identical
// at any worker count), which is what makes byte-level memoization — and
// crash-resumed jobs producing byte-identical artifacts — sound: a
// recomputation after eviction or a crash reproduces the same bytes.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"wexp/internal/expansion"
	"wexp/internal/flight"
	"wexp/internal/lru"
	"wexp/internal/store"
)

// DefaultCacheBytes bounds the result cache when Config.CacheBytes is
// zero.
const DefaultCacheBytes = 64 << 20

// Config tunes the server. The zero value of every field selects a
// production-sensible default.
type Config struct {
	// DataDir, when non-empty, makes the server durable: graphs persist in
	// a content-addressed store under DataDir, job transitions append to a
	// WAL, and experiment jobs checkpoint their shards — so a restart
	// recovers the full graph store and resumes incomplete jobs. Empty
	// means fully in-memory (the pre-durability behavior).
	DataDir string
	// CacheBytes bounds the result cache (0 = DefaultCacheBytes).
	CacheBytes int64
	// MaxGraphs bounds the graph store (0 = DefaultMaxGraphs). In durable
	// mode it bounds only the decoded in-memory cache tier — the durable
	// tier accepts graphs without limit and evicted entries reload from
	// disk; in memory-only mode overflow is refused with 507.
	MaxGraphs int
	// MaxJobs bounds retained job records (0 = 1024). Running jobs are
	// never evicted.
	MaxJobs int
	// Workers is the worker-pool width handed to the engines (0 =
	// GOMAXPROCS). Results never depend on it.
	Workers int
	// MaxBudget caps the per-request exact-enumeration budget a client may
	// ask for (0 = expansion.DefaultBudget). Requests beyond it are
	// rejected up front with 422, mirroring the engine's refusal.
	MaxBudget uint64
	// MaxTrials caps Monte-Carlo trials per request (0 = 1_000_000).
	MaxTrials int
}

func (c Config) maxBudget() uint64 {
	if c.MaxBudget == 0 {
		return expansion.DefaultBudget
	}
	return c.MaxBudget
}

func (c Config) maxTrials() int {
	if c.MaxTrials <= 0 {
		return 1_000_000
	}
	return c.MaxTrials
}

// Server is the wexpd HTTP server: an http.Handler wiring the store, the
// cache, the singleflight group, and the job engine to the /v1 API.
type Server struct {
	cfg    Config
	store  *Store
	cache  *lru.Cache
	flight *flight.Group[[]byte]
	jobs   *jobEngine
	mux    *http.ServeMux

	// walReplay records what WAL recovery found at startup (zero for a
	// fresh or memory-only server).
	walReplay store.ReplayStats

	inflight     atomic.Int64 // computations currently executing
	computations atomic.Int64 // computations actually run (≠ requests served)

	// Expansion-engine counters, accumulated per actual computation (cache
	// hits and coalesced waiters don't touch the engine). The same
	// worker-invariant counters also appear in each cached response body;
	// /metrics totals them across computations, and the per-kernel run
	// counts make the active kernel variant (the search's uint64 or bitset
	// representation, or the randomized tier) observable in production.
	engineSets      atomic.Int64
	enginePruned    atomic.Int64
	engineVisited   atomic.Int64
	engineSubtrees  atomic.Int64
	engineCertified atomic.Int64 // computations answered by the randomized certified tier
	engineTrials    atomic.Int64 // randomized trials spent across those computations
	engineMu        sync.Mutex
	engineKernel    map[string]int64

	// computeHook, when non-nil, runs inside the singleflight execution
	// just before the computation. Tests use it to hold a computation open
	// while concurrent identical requests pile up.
	computeHook func(key string)
}

// recordEngine folds one expansion Result's engine counters into the
// /metrics gauges.
func (s *Server) recordEngine(res expansion.Result) {
	s.engineSets.Add(int64(res.Sets))
	s.enginePruned.Add(res.Pruned)
	s.engineVisited.Add(res.Visited)
	s.engineSubtrees.Add(res.SubtreesPruned)
	if res.Cert.Kind == expansion.CertCertified {
		s.engineCertified.Add(1)
	}
	s.engineTrials.Add(int64(res.Cert.Trials))
	s.engineMu.Lock()
	s.engineKernel[res.Kernel]++
	s.engineMu.Unlock()
}

// Open returns a ready-to-serve Server. With cfg.DataDir set it opens (or
// creates) the durable state underneath — content-addressed graph files,
// the jobs WAL, experiment checkpoints — replays the WAL, truncating any
// torn tail a crash left behind, and resumes incomplete jobs.
func Open(cfg Config) (*Server, error) {
	s := &Server{
		cfg:          cfg,
		cache:        lru.New(orDefault(cfg.CacheBytes, DefaultCacheBytes)),
		flight:       flight.New[[]byte](),
		jobs:         newJobEngine(cfg.MaxJobs),
		mux:          http.NewServeMux(),
		engineKernel: map[string]int64{},
	}
	var recovered []store.JobRecord
	if cfg.DataDir == "" {
		s.store = NewStore(cfg.MaxGraphs)
	} else {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: data dir: %w", err)
		}
		cas, err := store.OpenCAS(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		wal, rs, err := store.OpenWAL(filepath.Join(cfg.DataDir, "jobs.wal"), func(r store.JobRecord) {
			recovered = append(recovered, r)
		})
		if err != nil {
			return nil, err
		}
		s.store = NewDurableStore(cfg.MaxGraphs, cas)
		s.jobs.wal = wal
		s.walReplay = rs
	}
	s.routes()
	s.recoverJobs(recovered)
	return s, nil
}

// New returns a ready-to-serve Server. It is the in-memory constructor:
// with DataDir unset, construction cannot fail. A durable Config should
// use Open; New panics if opening the durable state fails.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func orDefault(v, def int64) int64 {
	if v <= 0 {
		return def
	}
	return v
}

// Close cancels running jobs, waits for their final WAL records, and
// closes the WAL. The Server must not serve requests afterwards.
func (s *Server) Close() error {
	s.jobs.close()
	return nil
}

// SetComputeHook registers fn to run inside each singleflight execution
// just before the computation starts. The router's coalescing tests use
// it to hold a computation open while identical requests pile up across
// the fleet; pass nil to remove. Not safe to call while serving.
func (s *Server) SetComputeHook(fn func(key string)) { s.computeHook = fn }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	s.mux.HandleFunc("POST /v1/graphs", s.handleGraphPut)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphList)
	s.mux.HandleFunc("GET /v1/graphs/{digest}", s.handleGraphGet)
	s.mux.HandleFunc("GET /v1/graphs/{digest}/edges", s.handleGraphEdges)

	s.mux.HandleFunc("GET /v1/expansion", s.handleExpansion)
	s.mux.HandleFunc("GET /v1/spokesman", s.handleSpokesman)
	s.mux.HandleFunc("GET /v1/broadcast", s.handleBroadcast)
	s.mux.HandleFunc("POST /v1/experiments", s.handleExperiments)

	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
}

// computeSpec is one memoizable computation: a canonical cache key, the
// canonical request query it was built from (the serializable form the WAL
// persists, from which recovery rebuilds the spec), and the function
// producing the JSON-marshalable response document. run must be a pure
// function of the key (plus the immutable store content it reads) — the
// memoization contract.
type computeSpec struct {
	op    string
	key   string
	query string
	run   func(ctx context.Context, progress func(done, total int)) (any, error)
}

// servedFrom reports how execute satisfied a request: a cache replay, a
// fresh computation, or a wait on another request's in-flight execution.
type servedFrom string

const (
	servedHit       servedFrom = "hit"
	servedMiss      servedFrom = "miss"
	servedCoalesced servedFrom = "coalesced"
)

// execute serves a computation through the cache and singleflight layers:
// cache hit → replay bytes; miss → at most one concurrent execution per
// key computes, encodes canonically (compact json.Marshal), stores, and
// every coalesced waiter receives the same bytes.
//
// Cancellation is reference-counted: the computation runs under the
// flight's own context, cancelled only when every caller that wants the
// result has cancelled — one client disconnecting never fails another's
// identical request, and each caller's own ctx still bounds its wait.
// Nothing is cached on error, so the next identical request recomputes
// cleanly.
func (s *Server) execute(ctx context.Context, spec computeSpec, progress func(done, total int)) ([]byte, servedFrom, error) {
	if body, ok := s.cache.Get(spec.key); ok {
		return body, servedHit, nil
	}
	innerHit := false
	body, err, shared := s.flight.Do(ctx, spec.key, func(runCtx context.Context) ([]byte, error) {
		// Double-check under the flight: a previous execution may have
		// filled the cache between the miss above and acquiring the
		// flight. The lookup is uncounted — this request's miss is already
		// recorded — but a find is reported as a hit to the caller.
		if body, ok := s.cache.Peek(spec.key); ok {
			innerHit = true
			return body, nil
		}
		if s.computeHook != nil {
			s.computeHook(spec.key)
		}
		s.inflight.Add(1)
		s.computations.Add(1)
		defer s.inflight.Add(-1)
		val, err := spec.run(runCtx, progress)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(val)
		if err != nil {
			return nil, errf(http.StatusInternalServerError, "service: encode %s: %v", spec.op, err)
		}
		s.cache.Put(spec.key, body)
		return body, nil
	})
	switch {
	case innerHit:
		return body, servedHit, err
	case shared:
		return body, servedCoalesced, err
	default:
		return body, servedMiss, err
	}
}

// startJob launches spec as a cancellable background job and returns its
// initial view. The job's result lands in the result cache under the same
// key a synchronous request would use, so a later identical request — or
// the job's result URL — is a cache hit.
func (s *Server) startJob(spec computeSpec) JobView {
	j, ctx := s.jobs.create(spec)
	s.runJob(j, ctx, spec)
	return j.snapshot()
}

// runJob drives a registered job to its terminal state in a goroutine
// tracked by the engine's WaitGroup, so Close waits for the final WAL
// record.
func (s *Server) runJob(j *job, ctx context.Context, spec computeSpec) {
	s.jobs.wg.Add(1)
	go func() {
		defer s.jobs.wg.Done()
		_, _, err := s.execute(ctx, spec, j.setProgress)
		j.finish(err, ctx, "/v1/jobs/"+j.snapshot().ID+"/result")
	}()
}

// recoverJobs turns the replayed WAL into job state: terminal jobs are
// restored as poll-able records, jobs whose cancellation was requested
// before the crash complete as cancelled, and incomplete jobs are rebuilt
// from their persisted request query and re-driven — experiments resume
// from their shard checkpoints, so finished work is not recomputed and the
// final artifact is byte-identical to an uninterrupted run.
func (s *Server) recoverJobs(records []store.JobRecord) {
	for _, rj := range replayWAL(records) {
		s.jobs.noteID(rj.id)
		if rj.state != "" {
			// Terminal before the crash: restore the record. The spec is
			// rebuilt best-effort so the result URL still replays (through
			// the cache-or-recompute path); if the request no longer parses,
			// the result endpoint reports the rebuild error.
			spec, _ := s.rebuildSpec(rj.op, rj.query)
			s.jobs.restoreTerminal(JobView{
				ID: rj.id, Op: rj.op, State: rj.state,
				Done: rj.done, Total: rj.total,
				Error: rj.errMsg, ResultURL: rj.resultURL,
			}, spec)
			continue
		}
		if rj.cancelled {
			// The client asked for cancellation before the crash; honor it
			// instead of resuming, and log the terminal state the original
			// process never got to write.
			s.jobs.restoreTerminal(JobView{
				ID: rj.id, Op: rj.op, State: JobCancelled,
				Done: rj.done, Total: rj.total,
				Error: context.Canceled.Error(),
			}, computeSpec{})
			s.jobs.append(store.JobRecord{
				Job: rj.id, Event: string(JobCancelled), Error: context.Canceled.Error(),
			}, true)
			continue
		}
		spec, err := s.rebuildSpec(rj.op, rj.query)
		if err != nil {
			msg := fmt.Sprintf("recovery: rebuild %s job: %v", rj.op, err)
			s.jobs.restoreTerminal(JobView{
				ID: rj.id, Op: rj.op, State: JobFailed, Error: msg, Resumed: true,
			}, computeSpec{})
			s.jobs.append(store.JobRecord{Job: rj.id, Event: string(JobFailed), Error: msg}, true)
			continue
		}
		s.jobs.mu.Lock()
		j, ctx := s.jobs.registerLocked(rj.id, spec, true)
		s.jobs.mu.Unlock()
		s.runJob(j, ctx, spec)
	}
}
