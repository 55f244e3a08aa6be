package service

import (
	"fmt"
	"net/http"
	"sort"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Metrics is a point-in-time snapshot of the server counters, exposed for
// tests and the benchmark harness; /metrics renders it in the Prometheus
// text format.
type Metrics struct {
	CacheHits      int64
	CacheMisses    int64
	CacheEntries   int64
	CacheBytes     int64
	CacheEvictions int64
	// Computations counts underlying engine executions — the number that
	// stays at 1 when N identical requests race (singleflight) or repeat
	// (memoization).
	Computations int64
	// Coalesced counts requests that waited on another request's in-flight
	// execution of the same key.
	Coalesced int64
	Inflight  int64
	// Graphs counts stored graphs (the durable tier when one exists);
	// GraphsCached counts the decoded graphs resident in memory, and
	// GraphEvictions the cache-tier evictions (both equal Graphs / zero on
	// a memory-only server, which never evicts).
	Graphs         int64
	GraphsCached   int64
	GraphEvictions int64
	JobsCreated    int64
	JobsCancelled  int64
	JobsRunning    int64
	// JobsResumed counts jobs re-driven from the WAL after a restart.
	JobsResumed int64
	// WALRecords is the number of valid WAL records replayed at startup;
	// WALTornBytes the length of the torn tail truncated (0 for a clean
	// log or a memory-only server).
	WALRecords   int64
	WALTornBytes int64

	// Expansion-engine counters across all actual computations: candidate
	// sets evaluated, sets skipped by pruning, search-tree nodes expanded,
	// and whole subtrees cut by the branch-and-bound bounds (each
	// computation's own counters also appear in its cached body — they are
	// worker-invariant), plus computation counts per kernel variant
	// (small-bnb, big-bnb, randomized-ppsz).
	EngineSets     int64
	EnginePruned   int64
	EngineVisited  int64
	EngineSubtrees int64
	// EngineCertified counts computations answered by the randomized
	// certified tier (exact search over budget); EngineTrials totals the
	// randomized trials those computations spent.
	EngineCertified int64
	EngineTrials    int64
	EngineKernels   map[string]int64
}

// Snapshot collects the current metrics.
func (s *Server) Snapshot() Metrics {
	cs := s.cache.Stats()
	fs := s.flight.Stats()
	created, cancelled, resumed, running := s.jobs.counts()
	s.engineMu.Lock()
	kernels := make(map[string]int64, len(s.engineKernel))
	for k, v := range s.engineKernel {
		kernels[k] = v
	}
	s.engineMu.Unlock()
	return Metrics{
		CacheHits:       cs.Hits,
		CacheMisses:     cs.Misses,
		CacheEntries:    int64(cs.Entries),
		CacheBytes:      cs.Bytes,
		CacheEvictions:  cs.Evictions,
		Computations:    s.computations.Load(),
		Coalesced:       fs.Coalesced,
		Inflight:        s.inflight.Load(),
		Graphs:          int64(s.store.Len()),
		GraphsCached:    int64(s.store.CachedLen()),
		GraphEvictions:  s.store.Evictions(),
		JobsCreated:     created,
		JobsCancelled:   cancelled,
		JobsRunning:     running,
		JobsResumed:     resumed,
		WALRecords:      int64(s.walReplay.Records),
		WALTornBytes:    s.walReplay.TruncatedBytes,
		EngineSets:      s.engineSets.Load(),
		EnginePruned:    s.enginePruned.Load(),
		EngineVisited:   s.engineVisited.Load(),
		EngineSubtrees:  s.engineSubtrees.Load(),
		EngineCertified: s.engineCertified.Load(),
		EngineTrials:    s.engineTrials.Load(),
		EngineKernels:   kernels,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Snapshot()
	gauges := map[string]int64{
		"wexpd_cache_hits":                   m.CacheHits,
		"wexpd_cache_misses":                 m.CacheMisses,
		"wexpd_cache_entries":                m.CacheEntries,
		"wexpd_cache_bytes":                  m.CacheBytes,
		"wexpd_cache_evictions":              m.CacheEvictions,
		"wexpd_computations":                 m.Computations,
		"wexpd_coalesced_requests":           m.Coalesced,
		"wexpd_inflight":                     m.Inflight,
		"wexpd_graphs_stored":                m.Graphs,
		"wexpd_graphs_cached":                m.GraphsCached,
		"wexpd_graph_evictions":              m.GraphEvictions,
		"wexpd_jobs_created":                 m.JobsCreated,
		"wexpd_jobs_cancelled":               m.JobsCancelled,
		"wexpd_jobs_running":                 m.JobsRunning,
		"wexpd_jobs_resumed":                 m.JobsResumed,
		"wexpd_wal_records_replayed":         m.WALRecords,
		"wexpd_wal_torn_bytes":               m.WALTornBytes,
		"wexpd_engine_sets_total":            m.EngineSets,
		"wexpd_engine_pruned_total":          m.EnginePruned,
		"wexpd_engine_visited_total":         m.EngineVisited,
		"wexpd_engine_subtrees_pruned_total": m.EngineSubtrees,
		"wexpd_engine_certified_runs":        m.EngineCertified,
		"wexpd_engine_trials_total":          m.EngineTrials,
	}
	names := make([]string, 0, len(gauges))
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, n := range names {
		fmt.Fprintf(w, "%s %d\n", n, gauges[n])
	}
	kernels := make([]string, 0, len(m.EngineKernels))
	for k := range m.EngineKernels {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	for _, k := range kernels {
		fmt.Fprintf(w, "wexpd_engine_kernel_runs{kernel=%q} %d\n", k, m.EngineKernels[k])
	}
}
