package service

import (
	"bytes"
	"net/http"
	"runtime"
	"time"

	"repro/internal/obs"
)

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleReadyz is the readiness probe: 200 once the system can serve
// evaluation traffic (engine built; store directory usable when one is
// configured), 503 with the reason otherwise. Liveness (/v1/healthz)
// stays 200 throughout — a replica with a broken store volume is alive
// but should be rotated out of the balancer.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.sys.Ready(); err != nil {
		if obs.Service.Enabled(obs.LevelError) {
			obs.Service.Log(r.Context(), obs.LevelError, "not ready", "err", err)
		}
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "unavailable", "error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics serves the Prometheus text exposition: engine
// computation counters and cache gauges, per-job timing histograms,
// artifact-store counters (only when a store is configured), per-route
// HTTP metrics, and Go runtime basics. The exposition is rendered into
// a buffer first so a validation error can become a clean 500 instead
// of a torn scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	e := obs.NewExposition(&buf)
	s.writeEngineMetrics(e)
	s.writeWireMetrics(e)
	s.writeStoreMetrics(e)
	s.writeFleetMetrics(e)
	s.writeTraceMetrics(e)
	s.httpm.WriteTo(e)
	s.writeRuntimeMetrics(e)
	if err := e.Err(); err != nil {
		http.Error(w, "metrics rendering failed: "+err.Error(),
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", metricsContentType)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) writeEngineMetrics(e *obs.Exposition) {
	es := s.sys.EngineStats()

	e.Family("mppm_engine_recordings_computed_total", "counter",
		"Profiling-frontend recordings computed (full trace passes, not cache hits).")
	e.Value(float64(es.RecordingComputations))
	e.Family("mppm_engine_profiles_computed_total", "counter",
		"Single-core profiles computed (replays, not cache or store hits).")
	e.Value(float64(es.ProfileComputations))
	e.Family("mppm_engine_simulations_computed_total", "counter",
		"Detailed multi-core simulations computed (not served from cache).")
	e.Value(float64(es.SimulationComputations))

	e.Family("mppm_engine_cached_recordings", "gauge",
		"Recordings currently held by the in-memory cache.")
	e.Value(float64(es.CachedRecordings))
	e.Family("mppm_engine_cached_profiles", "gauge",
		"Single-core profiles currently held by the in-memory cache.")
	e.Value(float64(es.CachedProfiles))
	e.Family("mppm_engine_cached_simulations", "gauge",
		"Simulation results currently held by the in-memory cache.")
	e.Value(float64(es.CachedSimulations))

	e.Family("mppm_engine_jobs_total", "counter",
		"Evaluation jobs completed by the engine worker pool.")
	e.Value(float64(obs.EngineJobsTotal.Value()))
	e.Family("mppm_engine_job_errors_total", "counter",
		"Evaluation jobs that completed with an error.")
	e.Value(float64(obs.EngineJobErrorsTotal.Value()))
	e.Family("mppm_engine_job_queue_seconds", "histogram",
		"Time evaluation jobs waited for a worker slot.")
	e.Hist(obs.EngineJobQueueSeconds)
	e.Family("mppm_engine_job_run_seconds", "histogram",
		"Time evaluation jobs spent running (profile replays, model solves, simulations).")
	e.Hist(obs.EngineJobRunSeconds)
}

// writeWireMetrics emits the /v1/eval wire-protocol and request-
// coalescer families. Always on: every replica negotiates these paths.
func (s *Server) writeWireMetrics(e *obs.Exposition) {
	e.Family("mppm_coalesced_requests_total", "counter",
		"Eval requests that joined an identical in-flight evaluation instead of starting their own.")
	e.Value(float64(obs.CoalescedRequestsTotal.Value()))
	e.Family("mppm_wire_rows_total", "counter",
		"Scenario rows emitted in the binary wire format.")
	e.Value(float64(obs.WireRowsTotal.Value()))
	e.Family("mppm_wire_bytes_in_total", "counter",
		"Binary wire bytes read: request documents and response streams decoded.")
	e.Value(float64(obs.WireBytesInTotal.Value()))
	e.Family("mppm_wire_bytes_out_total", "counter",
		"Binary wire bytes written in responses.")
	e.Value(float64(obs.WireBytesOutTotal.Value()))
}

// writeStoreMetrics emits the artifact-store families; a system without
// a store emits none (absent families read cleaner than permanent
// zeros for a tier that does not exist).
func (s *Server) writeStoreMetrics(e *obs.Exposition) {
	ss, _, ok := s.sys.StoreStats()
	if !ok {
		return
	}
	e.Family("mppm_store_recording_hits_total", "counter",
		"Recordings served from the persistent artifact store.")
	e.Value(float64(ss.RecordingHits))
	e.Family("mppm_store_recording_misses_total", "counter",
		"Recording store lookups that missed (absent, stale or rejected).")
	e.Value(float64(ss.RecordingMisses))
	e.Family("mppm_store_profile_hits_total", "counter",
		"Profiles served from the persistent artifact store.")
	e.Value(float64(ss.ProfileHits))
	e.Family("mppm_store_profile_misses_total", "counter",
		"Profile store lookups that missed (absent, stale or rejected).")
	e.Value(float64(ss.ProfileMisses))
	e.Family("mppm_store_rejected_total", "counter",
		"Store loads that discarded a corrupt, stale or version-skewed file.")
	e.Value(float64(ss.Rejected))
	e.Family("mppm_store_saves_total", "counter",
		"Artifacts persisted to the store by this process.")
	e.Value(float64(ss.Saves))
	e.Family("mppm_store_save_skips_total", "counter",
		"Saves elided because the artifact already existed.")
	e.Value(float64(ss.SaveSkips))
	e.Family("mppm_store_save_errors_total", "counter",
		"Store save attempts that failed with an I/O error.")
	e.Value(float64(ss.SaveErrors))
	e.Family("mppm_store_bytes_loaded_total", "counter",
		"File bytes served from the persistent artifact store.")
	e.Value(float64(ss.BytesLoaded))
	e.Family("mppm_store_peer_fetch_hits_total", "counter",
		"Artifact loads served by pulling valid bytes from a fleet peer.")
	e.Value(float64(ss.PeerFetchHits))
	e.Family("mppm_store_peer_fetch_misses_total", "counter",
		"Peer fetch attempts that failed (no peer had the artifact, or offered bytes were invalid).")
	e.Value(float64(ss.PeerFetchMisses))
	e.Family("mppm_store_peer_bytes_fetched_total", "counter",
		"Raw artifact bytes pulled from fleet peers.")
	e.Value(float64(ss.PeerBytesFetched))
}

// writeTraceMetrics emits the distributed-tracing families. Always on:
// the counters are cheap, and a zero reads as "tracing off" rather
// than a missing family.
func (s *Server) writeTraceMetrics(e *obs.Exposition) {
	e.Family("mppm_trace_spans_total", "counter",
		"Trace spans recorded by the in-process flight recorder.")
	e.Value(float64(obs.TraceSpansTotal.Value()))
	e.Family("mppm_trace_spans_dropped_total", "counter",
		"Trace spans dropped or evicted by the flight recorder's bounds.")
	e.Value(float64(obs.TraceSpansDroppedTotal.Value()))
	e.Family("mppm_trace_span_duration_seconds", "histogram",
		"Recorded span durations, by component.")
	for _, c := range obs.Components() {
		e.Hist(c.SpanSeconds(), "component", c.Name())
	}
}

// writeFleetMetrics emits the fleet coordinator and peer-fetch-client
// families; a server constructed without WithFleetMetrics emits none.
func (s *Server) writeFleetMetrics(e *obs.Exposition) {
	if !s.fleet {
		return
	}
	e.Family("mppm_fleet_shards_dispatched_total", "counter",
		"Shard sub-requests sent to fleet replicas, including retries and failovers.")
	e.Value(float64(obs.FleetShardsDispatchedTotal.Value()))
	e.Family("mppm_fleet_shard_retries_total", "counter",
		"Shard attempts retried against the same replica after a transport failure.")
	e.Value(float64(obs.FleetShardRetriesTotal.Value()))
	e.Family("mppm_fleet_shard_failovers_total", "counter",
		"Shards re-hashed onto surviving replicas after their owner was declared down.")
	e.Value(float64(obs.FleetShardFailoversTotal.Value()))
	e.Family("mppm_fleet_peer_fetch_hits_total", "counter",
		"Artifacts this process's fetch client pulled from a fleet peer.")
	e.Value(float64(obs.FleetPeerFetchHitsTotal.Value()))
	e.Family("mppm_fleet_peer_fetch_misses_total", "counter",
		"Peer artifact fetches that every healthy peer answered empty.")
	e.Value(float64(obs.FleetPeerFetchMissesTotal.Value()))
	e.Family("mppm_fleet_merge_stall_seconds", "histogram",
		"Per-row wait in the coordinator's reorder buffer for earlier rows to arrive.")
	e.Hist(obs.FleetMergeStallSeconds)
}

func (s *Server) writeRuntimeMetrics(e *obs.Exposition) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	e.Family("mppm_process_uptime_seconds", "gauge",
		"Seconds since this server was constructed.")
	e.Value(time.Since(s.start).Seconds())
	e.Family("go_goroutines", "gauge", "Number of goroutines that currently exist.")
	e.Value(float64(runtime.NumGoroutine()))
	e.Family("go_memstats_heap_alloc_bytes", "gauge",
		"Heap bytes allocated and still in use.")
	e.Value(float64(ms.HeapAlloc))
	e.Family("go_memstats_heap_objects", "gauge",
		"Number of allocated heap objects.")
	e.Value(float64(ms.HeapObjects))
	e.Family("go_memstats_sys_bytes", "gauge",
		"Bytes of memory obtained from the OS.")
	e.Value(float64(ms.Sys))
	e.Family("go_memstats_alloc_bytes_total", "counter",
		"Cumulative bytes allocated for heap objects.")
	e.Value(float64(ms.TotalAlloc))
	e.Family("go_gc_cycles_total", "counter", "Completed GC cycles.")
	e.Value(float64(ms.NumGC))
}
