// Command mppmd serves the Multi-Program Performance Model as a JSON
// HTTP prediction service. Where the mppm CLI answers one question per
// process, mppmd keeps the expensive single-core profiles warm in a
// singleflight cache and answers evaluation requests from a shared
// bounded worker pool.
//
// Start it and ask for an evaluation:
//
//	mppmd -addr :8080 &
//	curl -s localhost:8080/v1/benchmarks | head
//	curl -s -X POST localhost:8080/v1/eval \
//	    -d '{"mix":["gamess","lbm","soplex","mcf"]}'
//	curl -s -X POST localhost:8080/v1/eval \
//	    -d '{"kind":"compare","mixes":[["gamess","lbm"],["mcf","milc"]],
//	         "configs":["config#1","config#4"]}'
//
// SIGINT/SIGTERM drain in-flight requests (and the background -warm
// goroutine) before exiting.
//
// With -store, the engine caches gain a persistent on-disk tier shared
// between replicas: profiles warmed or computed by one process are
// loaded — not recomputed — by the next, making a warm-store cold
// start nearly free. GET /v1/stats reports the engine and store
// counters.
//
// # Fleet
//
// With -peers, the process joins an mppmd fleet: local artifact misses
// are filled from healthy, codec-compatible peers (raw stored bytes,
// checksum intact) before anything is recomputed, and the /metrics
// exposition gains the fleet families. With -coordinate, POST /v1/eval
// is consistent-hash-sharded across the peers as streaming sub-requests
// (binary wire streams; NDJSON to a peer on another wire version) and
// the shard rows are merged back into one ordered response,
// byte-identical to a single replica's answer. Sub-requests
// carry a marker header and are always served locally, so every
// replica may run -coordinate and any of them can take fleet traffic:
//
//	mppmd -addr :8080 -store /var/mppm -peers http://n1:8080,http://n2:8080,http://n3:8080 \
//	    -advertise http://n1:8080 -coordinate
//
// # Observability
//
// GET /metrics serves a Prometheus text exposition (engine, store,
// per-route HTTP and Go runtime families); GET /v1/healthz and
// GET /v1/readyz are the liveness and readiness probes; -pprof mounts
// the stdlib profiling handlers under /debug/pprof/.
//
// Logging is leveled and structured (one line per record on stderr).
// Three knobs set the per-subsystem trace levels, lowest precedence
// first:
//
//	-log-level info                  base level for every component
//	MPPM_TRACE="engine=debug"        environment override
//	-trace "engine=debug,store=off"  flag override (wins)
//
// Each knob accepts either a bare level (off, error, info, debug),
// applied to all components, or a comma-separated component=level list
// over engine, store, sim and service.
//
// Distributed tracing is sampled separately: -trace-sample (or the
// MPPM_TRACE_SAMPLE environment variable; the flag wins) sets the
// fraction of requests traced into the in-process flight recorder,
// 0 (the default, zero-cost) to 1. Any non-zero rate also mounts
// GET /v1/debug/traces (+ /{id}); with -coordinate the per-trace
// endpoint stitches every replica's spans into one tree, rendered by
// `mppm trace`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	mppm "repro"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/service"
)

// options carries everything main parses out of the command line.
type options struct {
	addr        string
	llcName     string
	traceLen    int64
	interval    int64
	workers     int
	drainWindow time.Duration
	warm        string
	storeDir    string
	logLevel    string
	trace       string
	traceSample float64
	pprof       bool
	peers       string
	advertise   string
	coordinate  bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.llcName, "llc", "config#1", "default LLC configuration (requests override per call)")
	flag.Int64Var(&o.traceLen, "trace-length", 0, "per-benchmark trace length in instructions (0 = paper scale, 10M)")
	flag.Int64Var(&o.interval, "interval", 0, "profiling interval length in instructions (0 = paper scale, 200K)")
	flag.IntVar(&o.workers, "workers", 0, "evaluation worker pool size (0 = GOMAXPROCS)")
	flag.DurationVar(&o.drainWindow, "drain", 30*time.Second, "graceful-shutdown drain window")
	flag.StringVar(&o.warm, "warm", "", `pre-profile the suite at startup: "all" for every Table 2 config, or a comma-separated config list (e.g. "config#1,config#4")`)
	flag.StringVar(&o.storeDir, "store", "", "persistent artifact store directory shared between replicas (empty = in-memory caches only)")
	flag.StringVar(&o.logLevel, "log-level", "info", "base trace level for all components (off, error, info, debug)")
	flag.StringVar(&o.trace, "trace", "", `per-component trace levels, e.g. "engine=debug,store=info"; overrides MPPM_TRACE and -log-level`)
	flag.Float64Var(&o.traceSample, "trace-sample", 0, "fraction of requests to trace into the flight recorder, 0 (off) to 1; overrides MPPM_TRACE_SAMPLE and mounts /v1/debug/traces when non-zero")
	flag.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	flag.StringVar(&o.peers, "peers", "", `comma-separated fleet replica base URLs (e.g. "http://a:8080,http://b:8080"); enables peer artifact fetch and fleet metrics`)
	flag.StringVar(&o.advertise, "advertise", "", "this replica's own base URL within -peers (excluded from peer fetches; required with -coordinate when serving shards locally)")
	flag.BoolVar(&o.coordinate, "coordinate", false, "coordinator mode: shard POST /v1/eval across -peers and merge the ordered shard streams")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mppmd:", err)
		os.Exit(1)
	}
}

// configureTracing applies the three trace knobs lowest precedence
// first, so later ones override earlier ones component by component:
// -log-level (base), then the MPPM_TRACE environment variable, then
// the -trace flag.
func configureTracing(o options) error {
	if o.logLevel != "" {
		if err := obs.Configure(o.logLevel); err != nil {
			return fmt.Errorf("-log-level: %w", err)
		}
	}
	if env := os.Getenv("MPPM_TRACE"); env != "" {
		if err := obs.Configure(env); err != nil {
			return fmt.Errorf("MPPM_TRACE: %w", err)
		}
	}
	if o.trace != "" {
		if err := obs.Configure(o.trace); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	rate := o.traceSample
	if rate == 0 {
		if env := os.Getenv("MPPM_TRACE_SAMPLE"); env != "" {
			r, err := strconv.ParseFloat(env, 64)
			if err != nil {
				return fmt.Errorf("MPPM_TRACE_SAMPLE: %w", err)
			}
			rate = r
		}
	}
	if rate < 0 || rate > 1 {
		return fmt.Errorf("trace sample rate %v outside [0, 1]", rate)
	}
	obs.SetTraceSampleRate(rate)
	return nil
}

// warmConfigs resolves the -warm flag into LLC configurations.
func warmConfigs(warm string) ([]mppm.LLCConfig, error) {
	if warm == "" {
		return nil, nil
	}
	if warm == "all" {
		return mppm.LLCConfigs(), nil
	}
	var configs []mppm.LLCConfig
	for _, name := range strings.Split(warm, ",") {
		llc, err := mppm.LLCConfigByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		configs = append(configs, llc)
	}
	return configs, nil
}

// fleetPeers parses the -peers flag into replica base URLs.
func fleetPeers(peers string) []string {
	var out []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(o options) error {
	if err := configureTracing(o); err != nil {
		return err
	}
	llc, err := mppm.LLCConfigByName(o.llcName)
	if err != nil {
		return err
	}
	peers := fleetPeers(o.peers)
	opts := []mppm.SystemOption{
		mppm.WithScale(o.traceLen, o.interval),
		mppm.WithWorkers(o.workers),
	}
	if o.storeDir != "" {
		opts = append(opts, mppm.WithStore(o.storeDir))
	}
	if len(peers) > 0 && o.storeDir != "" {
		// Fleet-aware store tier: a local artifact miss asks healthy,
		// codec-compatible peers for the raw stored bytes before the
		// engine recomputes — a replica joining a warm fleet cold-starts
		// without redoing a single profiling pass.
		fetcher := fleet.NewFetcher(peers, o.advertise, nil)
		if fetcher.Peers() > 0 {
			opts = append(opts, mppm.WithPeerFetch(fetcher.Fetch))
		}
	}
	sys := mppm.NewSystem(llc, opts...)
	var srvOpts []service.Option
	if o.pprof {
		srvOpts = append(srvOpts, service.WithPprof())
	}
	if obs.TraceEnabled() {
		srvOpts = append(srvOpts, service.WithTraceDebug())
	}
	if len(peers) > 0 {
		srvOpts = append(srvOpts, service.WithFleetMetrics())
	}
	handler := service.New(sys, srvOpts...).Handler()
	if o.coordinate {
		if len(peers) == 0 {
			return fmt.Errorf("-coordinate needs -peers")
		}
		coord, err := fleet.New(fleet.Config{
			Peers: peers, DefaultConfig: llc.Name, TraceDebug: obs.TraceEnabled(),
		})
		if err != nil {
			return err
		}
		handler = coord.Mount(handler)
	}
	srv := &http.Server{
		Addr:    o.addr,
		Handler: handler,
		// Slow-client hygiene: a stalled header read or an idle keep-alive
		// connection must not pin a serving slot forever. No overall write
		// timeout — streamed /v1/eval responses legitimately run long.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log := obs.Service
	if o.storeDir != "" {
		log.Log(ctx, obs.LevelInfo, "artifact store attached", "dir", o.storeDir)
	}

	// Warm in the background so the listener is live immediately; the
	// record/replay pipeline makes an N-config warmup cost about one
	// profiling pass per benchmark, and requests arriving mid-warmup
	// simply share the in-flight profiles via the singleflight cache.
	// With a store configured, warmed artifacts are persisted as they
	// are produced, so the next replica's warmup is nearly free. The
	// goroutine is tied to the server's base context and drained on
	// shutdown: cancellation aborts the warmup promptly, and waiting for
	// it guarantees no store write is abandoned mid-flight.
	var warmWG sync.WaitGroup
	if configs, err := warmConfigs(o.warm); err != nil {
		return err
	} else if len(configs) > 0 {
		warmWG.Add(1)
		go func() {
			defer warmWG.Done()
			start := time.Now()
			n, err := sys.Warm(ctx, configs...)
			if err != nil {
				log.Log(ctx, obs.LevelError, "warmup aborted", "err", err)
				return
			}
			log.Log(ctx, obs.LevelInfo, "warmup done",
				"profiles", n, "configs", len(configs),
				"elapsed", time.Since(start).Round(time.Millisecond))
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Log(ctx, obs.LevelInfo, "listening",
			"addr", o.addr, "pprof", o.pprof, "metrics", "/metrics")
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		stop() // unblock the warm goroutine before reporting the listen error
		warmWG.Wait()
		return err
	case <-ctx.Done():
	}

	log.Log(ctx, obs.LevelInfo, "shutting down", "drain", o.drainWindow)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainWindow)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	warmWG.Wait() // the signal context is cancelled; the warmup exits promptly
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-errc
}
