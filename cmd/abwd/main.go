// Command abwd runs the admission-control daemon: an HTTP/JSON service
// that owns a multirate network, tracks admitted flows, and answers
// availability queries with the paper's exact model.
//
// Usage:
//
//	abwd -addr :8080
//
// Walkthrough:
//
//	abwtopo -nodes 30 -spec | jq '{nodes}' | curl -X PUT -d @- localhost:8080/v1/network
//	curl -X POST -d '{"src":2,"dst":8,"demandMbps":2}' localhost:8080/v1/flows
//	curl localhost:8080/v1/flows
//	curl -X DELETE localhost:8080/v1/flows/1
//
// Observability: /metrics serves the Prometheus exposition (disable
// with -metrics=false), /healthz and /readyz serve liveness and
// readiness probes, -slowquery logs queries whose computation exceeds
// the threshold with their per-stage trace, and -pprofaddr serves
// net/http/pprof on a separate listener so profiling never shares a
// port with the API. Structured JSON logs go to stderr; the startup
// line on stdout stays plain text for scripts.
//
// abwd shuts down gracefully on SIGINT or SIGTERM: the listener stops
// accepting, in-flight requests get drainTimeout to finish (their
// contexts are canceled past that), and the cache's on-disk spill is
// flushed and closed before the process exits — so every set family
// enumerated during the run survives to warm the next one. A second
// signal during the drain kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"abw/internal/obs"
	"abw/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// drainTimeout bounds graceful shutdown: how long in-flight requests
// get to finish after SIGINT/SIGTERM before their connections are
// closed forcibly.
const drainTimeout = 10 * time.Second

// cliConfig is the parsed abwd command line.
type cliConfig struct {
	addr         string
	workers      int
	cache        bool
	cacheBytes   int64
	cacheDir     string
	queryTimeout time.Duration
	metrics      bool
	slowQuery    time.Duration
	pprofAddr    string
	logLevel     string
}

// parseArgs parses and validates flags. -cachebytes and -cachedir
// imply -cache (their help says so) rather than being silently
// ignored; an explicitly empty -cachedir, a negative -querytimeout, a
// negative -slowquery and an unknown -loglevel are usage errors.
func parseArgs(args []string, stderr io.Writer) (*cliConfig, error) {
	fs := flag.NewFlagSet("abwd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &cliConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.workers, "workers", 0, "enumeration workers (0 = automatic, 1 = sequential)")
	fs.BoolVar(&cfg.cache, "cache", false, "enable the memo cache: set-family reuse, LP warm-starting, GET /v1/stats counters")
	fs.Int64Var(&cfg.cacheBytes, "cachebytes", 0, "retained-bytes budget, applied separately to the set-family cache and to the session's warm LPs and verdicts (0 = default; implies -cache)")
	fs.StringVar(&cfg.cacheDir, "cachedir", "", "directory for the crash-safe on-disk set-family spill, so a restarted abwd warms instantly (implies -cache)")
	fs.DurationVar(&cfg.queryTimeout, "querytimeout", 0, "per-request computation deadline, e.g. 500ms or 2s (0 = unbounded); requests past it answer 504")
	fs.BoolVar(&cfg.metrics, "metrics", true, "serve the Prometheus exposition on GET /metrics and merge the snapshot into GET /v1/stats")
	fs.DurationVar(&cfg.slowQuery, "slowquery", 0, "log queries whose computation exceeds this duration, with their per-stage trace (0 = disabled)")
	fs.StringVar(&cfg.pprofAddr, "pprofaddr", "", "listen address for net/http/pprof on a separate mux (empty = disabled), e.g. localhost:6060")
	fs.StringVar(&cfg.logLevel, "loglevel", "info", "structured log level: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["cachedir"] && cfg.cacheDir == "" {
		fmt.Fprintln(stderr, "abwd: -cachedir needs a non-empty directory")
		fs.Usage()
		return nil, flag.ErrHelp
	}
	if cfg.queryTimeout < 0 {
		fmt.Fprintln(stderr, "abwd: -querytimeout must be non-negative")
		fs.Usage()
		return nil, flag.ErrHelp
	}
	if cfg.slowQuery < 0 {
		fmt.Fprintln(stderr, "abwd: -slowquery must be non-negative")
		fs.Usage()
		return nil, flag.ErrHelp
	}
	if set["pprofaddr"] && cfg.pprofAddr == "" {
		fmt.Fprintln(stderr, "abwd: -pprofaddr needs a non-empty address")
		fs.Usage()
		return nil, flag.ErrHelp
	}
	switch cfg.logLevel {
	case "debug", "info", "warn", "error":
	default:
		fmt.Fprintln(stderr, "abwd: -loglevel must be debug, info, warn or error")
		fs.Usage()
		return nil, flag.ErrHelp
	}
	if set["cachebytes"] || set["cachedir"] {
		cfg.cache = true
	}
	return cfg, nil
}

// pprofMux builds a dedicated mux with the net/http/pprof handlers, so
// profiling is served from its own listener instead of riding the API
// mux (or the DefaultServeMux side effect of a blank pprof import).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(args []string) int {
	cfg, err := parseArgs(args, os.Stderr)
	if err != nil {
		return 2
	}
	logger := obs.NewLogger(os.Stderr, cfg.logLevel)
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		logger.Error("listen failed", "addr", cfg.addr, "err", err.Error())
		return 1
	}
	// The plain-text announcement on stdout is a stable interface:
	// scripts (scripts/e2e.sh among them) parse the resolved address
	// from it. Structured logs go to stderr.
	fmt.Printf("abwd listening on %s\n", ln.Addr())
	logger.Info("listening", "addr", ln.Addr().String(),
		"metrics", cfg.metrics, "slowQuery", cfg.slowQuery.String(), "pprofAddr", cfg.pprofAddr)

	s := server.New()
	s.SetWorkers(cfg.workers)
	s.SetQueryTimeout(cfg.queryTimeout)
	s.SetLogger(logger)
	s.SetSlowQuery(cfg.slowQuery)
	if cfg.metrics {
		s.SetMetrics(obs.NewRegistry())
	}
	if cfg.cache {
		s.SetCacheBytes(cfg.cacheBytes)
	}
	if cfg.cacheDir != "" {
		if err := s.SetCacheDir(cfg.cacheDir); err != nil {
			logger.Error("cache dir", "dir", cfg.cacheDir, "err", err.Error())
			return 1
		}
	}

	// The profiler fails fast: a bad -pprofaddr is a startup error, not
	// a silent no-op discovered when someone needs a profile.
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			logger.Error("pprof listen failed", "addr", cfg.pprofAddr, "err", err.Error())
			return 1
		}
		defer pln.Close()
		logger.Info("pprof listening", "addr", pln.Addr().String())
		psrv := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Error("pprof server", "err", err.Error())
			}
		}()
	}

	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Shutdown ordering: stop accepting and drain in-flight requests
	// first (srv.Shutdown), THEN flush and close the cache spill — a
	// request finishing during the drain may still enqueue families,
	// and flushing before the drain would lose them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	exit := 0
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err.Error())
			exit = 1
		}
	case <-ctx.Done():
		stop() // a second signal now kills immediately (default handling)
		logger.Info("signal received, draining", "drainTimeout", drainTimeout.String())
		drain := obs.StartWatch()
		shCtx, cancelSh := context.WithTimeout(context.Background(), drainTimeout)
		if err := srv.Shutdown(shCtx); err != nil {
			logger.Error("drain", "err", err.Error())
			exit = 1
		}
		cancelSh()
		<-serveErr // Serve has returned http.ErrServerClosed
		logger.Info("drained", "drainMs", drain.Elapsed().Milliseconds())
	}
	if err := s.Close(); err != nil {
		logger.Error("closing cache store", "err", err.Error())
		exit = 1
	}
	// The final counters are read after Close so DiskBytes reflects the
	// flushed spill, not a mid-flight snapshot.
	st, ss := s.CacheStats(), s.SessionStats()
	logger.Info("shutdown complete", "exit", exit,
		"cacheEntries", st.Entries, "cacheBytes", st.Bytes, "diskBytes", st.DiskBytes,
		"sessionEntries", ss.Entries, "sessionBytes", ss.Bytes, "sessionMaxBytes", ss.MaxBytes,
		"sessionEvictions", ss.Evictions)
	return exit
}
