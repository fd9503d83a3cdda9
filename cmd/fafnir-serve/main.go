// Command fafnir-serve runs the online embedding-lookup service: an HTTP
// front-end whose dynamic micro-batching coalescer merges concurrent
// requests into shared hardware batches, so cross-request duplicate indices
// are read from DRAM once.
//
// Examples:
//
//	fafnir-serve -addr :8080 -linger 500us
//	fafnir-serve -addr 127.0.0.1:0 -batch 32 -queue 512 -rows 4096
//	fafnir-serve -faults "rank=3@0;ecc=0.0005;seed=9"
//	fafnir-serve -shards 4                                    # fault-tolerant fleet router
//	fafnir-serve -shards 4 -faults "shard=1@40000;seed=7"     # fleets also take shard/flap/storm/swstall clauses
//	fafnir-serve -shards 8 -radix 4                           # wider rnet combine switches
//	fafnir-serve -fleets 2 -shards 4                          # multi-fleet federation
//	fafnir-serve -debug-addr 127.0.0.1:6060   # adds /debug/pprof and /debug/vars
//
// Endpoints:
//
//	POST /v1/lookup   {"indices":[1,2,3]} or {"queries":[[1,2],[3]],"op":"sum"}
//	GET  /metrics     Prometheus text format
//	GET  /healthz     ok / draining
//	GET  /debug/slo   SLO flight recorder snapshot: per-lane burn rates plus
//	                  the K slowest and degraded requests (JSON)
//
// The shape flags alone pick the deployment: -shards > 1 or -fleets > 1
// serves through the fleet router, anything else is one system.
//
// SIGINT/SIGTERM drains gracefully: the listener stops, queued and in-flight
// batches finish, then the process exits 0.
package main

import (
	"context"
	"errors"
	_ "expvar" // registers /debug/vars on http.DefaultServeMux
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fafnir"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "fafnir-serve:", err)
	os.Exit(1)
}

// run parses args into a topology, builds its one backend behind one server,
// serves until ctx is done, then drains. Log lines go to out.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fafnir-serve", flag.ContinueOnError)
	var top topology
	top.register(fs)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		linger    = fs.Duration("linger", 500*time.Microsecond, "how long a partial batch waits for co-travellers")
		queue     = fs.Int("queue", 0, "admission queue bound in queries (0 = 16 x batch)")
		timeout   = fs.Duration("timeout", 2*time.Second, "default per-request deadline")
		cacheMB   = fs.Int("cache-mb", 0, "hot-embedding cache budget in MiB (0 disables; split per shard in fleet mode)")
		drainWait = fs.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM")
		debugAddr = fs.String("debug-addr", "", "optional debug listener serving /debug/pprof and /debug/vars (off when empty)")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
		slo       = fs.String("slo", "", `per-lane latency objectives, e.g. "high=50ms,normal=250ms,low=1s" (empty keeps the defaults)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := top.validate(); err != nil {
		return err
	}
	logger, err := fafnir.NewLogger(out, *logFormat)
	if err != nil {
		return err
	}
	objectives, err := parseSLO(*slo)
	if err != nil {
		return err
	}
	// Bind both listeners before building, so no error path leaves a
	// built server behind a failed run.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	var dln net.Listener
	if *debugAddr != "" {
		if dln, err = listenDebug(*debugAddr); err != nil {
			return err
		}
		defer dln.Close()
	}
	backend, err := top.build()
	if err != nil {
		return err
	}
	srv, err := fafnir.NewServer(backend, fafnir.ServeConfig{
		BatchCapacity:  top.batch,
		Linger:         *linger,
		MaxQueued:      *queue,
		DefaultTimeout: *timeout,
		CacheBytes:     int64(*cacheMB) << 20,
		SLOObjectives:  objectives,
	})
	if err != nil {
		return err
	}

	// The literal "listening on host:port" line is the startup handshake:
	// scripts (check.sh's smoke gate) parse the chosen port from it. The
	// logger's text mode renders it byte-identically to the old Printf.
	logger.Infof("listening on %s", ln.Addr())
	cacheInfo := "off"
	if *cacheMB > 0 {
		cacheInfo = fmt.Sprintf("%d MiB", *cacheMB)
	}
	logger.Infof("%s, %d vectors, batch capacity %d, linger %v, queue bound %d, cache %s",
		srv.Topology(), backend.TotalRows(), top.batch, *linger, srv.Coalescer().Config().MaxQueued, cacheInfo)
	if dln != nil {
		logger.Infof("debug listening on %s", dln.Addr())
	}
	return serveUntil(ctx, ln, srv, *drainWait, logger)
}

// listenDebug binds the debug listener serving /debug/pprof and /debug/vars
// (http.DefaultServeMux, which holds nothing else; the service uses its own
// handler). It is a separate socket so profiling endpoints never share the
// service port: keep it bound to localhost or a firewalled interface.
func listenDebug(addr string) (net.Listener, error) {
	dln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	go http.Serve(dln, nil)
	return dln, nil
}

// serveUntil serves srv on ln until ctx is done, then drains: the listener
// stops, queued and in-flight batches finish within drainWait, and the drain
// line reports what was served.
func serveUntil(ctx context.Context, ln net.Listener, srv *fafnir.Server, drainWait time.Duration, logger *fafnir.Logger) error {
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Infof("draining...")
	dctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	m := srv.Metrics()
	logger.Infof("drained cleanly: %d queries in %d batches (coalesce factor %.2f, %.2f reads/query)",
		m.Queries.Value(), m.Batches.Value(), m.CoalesceFactor(), m.ReadsPerQuery())
	return nil
}

// parseSLO parses the -slo flag: comma-separated lane=duration clauses, e.g.
// "high=50ms,normal=250ms,low=1s". Each lane may appear once; lanes left out
// keep the serving layer's defaults, and an empty flag keeps all of them.
func parseSLO(s string) (map[fafnir.Priority]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	m := make(map[fafnir.Priority]time.Duration)
	for _, clause := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return nil, fmt.Errorf(`bad -slo clause %q (want lane=duration, e.g. "high=50ms")`, clause)
		}
		pri, err := fafnir.ParsePriority(strings.TrimSpace(k))
		if err != nil {
			return nil, fmt.Errorf("bad -slo lane in %q: %w", clause, err)
		}
		d, err := time.ParseDuration(strings.TrimSpace(v))
		if err != nil {
			return nil, fmt.Errorf("bad -slo duration in %q: %w", clause, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("bad -slo duration in %q: must be positive", clause)
		}
		if _, dup := m[pri]; dup {
			return nil, fmt.Errorf("-slo clause %q repeats lane %s", clause, pri)
		}
		m[pri] = d
	}
	return m, nil
}
