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
//	fafnir-serve -shards 4 -fault-storm "shard=1@40000;seed=7"
//	fafnir-serve -shards 8 -radix 4                           # wider rnet combine switches
//	fafnir-serve -fleets 2 -shards 4 -verify                  # multi-fleet federation, oracle-checked
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
// SIGINT/SIGTERM drains gracefully: the listener stops, queued and in-flight
// batches finish, then the process exits 0.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fafnir"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fafnir-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		linger    = flag.Duration("linger", 500*time.Microsecond, "how long a partial batch waits for co-travellers")
		batch     = flag.Int("batch", 32, "hardware batch capacity in queries")
		queue     = flag.Int("queue", 0, "admission queue bound in queries (0 = 16 x batch)")
		timeout   = flag.Duration("timeout", 2*time.Second, "default per-request deadline")
		ranks     = flag.Int("ranks", 32, "memory ranks")
		rows      = flag.Int("rows", 1<<17, "rows per embedding table (32 tables)")
		seed      = flag.Int64("seed", 1, "table-content seed")
		par       = flag.Int("j", 0, "simulator parallelism (0 = all cores)")
		faults    = flag.String("faults", "", `fault plan, e.g. "rank=3@0;ecc=0.001;seed=9"`)
		shards    = flag.Int("shards", 1, "shard count; >1 serves through the fault-tolerant fleet router")
		fleets    = flag.Int("fleets", 1, "fleet count; >1 serves a multi-fleet federation (implies the fleet router)")
		radix     = flag.Int("radix", 0, "fan-in of the rnet switch trees that combine shard (and, in federation mode, fleet) partials (0 = default 2; setting it implies the fleet router)")
		verify    = flag.Bool("verify", false, "federation mode: re-check every healthy batch bit-for-bit against the reference oracle")
		storm     = flag.String("fault-storm", "", `fleet fault plan, e.g. "shard=1@40000;flap=2@1-300000;storm=6@20000;seed=7" (implies the fleet router)`)
		cacheMB   = flag.Int("cache-mb", 0, "hot-embedding cache budget in MiB (0 disables; split per shard in fleet mode)")
		cacheSeed = flag.Uint64("cache-seed", 1, "cache CLOCK-eviction seed")
		drainWait = flag.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM")
		debugAddr = flag.String("debug-addr", "", "optional debug listener serving /debug/pprof and /debug/vars (off when empty)")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		slo       = flag.String("slo", "", `per-lane latency objectives, e.g. "high=50ms,normal=250ms,low=1s" (empty keeps the defaults)`)
	)
	flag.Parse()

	logger, err := fafnir.NewLogger(os.Stdout, *logFormat)
	if err != nil {
		return err
	}
	objectives, err := parseSLO(*slo)
	if err != nil {
		return err
	}

	scfg := fafnir.ServeConfig{
		BatchCapacity:  *batch,
		Linger:         *linger,
		MaxQueued:      *queue,
		DefaultTimeout: *timeout,
		CacheBytes:     int64(*cacheMB) << 20,
		CacheSeed:      *cacheSeed,
		SLOObjectives:  objectives,
	}

	var (
		srv       *fafnir.Server
		totalRows uint64
		topology  string
	)
	if *fleets > 1 || *shards > 1 || *storm != "" || *radix != 0 {
		// Fleet or federation mode: shards behind the health-checked
		// router, optionally stacked into a multi-fleet federation.
		// Per-shard rank/ecc clauses ride inside the fleet plan, so the
		// single-system -faults flag is rejected to keep one source of
		// truth.
		if *faults != "" {
			return fmt.Errorf("-faults is single-system only; in fleet mode put rank/ecc clauses in -fault-storm")
		}
		if *ranks%*shards != 0 {
			return fmt.Errorf("-ranks %d not divisible by -shards %d", *ranks, *shards)
		}
		fplan, err := fafnir.ParseFleetFaultPlan(*storm)
		if err != nil {
			return err
		}
		fcfg := fafnir.FleetConfig{
			Shards:        *shards,
			RanksPerShard: *ranks / *shards,
			BatchCapacity: *batch,
			Rows:          uint64(*rows) * 32, // mirror the 32-table single-system index space
			Seed:          *seed,
			Parallelism:   *par,
			Fleet:         fplan,
			Rnet:          fafnir.RnetConfig{Radix: *radix},
		}
		if *fleets > 1 {
			fd, err := fafnir.NewFederation(fafnir.FederationConfig{
				Fleets: *fleets,
				Fleet:  fcfg,
				Verify: *verify,
			})
			if err != nil {
				return err
			}
			srv, err = fafnir.NewFederationServer(fd, scfg)
			if err != nil {
				return err
			}
			totalRows = fd.TotalRows()
		} else {
			if *verify {
				return fmt.Errorf("-verify is federation-only; run with -fleets > 1")
			}
			fleet, err := fafnir.NewFleet(fcfg)
			if err != nil {
				return err
			}
			srv, err = fafnir.NewFleetServer(fleet, scfg)
			if err != nil {
				return err
			}
			totalRows = fleet.TotalRows()
		}
		topology = srv.Topology()
	} else {
		if *verify {
			return fmt.Errorf("-verify is federation-only; run with -fleets > 1")
		}
		plan, err := fafnir.ParseFaultPlan(*faults)
		if err != nil {
			return err
		}
		sys, err := fafnir.NewSystem(fafnir.SystemConfig{
			Ranks:         *ranks,
			RowsPerTable:  *rows,
			BatchCapacity: *batch,
			Seed:          *seed,
			Parallelism:   *par,
			Faults:        plan,
		})
		if err != nil {
			return err
		}
		srv, err = fafnir.NewServer(sys, scfg)
		if err != nil {
			return err
		}
		totalRows = sys.TotalRows()
		topology = fmt.Sprintf("system: %d ranks", *ranks)
	}

	ln, err := net.Listen("tcp", *addr)
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
		topology, totalRows, *batch, *linger, srv.Coalescer().Config().MaxQueued, cacheInfo)

	// The debug listener is a separate socket so profiling endpoints never
	// share the service port: keep it bound to localhost or a firewalled
	// interface in production.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		logger.Infof("debug listening on %s", dln.Addr())
		go http.Serve(dln, dmux)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Infof("draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
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
