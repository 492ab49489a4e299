// Command bonsaid serves the bonsai control-plane compression engine as a
// long-running multi-tenant daemon: named networks are opened over an
// HTTP/JSON API and queried concurrently, all tenants share one global
// abstraction-memory budget, and per-tenant quotas keep an overloaded
// tenant from starving the rest. SIGTERM/SIGINT trigger a graceful drain:
// new requests get 503, in-flight work finishes, every engine closes.
//
// With -data-dir, tenants are durable: every admitted delta is journaled
// (fsync policy via -fsync) before it is applied, checkpoints truncate the
// journal (-checkpoint-every), and a restart over the same data dir recovers
// every tenant from checkpoint + journal tail — kill -9 included.
//
//	bonsaid -addr :7171 -budget-mb 2048 -floor-mb 64 -max-queries 8
//	bonsaid -addr :7171 -data-dir /var/lib/bonsaid -fsync interval
//	curl -X PUT --data-binary @net.txt localhost:7171/v1/tenants/prod
//	curl 'localhost:7171/v1/tenants/prod/reach?src=edge-1-1&dest=10.0.0.0/24'
//	curl localhost:7171/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bonsai"
	"bonsai/internal/faultinject"
	"bonsai/internal/journal"
	"bonsai/internal/server"
)

// armCrashPoint wires the BONSAID_CRASH_POINT env hook used by the crash
// gauntlet: "point@n" (e.g. "journal.fsync@3") SIGKILLs this process the
// n-th time the named fault-injection seam fires — a faithful model of a
// power-cut-shaped crash at exactly that point in the durability path. The
// hook is inert unless the variable is set, so production pays one env
// lookup at startup and nothing after.
func armCrashPoint(spec string) {
	point, nth := spec, int64(1)
	if at := strings.LastIndex(spec, "@"); at >= 0 {
		point = spec[:at]
		n, err := strconv.ParseInt(spec[at+1:], 10, 64)
		if err != nil || n < 1 {
			log.Fatalf("bonsaid: bad BONSAID_CRASH_POINT %q: want point[@n]", spec)
		}
		nth = n
	}
	faultinject.Arm(faultinject.Point(point), faultinject.OnNth(nth, func(string) {
		// SIGKILL self: no deferred cleanup, no flushes — the kernel takes
		// the process exactly as a crash would find it.
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // never runs past the kill
	}))
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so an idle or trickling peer cannot hold a connection
// goroutine forever. Bodies are not bounded in time: a replay legitimately
// streams for as long as its client has deltas.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":7171", "listen address")
	budgetMB := flag.Int64("budget-mb", 0, "global abstraction-memory budget in MiB across all tenants (0 = unbounded)")
	floorMB := flag.Int64("floor-mb", 0, "per-tenant budget floor in MiB (cross-tenant eviction never digs below it)")
	maxTenants := flag.Int("max-tenants", 0, "max concurrently open tenants (0 = unbounded)")
	maxQueries := flag.Int("max-queries", 4, "max concurrent queries per tenant (excess get 429)")
	applyQueue := flag.Int("apply-queue", 16, "writes that may wait per tenant behind the one executing (excess get 503)")
	idleTTL := flag.Duration("idle-ttl", 0, "close tenants idle this long (0 = never)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "max wait for in-flight work on shutdown")
	dataDir := flag.String("data-dir", "", "enable durability: per-tenant delta journals + checkpoints under this dir (empty = ephemeral)")
	fsyncPolicy := flag.String("fsync", "always", "journal fsync policy: always | interval | never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "flush period for -fsync interval")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint a tenant once its journal tail reaches this many deltas (0 = default 4096, <0 = only on drain)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(bonsai.Version())
		return
	}
	sync, err := journal.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		log.Fatalf("bonsaid: %v", err)
	}
	if spec := os.Getenv("BONSAID_CRASH_POINT"); spec != "" {
		armCrashPoint(spec)
	}

	s := server.New(server.Config{
		GlobalBudget:        *budgetMB << 20,
		TenantFloor:         *floorMB << 20,
		MaxTenants:          *maxTenants,
		MaxQueriesPerTenant: *maxQueries,
		ApplyQueueDepth:     *applyQueue,
		IdleTTL:             *idleTTL,
		DataDir:             *dataDir,
		Fsync:               sync,
		FsyncInterval:       *fsyncInterval,
		CheckpointEvery:     *checkpointEvery,
	})
	hs := &http.Server{Addr: *addr, Handler: s, ReadHeaderTimeout: readHeaderTimeout}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("bonsaid: listen: %v", err)
	}
	durable := "ephemeral"
	if *dataDir != "" {
		durable = fmt.Sprintf("data-dir %s, fsync %s", *dataDir, sync)
	}
	log.Printf("bonsaid %s listening on %s (budget %d MiB, floor %d MiB, %s)",
		bonsai.Version().GoVersion, ln.Addr(), *budgetMB, *floorMB, durable)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		log.Fatalf("bonsaid: serve: %v", err)
	case got := <-sig:
		log.Printf("bonsaid: %v: draining (new requests get 503)", got)
	}

	// Drain order: the app layer first refuses new work and waits for
	// in-flight requests (bounded by -drain-timeout), then the HTTP server
	// closes its listener and idle connections.
	done := make(chan struct{})
	go func() {
		s.Drain()
		close(done)
	}()
	select {
	case <-done:
		log.Printf("bonsaid: drained cleanly")
	case <-time.After(*drainTimeout):
		log.Printf("bonsaid: drain timeout after %v; exiting with work in flight", *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("bonsaid: shutdown: %v", err)
	}
}
