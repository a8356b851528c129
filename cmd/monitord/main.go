// Command monitord serves the multi-tenant assessment service over
// HTTP/JSON: named registries (tenants) with membership mutation,
// disclosure ingestion, point/worst-window assessment, and live watch
// streams over Server-Sent Events. See the "Service" section of the
// README for the endpoint reference and curl examples.
//
// Usage:
//
//	monitord                    # listen on :8642
//	monitord -addr 127.0.0.1:0  # any free port (logged at startup)
//	monitord -drain 5s          # shutdown drain budget
//	monitord -timeout 30s       # per-request budget for non-watch routes
//	monitord -cpuprofile cpu.prof  # CPU profile of the whole run, written at shutdown
//
// A request that overruns -timeout — a client that stalls while sending its
// body, a slow handler, or a client that stops reading its reply — ends
// with the connection closed, not with an error body.
//
// SIGINT or SIGTERM starts a graceful shutdown: the listener closes, new
// requests are refused with 503, every SSE stream ends cleanly, a
// connection that has not sent a request yet is closed, and in-flight
// requests get -drain to finish before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/monitord"
	"repro/internal/profile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("monitord: ")
	var (
		addr    = flag.String("addr", ":8642", "listen address")
		drain   = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request budget for non-watch routes: reading the request, body included, and writing the reply (0 disables)")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile of the run to this file once it has shut down (runtime/pprof; go tool pprof reads it)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // a second signal kills immediately

	// Listen before announcing readiness so -addr :0 can log the bound
	// port and a supervisor can scrape it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if err := run(ctx, ln, *drain, *timeout, *cpuprof); err != nil {
		log.Fatal(err)
	}
}

// run serves the daemon on ln until ctx ends, then shuts it down: every SSE
// stream ends, and in-flight requests get drain to finish. With cpuprofile
// set, the CPU is profiled from the start of serving and the profile is
// written to that file when run returns.
func run(ctx context.Context, ln net.Listener, drain, timeout time.Duration, cpuprofile string) (err error) {
	stopProfile, err := profile.Start(cpuprofile, "")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfile()) }()
	svc := monitord.NewServer()
	httpSrv := newHTTPServer(svc, timeout)
	var unused unusedConns
	httpSrv.ConnState = unused.track
	log.Printf("listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down (drain %v)", drain)

	// Order matters: closing the service first ends every SSE stream (the
	// handlers select on its done channel), so Shutdown's drain below can
	// actually finish instead of waiting on infinite streams. Then hang up
	// every connection that has not sent a byte yet: Shutdown counts such a
	// connection as busy for its first 5 s, so one stray dial would hold
	// the drain.
	svc.Close()
	unused.closeAll()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("clean shutdown")
	return nil
}

// newHTTPServer is the daemon's http.Server around the service. timeout is
// the per-request budget, as two deadlines: one for reading the whole
// request, body included, so a client that stalls mid-body is cut off; and
// one for writing the reply, set once the headers are read, so a reply not
// fully written by then — the handler overran, or the client stopped
// reading — fails and closes the connection. The SSE watch stream is
// long-lived by design: net/http lifts the read deadline once a request is
// read, and the watch handler clears its write deadline. Zero (or less)
// sets no budget.
func newHTTPServer(svc http.Handler, timeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       timeout,
		WriteTimeout:      timeout,
		// Reap idle keep-alive connections so stuck clients cannot pin
		// sockets forever; SSE streams write continuously and stay alive.
		IdleTimeout: 2 * time.Minute,
	}
}

// unusedConns tracks the connections in http.StateNew: accepted, but not a
// byte of a request read. closeAll closes them and every one accepted after
// it; a client sees such a connection closed without a reply, as it sees an
// idle keep-alive connection Shutdown closes.
type unusedConns struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// track is the server's ConnState hook.
func (u *unusedConns) track(c net.Conn, state http.ConnState) {
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case state != http.StateNew:
		delete(u.conns, c)
	case u.closed:
		c.Close()
	default:
		if u.conns == nil {
			u.conns = make(map[net.Conn]struct{})
		}
		u.conns[c] = struct{}{}
	}
}

func (u *unusedConns) closeAll() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.closed = true
	for c := range u.conns {
		c.Close()
	}
	clear(u.conns)
}
