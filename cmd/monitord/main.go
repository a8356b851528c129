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
//
// A request that overruns -timeout — a client that stalls while sending its
// body, a slow handler, or a client that stops reading its reply — ends
// with the connection closed, not with an error body.
//
// SIGINT or SIGTERM starts a graceful shutdown: the listener closes, new
// requests are refused with 503, every SSE stream ends cleanly, and
// in-flight requests get -drain to finish before the process exits.
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
	"syscall"
	"time"

	"repro/internal/monitord"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("monitord: ")
	var (
		addr    = flag.String("addr", ":8642", "listen address")
		drain   = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request budget for non-watch routes: reading the request, body included, and writing the reply (0 disables)")
	)
	flag.Parse()
	if err := run(*addr, *drain, *timeout); err != nil {
		log.Fatal(err)
	}
}

func run(addr string, drain, timeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	svc := monitord.NewServer()
	httpSrv := newHTTPServer(svc, timeout)

	// Listen before announcing readiness so -addr :0 can log the bound
	// port and a supervisor can scrape it.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Printf("shutting down (drain %v)", drain)

	// Order matters: closing the service first ends every SSE stream (the
	// handlers select on its done channel), so Shutdown's drain below can
	// actually finish instead of waiting on infinite streams.
	svc.Close()
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
