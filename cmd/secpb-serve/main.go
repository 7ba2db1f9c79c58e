// Command secpb-serve runs the trace-streaming simulation service:
// a long-lived HTTP server that accepts named sessions and streams of
// SPB2 trace segments, checkpoints each session's durable cursor with
// the sealed temp+rename discipline, and — after a crash or kill -9 —
// resumes every session from its last checkpoint so the final results
// are byte-identical to an uninterrupted batch run.
//
// Usage:
//
//	secpb-serve -addr :8437 -data /var/lib/secpb
//	secpb-serve -addr 127.0.0.1:0 -addrfile /tmp/secpb.addr   # for scripts
//
// The API (see DESIGN.md §5.10):
//
//	POST   /v1/sessions                      create a session (idempotent)
//	PUT    /v1/sessions/{name}/segments/{n}  upload the n-th SPB2 segment
//	POST   /v1/sessions/{name}/finalize      finish and persist the result
//	GET    /v1/sessions/{name}/result        canonical result JSON
//	GET    /v1/sessions[/{name}]             status
//	DELETE /v1/sessions/{name}               discard a session
//	GET    /metrics                          Prometheus text exposition
//	GET    /healthz                          liveness
//
// SIGINT/SIGTERM trigger a graceful shutdown: every session is
// checkpointed before the process exits. A kill -9 is also survivable —
// that is the point — but resumes from the last durable checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"secpb/internal/service"
)

// Connection timeouts. A client that trickles its request headers, or
// stalls mid-body, is cut off instead of holding a connection and a
// goroutine forever. WriteTimeout bounds a whole handler, so it must
// outlast the service's default finalize wait (30 s).
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = time.Minute // full request, up to a -max-body upload
	writeTimeout      = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in an http.Server with the
// connection timeouts set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8437", "listen address (host:port; port 0 picks a free port)")
		data        = flag.String("data", "secpb-data", "durable data directory (sessions/, quarantine/)")
		maxSessions = flag.Int("max-sessions", 64, "admission cap on concurrently active sessions")
		queueCap    = flag.Int("queue", 32, "per-session bounded ingest queue (segments)")
		ckptEvery   = flag.Int("ckpt-every", 4, "checkpoint every N applied segments")
		maxBody     = flag.Int64("max-body", 16<<20, "largest accepted upload body in bytes")
		addrFile    = flag.String("addrfile", "", "write the bound listen address to this file (for scripts using port 0)")
	)
	flag.Parse()

	sv, err := service.Open(service.Options{
		DataDir:     *data,
		MaxSessions: *maxSessions,
		QueueCap:    *queueCap,
		CkptEvery:   *ckptEvery,
		MaxBody:     *maxBody,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "secpb-serve: %v\n", err)
		os.Exit(1)
	}
	for _, q := range sv.Quarantined() {
		fmt.Fprintf(os.Stderr, "secpb-serve: quarantined session %q -> %s (%s)\n", q.Name, q.Dir, q.Err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secpb-serve: %v\n", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "secpb-serve: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "secpb-serve: listening on %s (data %s, %d sessions resumed)\n",
		bound, *data, len(sv.Statuses()))

	httpSrv := newHTTPServer(sv)
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "secpb-serve: %v — checkpointing all sessions\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
		if err := sv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "secpb-serve: shutdown: %v\n", err)
			os.Exit(1)
		}
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "secpb-serve: %v\n", err)
			os.Exit(1)
		}
	}
}
