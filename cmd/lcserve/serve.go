package main

// The one serving lifecycle. Right after the build a single
// http.Server mounts the batching query front-end (linconstraint.Serve,
// DESIGN.md §13) beside the telemetry surface. Every run leaves through
// drain in the §13 order — stop accepting and drain in-flight handlers,
// close the front-end (which answers everything already admitted), then
// close the engine — all raced against the grace period.

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"time"

	"linconstraint"
)

// service is the process's HTTP server and front-end.
type service struct {
	srv   *http.Server
	front *linconstraint.Server
	errc  chan error   // Serve's exit
	log   *slog.Logger // lifecycle records; run points it at its stream
}

// The server's connection bounds. A client gets readHeaderTimeout to send
// its request header and readTimeout for the whole request (a query body
// is at most a few hundred bytes), and an idle keep-alive connection is
// closed after idleTimeout, so a slow or silent client cannot hold a
// connection open indefinitely. There is no WriteTimeout: the same mux
// serves /debug/pprof/profile, which streams for the seconds=N the
// client asks for, and a write deadline would cut it off.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serve mounts /query and /healthz (the front-end) and /metrics plus
// /debug/* (DebugHandler) on one server over ln and starts it.
func serve(ln net.Listener, eng *linconstraint.Engine, reg *linconstraint.Metrics, scfg linconstraint.ServerConfig) *service {
	sv := &service{front: linconstraint.Serve(eng, scfg), errc: make(chan error, 1), log: slog.Default()}
	mux := http.NewServeMux()
	mux.Handle("/query", sv.front)
	mux.Handle("/healthz", sv.front)
	mux.Handle("/", linconstraint.DebugHandler(reg, eng))
	sv.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() { sv.errc <- sv.srv.Serve(ln) }()
	return sv
}

// wait serves until ctx is cancelled (a signal) or the listener dies.
func (sv *service) wait(ctx context.Context) int {
	select {
	case <-ctx.Done():
		sv.log.Info("draining", "order", "HTTP server, front-end, engine")
		return 0
	case err := <-sv.errc:
		return fail(sv.log, 1, "%v", err)
	}
}

// drain closes everything in order within grace and returns code, or
// 1 when the drain blows the grace period.
func (sv *service) drain(eng *linconstraint.Engine, grace time.Duration, code int) int {
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if sv.srv.Shutdown(ctx) != nil {
			sv.srv.Close() // grace blown on handler drain: cut the connections
		}
		sv.front.Close()
		eng.Close()
	}()
	select {
	case <-drained:
		return code
	case <-time.After(grace):
		return fail(sv.log, 1, "drain did not complete within %v", grace)
	}
}
