package main

// The one serving lifecycle. With -listen, right after the build a
// single http.Server mounts the batching query front-end
// (linconstraint.Serve, DESIGN.md §13) beside the telemetry surface,
// and serves through the profile, load and report phases. Every run,
// served or not, leaves through drain in the §13 order — stop
// accepting and drain in-flight handlers, close the front-end (which
// answers everything already admitted), then close the engine — all
// raced against the grace period.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"linconstraint"
)

// service is a -listen process's HTTP server and front-end; a nil
// *service is a run without -listen.
type service struct {
	srv   *http.Server
	front *linconstraint.Server
	errc  chan error // Serve's exit
}

// serve mounts /query and /healthz (the front-end) and /metrics plus
// /debug/* (DebugHandler) on one server over ln and starts it.
func serve(ln net.Listener, eng *linconstraint.Engine, reg *linconstraint.Metrics, scfg linconstraint.ServerConfig) *service {
	sv := &service{front: linconstraint.Serve(eng, scfg), errc: make(chan error, 1)}
	mux := http.NewServeMux()
	mux.Handle("/query", sv.front)
	mux.Handle("/healthz", sv.front)
	mux.Handle("/", linconstraint.DebugHandler(reg, eng))
	sv.srv = &http.Server{Handler: mux}
	go func() { sv.errc <- sv.srv.Serve(ln) }()
	return sv
}

// wait serves until ctx is cancelled (a signal) or the listener dies;
// without -listen it returns at once.
func (sv *service) wait(ctx context.Context, stdout io.Writer) int {
	if sv == nil {
		return 0
	}
	fmt.Fprintln(stdout, "serving until SIGINT/SIGTERM")
	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "signal: draining HTTP server, front-end, then engine")
		return 0
	case err := <-sv.errc:
		return fail(1, "%v", err)
	}
}

// drain closes everything in order within grace and returns code, or
// 1 when the drain blows the grace period.
func (sv *service) drain(eng *linconstraint.Engine, grace time.Duration, code int) int {
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if sv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), grace)
			defer cancel()
			if sv.srv.Shutdown(ctx) != nil {
				sv.srv.Close() // grace blown on handler drain: cut the connections
			}
			sv.front.Close()
		}
		eng.Close()
	}()
	select {
	case <-drained:
		return code
	case <-time.After(grace):
		return fail(1, "drain did not complete within %v", grace)
	}
}
