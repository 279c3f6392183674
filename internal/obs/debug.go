package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the optional -debug-addr HTTP listener: /metrics
// serves the Prometheus text snapshot, /debug/pprof/* the standard
// Go profiles, and callers may mount extra routes (cafa-analyze's
// live /triage report). It lives for the duration of a batch run;
// Close stops the listener.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// Route is an extra handler mounted on the debug listener.
type Route struct {
	Pattern string
	Handler http.Handler
}

// ServeDebug starts the debug listener on addr (e.g. "localhost:0")
// and serves until Close. Extra routes are mounted alongside the
// built-in ones. It returns immediately.
func ServeDebug(addr string, extra ...Route) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, r := range extra {
		mux.Handle(r.Pattern, r.Handler)
	}
	ds := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = ds.srv.Serve(ln) }()
	return ds, nil
}

// Addr returns the bound listen address (useful with port 0).
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener immediately, dropping in-flight requests.
func (d *DebugServer) Close() error {
	defer d.ln.Close() // see Shutdown
	return d.srv.Close()
}

// Shutdown stops the listener gracefully: the port is released at
// once (no new connections), in-flight requests get until the context
// deadline to finish, and stragglers are then closed hard, so the
// listener never outlives the run that opened it.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	// Serve closes the listener only once its goroutine runs; one not
	// yet scheduled would hold the port past the return.
	defer d.ln.Close()
	if err := d.srv.Shutdown(ctx); err != nil {
		return d.srv.Close()
	}
	return nil
}

// shutdownGrace is how long CLI runs wait for in-flight debug
// requests (a /triage render, a pprof snapshot) on exit.
const shutdownGrace = 2 * time.Second

// ShutdownOnExit is the deferred form used by the CLIs: a bounded
// graceful shutdown with the default grace period.
func (d *DebugServer) ShutdownOnExit() {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	_ = d.Shutdown(ctx)
}
