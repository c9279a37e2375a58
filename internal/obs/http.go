package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// HandlerConfig wires the optional observability components into one
// debug handler. Every field may be nil — the corresponding endpoint
// then serves an empty document rather than disappearing, so probes do
// not have to know which components a binary enabled.
type HandlerConfig struct {
	Registry *Registry
	Health   func() (interface{}, error)
	Traces   *TraceBuffer
	Windows  *Windows
}

// Handler serves the debug endpoint:
//
//	/metrics              — the registry as JSON ("{}" when Registry is nil)
//	/metrics?format=prom  — the registry in Prometheus text exposition format
//	/metrics?window=1     — last-window percentiles (p50/p95/p99) as JSON
//	/debug/traces         — retained trace records, newest first; ?slow=1
//	                        keeps only slow-flagged traces, ?n=K caps the count
//	/healthz              — the health callback's value as JSON; 503 when the
//	                        callback reports an error, 200 otherwise
//	/debug/pprof/         — the standard runtime profiles
//
// Health may be nil (a bare {"status":"ok"} is served) and is called per
// request, so it can probe live state. The pprof handlers are mounted
// explicitly rather than through net/http/pprof's DefaultServeMux side
// effect, so importing this package does not pollute the global mux.
func Handler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		switch {
		case q.Get("format") == "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			WriteProm(w, cfg.Registry.Snapshot())
		case q.Get("window") != "":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(cfg.Windows.Snapshot())
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write(cfg.Registry.JSON())
		}
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit, _ := strconv.Atoi(q.Get("n"))
		recs := cfg.Traces.Snapshot(q.Get("slow") == "1", limit)
		if recs == nil {
			recs = []TraceRecord{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(recs)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		var (
			doc interface{} = map[string]string{"status": "ok"}
			err error
		)
		if cfg.Health != nil {
			doc, err = cfg.Health()
		}
		w.Header().Set("Content-Type", "application/json")
		if err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"status": "unhealthy", "error": err.Error()})
			return
		}
		if b, merr := json.Marshal(doc); merr == nil {
			w.Write(b)
		} else {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"status": "error", "error": merr.Error()})
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug HTTP listener.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts the debug endpoint on addr (":7699", "127.0.0.1:0",
// ...) and serves in the background until Close. The listener is bound
// before returning, so Addr is immediately valid and a bad address fails
// fast.
func Serve(addr string, cfg HandlerConfig) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(cfg), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &DebugServer{srv: srv, ln: ln}, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() net.Addr { return d.ln.Addr() }

// Close stops the listener and in-flight handlers.
func (d *DebugServer) Close() error { return d.srv.Close() }
