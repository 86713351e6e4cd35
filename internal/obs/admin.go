package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// HealthLevel grades one subsystem for the /healthz probe.
type HealthLevel string

const (
	// HealthOK: the subsystem is fully functional.
	HealthOK HealthLevel = "ok"
	// HealthDegraded: the subsystem lost capability but the gateway is
	// still serving — /healthz stays 200 so orchestrators do not kill a
	// live verifier over, say, its evidence plane shedding to memory.
	HealthDegraded HealthLevel = "degraded"
	// HealthDown: the subsystem is gone and the process should be
	// restarted; /healthz turns 503.
	HealthDown HealthLevel = "down"
)

// HealthStatus is one subsystem's probe result.
type HealthStatus struct {
	Level  HealthLevel `json:"level"`
	Detail string      `json:"detail,omitempty"`
}

// AdminOption extends AdminHandler with subsystem health probes and
// extra routes.
type AdminOption func(*adminConfig)

type adminConfig struct {
	health map[string]func() HealthStatus
	routes map[string]http.Handler
}

// WithHealth registers a named subsystem probe, evaluated on every
// /healthz request. The overall status is the worst subsystem level;
// only HealthDown flips the HTTP status to 503.
func WithHealth(name string, probe func() HealthStatus) AdminOption {
	return func(c *adminConfig) { c.health[name] = probe }
}

// WithRoute mounts an extra handler on the admin mux (e.g. the journal's
// /debug/journal audit queries).
func WithRoute(pattern string, h http.Handler) AdminOption {
	return func(c *adminConfig) { c.routes[pattern] = h }
}

// AdminHandler serves the observability surface of one Observer:
//
//	/metrics          Prometheus text exposition of the registry
//	/debug/sessions   JSON dump of recent session traces
//	                  (?app=<name> to filter, ?n=<count> per app, default 16)
//	/debug/pprof/     the standard net/http/pprof handlers
//	/healthz          structured liveness probe: JSON status plus
//	                  per-subsystem levels; 503 only when a subsystem
//	                  reports down
//
// plus any routes mounted via [WithRoute]. The handler is read-only and
// safe to serve concurrently with a live gateway: scrapes read atomics
// and take only the short ring and registration mutexes.
func AdminHandler(o *Observer, opts ...AdminOption) http.Handler {
	cfg := adminConfig{
		health: make(map[string]func() HealthStatus),
		routes: make(map[string]http.Handler),
	}
	for _, opt := range opts {
		opt(&cfg)
	}

	mux := http.NewServeMux()
	if _, override := cfg.routes["/metrics"]; !override {
		// A route mounted on /metrics via WithRoute replaces the default
		// registry exposition instead of double-registering.
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = o.Registry().WritePrometheus(w)
		})
	}
	mux.HandleFunc("/debug/sessions", func(w http.ResponseWriter, r *http.Request) {
		n := 16
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		var payload any
		if app := r.URL.Query().Get("app"); app != "" {
			payload = map[string][]*Trace{app: o.Recent(app, n)}
		} else {
			payload = o.Dump(n)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"sessions": payload})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		overall := HealthOK
		subsystems := make(map[string]HealthStatus, len(cfg.health))
		for name, probe := range cfg.health {
			st := probe()
			if st.Level == "" {
				st.Level = HealthOK
			}
			subsystems[name] = st
			switch st.Level {
			case HealthDown:
				overall = HealthDown
			case HealthDegraded:
				if overall == HealthOK {
					overall = HealthDegraded
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if overall == HealthDown {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"status": overall, "subsystems": subsystems})
	})

	index := []string{"/metrics", "/debug/sessions", "/debug/pprof/", "/healthz"}
	for pattern, h := range cfg.routes {
		mux.Handle(pattern, h)
		if pattern != "/metrics" {
			index = append(index, pattern)
		}
	}
	sort.Strings(index[4:])
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		body := "raptrack admin endpoint\n\n"
		for _, p := range index {
			body += p + "\n"
		}
		_, _ = w.Write([]byte(body))
	})
	return mux
}
