package ctl

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler returns the controller's HTTP surface on a fresh ServeMux:
//
//	/status        controller state machine, round history tail, executor counters
//	/placement     live placement (cluster + assignment) as JSON
//	/plan          current move schedule with per-move state
//	/metrics       Prometheus text exposition (balance report + control-plane counters)
//	/debug/pprof/  standard net/http/pprof profiling surface
//
// /metrics renders Config.Registry — every family the control plane,
// executor, solver, and balance collector registered — and answers 404
// when the controller was built without one.
//
// All endpoints are read-only snapshots taken under the controller lock;
// serving them concurrently with Run is race-free on any clock.
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, c.Status())
	})
	mux.HandleFunc("/placement", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := c.SnapshotPlacement().Save(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/plan", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, struct {
			Moves []MoveView `json:"moves"`
		}{Moves: c.PlanView()})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if c.cfg.Registry == nil {
			http.Error(w, "metrics registry not configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.cfg.Registry.WritePrometheus(w) // write error = client went away
	})
	return mux
}

// writeJSON marshals v with indentation onto w.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// boolGauge renders a bool as 0/1.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
