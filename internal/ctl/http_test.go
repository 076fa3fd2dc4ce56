package ctl

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/obs"
)

// httpController builds a small controller, runs a few rounds (so state is
// non-trivial), and returns it.
func httpController(t *testing.T) *Controller {
	t.Helper()
	cfg, p, src := e2eConfig(t, 40, 480, 17)
	cfg.Budget = Budget{Iterations: 100, Restarts: 1}
	cfg.Registry = obs.NewRegistry()
	c, err := New(cfg, NewVirtualClock(), p, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(3); err != nil {
		t.Fatal(err)
	}
	return c
}

func get(t *testing.T, c *Controller, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec
}

func TestHTTPStatus(t *testing.T) {
	c := httpController(t)
	rec := get(t, c, "/status")
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode /status: %v\n%s", err, rec.Body.String())
	}
	if st.Round != 3 || st.Solves == 0 || st.State == "" {
		t.Fatalf("unexpected status: %+v", st)
	}
	if len(st.LastRounds) != 3 {
		t.Fatalf("history tail has %d rounds, want 3", len(st.LastRounds))
	}
}

func TestHTTPPlacement(t *testing.T) {
	c := httpController(t)
	rec := get(t, c, "/placement")
	p, err := cluster.LoadPlacement(rec.Body)
	if err != nil {
		t.Fatalf("reload /placement: %v", err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.Cluster().NumShards() != 480 {
		t.Fatalf("placement has %d shards", p.Cluster().NumShards())
	}
}

func TestHTTPPlan(t *testing.T) {
	c := httpController(t)
	rec := get(t, c, "/plan")
	var body struct {
		Moves []MoveView `json:"moves"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode /plan: %v", err)
	}
	if len(body.Moves) == 0 {
		t.Fatal("no moves in plan view after a solved round")
	}
	for _, mv := range body.Moves {
		if mv.Status == "" {
			t.Fatalf("move %d has empty status", mv.Seq)
		}
	}
}

func TestHTTPMetrics(t *testing.T) {
	c := httpController(t)
	body := get(t, c, "/metrics").Body.String()
	for _, metric := range []string{
		"rex_imbalance", "rex_max_util", "rex_static_pressure{resource=\"disk\"}",
		"rex_ctl_rounds_total", "rex_ctl_solves_total", "rex_exec_completed_total",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/metrics missing %s:\n%s", metric, body)
		}
	}
	if !strings.Contains(body, "# TYPE rex_imbalance gauge") {
		t.Fatal("/metrics missing TYPE annotation")
	}

	// Without a registry there is nothing to render.
	cfg, p, src := e2eConfig(t, 40, 480, 17)
	bare, err := New(cfg, NewVirtualClock(), p, src)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	bare.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "metrics registry not configured") {
		t.Fatalf("/metrics without a registry: status %d body %q", rec.Code, rec.Body.String())
	}
}

// TestHTTPConcurrentWithRun serves the endpoints while the control loop is
// running; the race detector checks the locking.
func TestHTTPConcurrentWithRun(t *testing.T) {
	cfg, p, src := e2eConfig(t, 40, 480, 23)
	cfg.Budget = Budget{Iterations: 100, Restarts: 2}
	cfg.Registry = obs.NewRegistry()
	c, err := New(cfg, NewVirtualClock(), p, src)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, path := range []string{"/status", "/placement", "/plan", "/metrics"} {
					rec := httptest.NewRecorder()
					c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				}
			}
		}()
	}
	if err := c.Run(5); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
}
