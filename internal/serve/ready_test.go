package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"counterminer/pkg/client"
)

// getReady hits /readyz on the test server and decodes the probe.
func getReady(t *testing.T, url string) (int, client.ReadyResponse) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr client.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("decode /readyz body: %v", err)
	}
	return resp.StatusCode, rr
}

// TestReadyzFlipsDuringDrain pins the probe contract load balancers
// depend on: a serving node answers ready, and the moment graceful
// drain begins — before the listener closes — /readyz flips to 503
// with a reason, while /healthz keeps reporting the process alive
// (as "draining") so the node is drained rather than restarted.
func TestReadyzFlipsDuringDrain(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, rr := getReady(t, ts.URL); code != http.StatusOK || rr.Status != "ready" {
		t.Fatalf("fresh server /readyz = %d %+v, want 200 ready", code, rr)
	}

	s.drainWork()

	code, rr := getReady(t, ts.URL)
	if code != http.StatusServiceUnavailable || rr.Status != "unready" {
		t.Fatalf("draining server /readyz = %d %+v, want 503 unready", code, rr)
	}
	found := false
	for _, r := range rr.Reasons {
		if strings.Contains(r, "draining") {
			found = true
		}
	}
	if !found {
		t.Errorf("unready reasons %v never mention draining", rr.Reasons)
	}

	// Liveness stays distinct: the process is alive, just not accepting.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hb struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "draining" {
		t.Errorf("/healthz status during drain = %q, want draining", hb.Status)
	}
}

// TestReadyzSurfacesClusterCondition pins the role seam: a cluster
// role's own readiness (coordinator not leading, worker unregistered)
// is injected via SetReady and surfaces as an unready reason, and
// clears when the condition does.
func TestReadyzSurfacesClusterCondition(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	var cond error = errors.New("not leading: standing by as follower")
	s.SetReady(func() error { return cond })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, rr := getReady(t, ts.URL)
	if code != http.StatusServiceUnavailable || len(rr.Reasons) != 1 || !strings.Contains(rr.Reasons[0], "not leading") {
		t.Fatalf("/readyz with failing role check = %d %+v, want 503 with the role's reason", code, rr)
	}

	cond = nil
	if code, rr := getReady(t, ts.URL); code != http.StatusOK || rr.Status != "ready" {
		t.Fatalf("/readyz after role recovers = %d %+v, want 200 ready", code, rr)
	}
}
