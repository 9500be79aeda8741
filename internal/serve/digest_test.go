//go:build amd64 && !race

package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"counterminer/pkg/client"
)

// servedDigest pins the Analysis of one request at the served shape,
// resolved by the daemon: event patterns, runs, trees and SkipEIR as
// the request gives them, the default cleaner, and the daemon's worker
// count and store. It is the sha256 of the Analysis's JSON encoding with
// Stages cleared, as in the root package's TestAnalysisDigests, and was
// generated at 5038767. A speed or simplicity change must pass it
// unedited.
const servedDigest = "8db42f7b7b52d0a5f1eac9b9a29cc52ff966ae1df0668d535cd65fa11949fd30"

// TestServedAnalysisDigest drives one request through Server twice: the
// first executes it, the second is a cache hit, and both must carry the
// pinned Analysis.
func TestServedAnalysisDigest(t *testing.T) {
	s, err := New(Config{AnalysisWorkers: 1, StorePath: filepath.Join(t.TempDir(), "db")})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	body := `{"benchmark":"kmeans","events":["ICACHE.*","L2_RQSTS.*","BR_INST_RETIRED.*"],"runs":2,"trees":20,"skip_eir":true,"seed":5}`
	for _, wantCached := range []bool{false, true} {
		resp, b := postAnalyze(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		var ar client.AnalyzeResponse
		if err := json.Unmarshal(b, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Cached != wantCached {
			t.Errorf("cached = %v, want %v", ar.Cached, wantCached)
		}
		ar.Analysis.Stages = nil
		enc, err := json.Marshal(ar.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != servedDigest {
			t.Errorf("cached=%v: digest %s, want %s", ar.Cached, got, servedDigest)
		}
	}
}
