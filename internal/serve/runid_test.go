package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	counterminer "counterminer"
	"counterminer/pkg/client"
)

// TestRunIdentityBoundsHTTP: the daemon answers 400 bad_request, counted
// in bad_requests, for runs above counterminer.MaxRuns and for seeds
// whose run ids overflow int, on /analyze, per job on /analyze/batch,
// and on /classify; requests at the bounds are admitted.
func TestRunIdentityBoundsHTTP(t *testing.T) {
	dbPath := seedStore(t, []string{"wordcount"}, 1)
	s, err := New(Config{Workers: 1, StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	s.analyze = func(_ context.Context, job Job) (*counterminer.Analysis, error) {
		return &counterminer.Analysis{Benchmark: job.Benchmark}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	const runs = 2
	hi := (int64(math.MaxInt) - runs) / 100
	lo := int64(math.MinInt) / 100
	req := func(runs int, seed int64) string {
		return fmt.Sprintf(`{"benchmark":"wordcount","runs":%d,"seed":%d}`, runs, seed)
	}
	cases := []struct {
		body string
		ok   bool
	}{
		{req(counterminer.MaxRuns, 1), true},
		{req(counterminer.MaxRuns+1, 1), false},
		{req(runs, hi), true},
		{req(runs, hi+1), false},
		{req(runs, lo), true},
		{req(runs, lo-1), false},
		{req(runs, math.MaxInt64), false},
		{req(runs, math.MinInt64), false},
	}
	badRequests := func() uint64 {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap client.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap.Requests.BadRequests
	}
	rejected := uint64(0)
	for _, tc := range cases {
		before := badRequests()
		resp, body := postAnalyze(t, ts.URL, tc.body)
		if tc.ok {
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/analyze %s: status %d (%s), want 200", tc.body, resp.StatusCode, body)
			}
		} else {
			rejected++
			var er client.ErrorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Error != "bad_request" {
				t.Errorf("/analyze %s: status %d (%s), want 400 bad_request", tc.body, resp.StatusCode, body)
			}
			if got := badRequests() - before; got != 1 {
				t.Errorf("/analyze %s: bad_requests rose by %d, want 1", tc.body, got)
			}
		}

		resp, body = postBatch(t, ts.URL, `{"jobs":[`+tc.body+`]}`)
		var br client.BatchResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &br) != nil || len(br.Jobs) != 1 {
			t.Fatalf("/analyze/batch %s: status %d (%s)", tc.body, resp.StatusCode, body)
		}
		if j := br.Jobs[0]; tc.ok != (j.Error == nil) || !tc.ok && j.Error.Error != "bad_request" {
			t.Errorf("/analyze/batch %s: job error %+v, want rejected=%v with bad_request", tc.body, j.Error, !tc.ok)
		}

		if !tc.ok {
			rejected++
			before := badRequests()
			resp, body := postClassify(t, ts.URL, tc.body)
			var er client.ErrorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Error != "bad_request" {
				t.Errorf("/classify %s: status %d (%s), want 400 bad_request", tc.body, resp.StatusCode, body)
			}
			if got := badRequests() - before; got != 1 {
				t.Errorf("/classify %s: bad_requests rose by %d, want 1", tc.body, got)
			}
		}
	}
	if got := badRequests(); got != rejected {
		t.Errorf("bad_requests = %d, want %d", got, rejected)
	}
}
