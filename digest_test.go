//go:build amd64 && !race

package counterminer

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"counterminer/internal/clean"
)

// analysisDigests pins a fixed set of results across commits. Each
// value is the sha256 of the result's JSON encoding; an Analysis is
// encoded with Stages cleared, because its wall-clock timings are the
// only field that may differ between two runs of the same inputs.
//
// A change that is meant to leave every result bit-identical — a speed
// or simplicity change — must pass this table unedited. A change to the
// model updates the table on purpose and says why.
var analysisDigests = map[string]string{
	"data/csv-40x600":           "876d6dfb93e1cb6590b1212da840d8755e85199050e485fb51088ce3e9d9536f",
	"fast/DataAnalytics":        "83ab8c4c37bcf1b8c6fa39886b0c51df75c7e3c4723b8fe35044043fcb2f8356",
	"fast/DataCaching":          "22df2bd912d47cd3522f5134788d7c4ef2b0721209d5ef5c9a4a762dd155cfcc",
	"fast/DataServing":          "56ffb4279ae1ae0963e3eb8a3c3e604ef4eaa82d8a4cc869d95b3dda64963257",
	"fast/GraphAnalytics":       "eb80a7526064bf544be4339386b78ecb6c7a3f1694585217eaf1376718725038",
	"fast/InMemoryAnalytics":    "2ef48a1bd8faef2fb6944d29c50235a9e7621c0a6d49c82b9c8fd1493ad7b5de",
	"fast/MediaStreaming":       "dafb92210463c624de14f2f5533e2539959d56ebaad1511787996a1146731f17",
	"fast/WebSearch":            "ecd07d5e405e46ad4728f8abd0bb8f5d72b6e4211a16fcab2e6b77a86b39ed24",
	"fast/WebServing":           "af464bb5ead4c717bc31ffae39377a45e75a8098bc677646c289fa822813a6b8",
	"fast/aggregation":          "e7abf2a2fd650e68e65c6493103fc37622c196ee9978625066736930db90a32c",
	"fast/bayes":                "439dc4bd5ca77b582f0176de6b477e3d86b0821f258ee855e1d297f047a1f010",
	"fast/join":                 "d576b8fe899b2b784ce349343d1fec99471bd261e546ba556ec031cd738dbe5c",
	"fast/kmeans":               "fc9f17ec7f312efb2f489e664585ccb4eef19b34989a7c972ccf71a47cf1e86c",
	"fast/pagerank":             "3a377e71f1326e4bf17e0339a08d41a6f9c32130d3ef44082af84ad3d9835d97",
	"fast/scan":                 "9ac45fa34f86bee1f9358a596601864c6044b901bb1d2daeb011f97a54e92d4e",
	"fast/sort":                 "e7b077e6d25c6a0f258dba1dcce34f953e38e8a31ae655959e2ffe7ad59cd249",
	"fast/wordcount":            "37a1b32502d08f6d610fafed5b3c8dd1716f782856bfc80a95b90e74d5e07ece",
	"fingerprint/sort":          "3b6e13716bb61d03bbdaa7438e34b70ef4b904ebc608c281019d69d51fba78a3",
	"real/wordcount/seed=12345": "00406dd696e253793fb9c30ea5c430b9cdddce7c267720b91ab5445f675fc24a",
	"real/wordcount/seed=777":   "259772bc9ed94074f6b41ead8e0297caaa52722a8b356d9e9e72d3ef60334aea",
}

// The test is pinned to amd64: on other targets the Go compiler may
// fuse multiply-adds, which moves the last bits of a fit. The race
// detector would make the real-shape cases take minutes.
func TestAnalysisDigests(t *testing.T) {
	type digestCase struct {
		name string
		run  func(context.Context) (any, error)
	}
	analyze := func(benchmark string, opts Options) func(context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			p, err := NewPipeline(opts)
			if err != nil {
				return nil, err
			}
			return p.AnalyzeContext(ctx, benchmark)
		}
	}
	var cases []digestCase
	// The real shape: 229 events, 80 trees, EIR and threshold-knn.
	for _, seed := range []int64{12345, 777} {
		cases = append(cases, digestCase{
			fmt.Sprintf("real/wordcount/seed=%d", seed),
			analyze("wordcount", Options{Seed: seed}),
		})
	}
	// The fast shape over every benchmark: one fit, the bayes cleaner.
	probe, err := NewPipeline(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range probe.Benchmarks() {
		opts := Options{SkipEIR: true, Seed: 1}
		opts.CleanOptions.Cleaner = clean.BayesCleaner
		cases = append(cases, digestCase{"fast/" + b, analyze(b, opts)})
	}
	cases = append(cases,
		digestCase{"data/csv-40x600", func(ctx context.Context) (any, error) {
			d, err := LoadCSV(strings.NewReader(digestCSV(40, 600)))
			if err != nil {
				return nil, err
			}
			return AnalyzeDataContext(ctx, d, Options{})
		}},
		digestCase{"fingerprint/sort", func(ctx context.Context) (any, error) {
			p, err := NewPipeline(Options{})
			if err != nil {
				return nil, err
			}
			return p.FingerprintContext(ctx, "sort", "")
		}},
	)

	if len(cases) != len(analysisDigests) {
		t.Errorf("%d cases but %d digests in the table", len(cases), len(analysisDigests))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Results do not depend on the worker count, so the cases
			// share the CPUs.
			t.Parallel()
			res, err := c.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := resultDigest(t, res)
			if want := analysisDigests[c.name]; got != want {
				t.Errorf("%s: digest %s, want %s", c.name, got, want)
			}
		})
	}
}

// resultDigest hashes the JSON encoding of res, with an Analysis's
// Stages cleared.
func resultDigest(t *testing.T, res any) string {
	t.Helper()
	if a, ok := res.(*Analysis); ok {
		c := *a
		c.Stages = nil
		res = &c
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestCSV renders a seeded external data set of rows intervals over
// events columns in LoadCSV's layout. IPC falls with the first six
// events, by descending weight, so EIR keeps them while it prunes the
// noise columns.
func digestCSV(events, rows int) string {
	rng := rand.New(rand.NewSource(16))
	var sb strings.Builder
	sb.WriteString("interval")
	for j := 0; j < events; j++ {
		fmt.Fprintf(&sb, ",EV%02d", j)
	}
	sb.WriteString(",ipc\n")
	row := make([]float64, events)
	for i := 0; i < rows; i++ {
		ipc := 2.0
		for j := range row {
			row[j] = 1000 * (1 + 9*rng.Float64())
			if j < 6 {
				ipc -= float64(6-j) * 0.008 * row[j] / 1000
			}
		}
		ipc += 0.05 * rng.NormFloat64()
		sb.WriteString(strconv.Itoa(i))
		for _, v := range row {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(ipc, 'g', -1, 64))
		sb.WriteByte('\n')
	}
	return sb.String()
}
