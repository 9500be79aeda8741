//go:build amd64 && !race

package counterminer

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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

	// The served shape, generated at 5038767.
	"served/bayes/DataAnalytics":                 "86390feafd3aba510ca9378308983da103dfe7c6f855bcdfdf521bfc6fe0ddc6",
	"served/bayes/DataCaching":                   "a699834cea53d9e7a01cab6be174af0b35697376086d5520058a35a432b6b572",
	"served/bayes/DataServing":                   "df2d4c1f8811cee887ce522022443fc7ccd0568ead6c24379efe8bf3ac16fa7a",
	"served/bayes/GraphAnalytics":                "d7d9a9bde5dda2071f749140fa043adf66abf5e87e0d4a9a478ca12c8e32bef9",
	"served/bayes/InMemoryAnalytics":             "b8d3ac0289736cb60c421ca5b27cf7db75a24a23d844de8e6ce729a2e0615819",
	"served/bayes/MediaStreaming":                "b484aa530fb07b55175917ee4a885392677839f818dd2195f124063d64cbd235",
	"served/bayes/WebSearch":                     "4e47e5b91d76fbd8804edbda7d4dda1222bbbe7f802217b13b3767a6ab0fabad",
	"served/bayes/WebServing":                    "c0267154bea83b3361783ebfba813ba4fb92b3b758fac6db994ab6a757aaff8e",
	"served/bayes/aggregation":                   "eeb62afbd1e3d62ba413200739f19effe317f9f4768d7992b9c5a46670d8d0a3",
	"served/bayes/bayes":                         "beffbc0bd934f0d3b4fa6691d799ba6f348deff2dfac559ce6c1ab15c8aa2c72",
	"served/bayes/join":                          "37a3000172213d11fc113dcc229f97ff1af773fb89fac8f95046d05758190c7b",
	"served/bayes/kmeans":                        "5dac1f5011b4e60d607c4a2d4c11bcfdc926df6dd21ad625b55ceb0aa7606180",
	"served/bayes/pagerank":                      "e0a1bc6ef53527b9abd3da8fc6baeee803cd3ffe4e7c8945c2ac3b5034dad80a",
	"served/bayes/scan":                          "1cbe0651ded1f11998a14c1d066377436b0d2c203086814762b38292bd34e081",
	"served/bayes/sort":                          "5fd3ff8b5a52416aca702cfcd76a694409bde431b03df4cc978ae67f38cc9916",
	"served/bayes/wordcount":                     "85a6ddc6444ebaf4e5b195cb0544679c69d9ec0c7d7250d2e389488439212817",
	"served/threshold-knn/DataAnalytics":         "abb7a7ae4d61466863b972bbdb33913ad07c59e5779678430102ea42e78a4bb2",
	"served/threshold-knn/DataCaching":           "f2a22c50088cd4e7649e9458d1d37e357c8de7a7752a9cb275ecfd79b18b96c9",
	"served/threshold-knn/DataServing":           "0d8e939e196f5dc7dc450be060f0df6bbafa1c1954a9d0554e18ead81a107758",
	"served/threshold-knn/GraphAnalytics":        "19989147521326effa6a9823f2b6f7150d707349ba7b98349efa2fcd1e1d5f31",
	"served/threshold-knn/InMemoryAnalytics":     "9a0eb97693b764153a2332e4891195ec1cb17647c3a44d653ccbec78daf863ac",
	"served/threshold-knn/MediaStreaming":        "dc50cb98f2791ddda92168097eca69ac68d2c06c3869991a3046efaecae9d022",
	"served/threshold-knn/WebSearch":             "d5643db584b2b9e48a7b08d89211217d11966fc47b8fe8aa98b5be24ab6fe263",
	"served/threshold-knn/WebServing":            "fed6a550ca36927beb41a49069b549ecbe65d32785080cf23389cbfddc1bff0c",
	"served/threshold-knn/aggregation":           "d6acf574ddcc30dbbbfb4ca9b1af25a3ddffe546a71ce67074bef4729f816f0f",
	"served/threshold-knn/bayes":                 "1bbcb45556526ea4296905ab343869347e7129fd58c5e2ebca636fa6997ba2a0",
	"served/threshold-knn/join":                  "424476ac1ce821b7d3eb6345dfe4cb2e369fae80284abd9469ae3dab21caf9d0",
	"served/threshold-knn/kmeans":                "184c31d627da8e716e5c20694aed2e6d1ed63e456369ffbd03f2c1139b35982a",
	"served/threshold-knn/kmeans/seed=123456":    "243c73535d08f0ee219ba52e5a5053c4a97db099acc5a77d857fe67ff082a3eb",
	"served/threshold-knn/pagerank":              "52beefe36f90c0e4c6c1b55d435b2af9fc7f9060b984a810c7f187a046b09bc1",
	"served/threshold-knn/scan":                  "373020e56c6c8101284534a07b4ce34dc68191d19eb64eaf00a721cbf0150746",
	"served/threshold-knn/sort":                  "36fbddf7170e0183297ca9474a88d2115827e2132e2c2fb6fa29373c85fc8d16",
	"served/threshold-knn/wordcount":             "f1c70bb7bd380ccf20aacfa8f385b08aff9af23f07ff8968e37be54333a0125d",
	"served/threshold-knn/wordcount/seed=123456": "d6888d4bc9a9298941b13a485c7bde95f47e9a79b5f3d05aae7db7a2ab55a530",

	// Collect paths the single-profile served cases do not reach: a
	// co-located analysis, whose IPC reads the union of both tenants'
	// events, and fingerprints over the served events, as /classify's
	// benchmark probe collects them. Generated at 60200bd.
	"served/threshold-knn/colocated/wordcount+sort": "e81bcc849282a9033354f749f2798643baa065711ac9801ebc8efc1197848155",
	"fingerprint/served/sort":                       "f52491667ba72263b79bac918a170213f43b7bba7bd725a22eff12d3c053be21",
	"fingerprint/served/DataCaching+GraphAnalytics": "4d337ba3ef23dba145e0ddcebc9c6037529940ca4b4527940ba73135cbdbe55a",
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
	// The served shape: the 11 events of ICACHE.*, L2_RQSTS.* and
	// BR_INST_RETIRED.*, 2 runs, 20 trees and SkipEIR, as counterminerd
	// analyses them, over every benchmark under both cleaners, plus two
	// benchmarks at a large seed.
	served, err := probe.Catalogue().Select([]string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"})
	if err != nil {
		t.Fatal(err)
	}
	servedOpts := func(cleaner string, seed int64) Options {
		opts := Options{Events: served, Runs: 2, Trees: 20, SkipEIR: true, Seed: seed}
		opts.CleanOptions.Cleaner = cleaner
		return opts
	}
	for _, cleaner := range []string{clean.DefaultCleaner, clean.BayesCleaner} {
		for _, b := range probe.Benchmarks() {
			cases = append(cases, digestCase{"served/" + cleaner + "/" + b, analyze(b, servedOpts(cleaner, 1))})
		}
	}
	for _, b := range []string{"wordcount", "kmeans"} {
		cases = append(cases, digestCase{
			fmt.Sprintf("served/%s/%s/seed=123456", clean.DefaultCleaner, b),
			analyze(b, servedOpts(clean.DefaultCleaner, 123456)),
		})
	}
	cases = append(cases, digestCase{
		"served/threshold-knn/colocated/wordcount+sort",
		func(ctx context.Context) (any, error) {
			p, err := NewPipeline(servedOpts(clean.DefaultCleaner, 1))
			if err != nil {
				return nil, err
			}
			return p.AnalyzeColocatedContext(ctx, "wordcount", "sort")
		},
	})
	for _, pair := range [][2]string{{"sort", ""}, {"DataCaching", "GraphAnalytics"}} {
		name := "fingerprint/served/" + pair[0]
		if pair[1] != "" {
			name += "+" + pair[1]
		}
		cases = append(cases, digestCase{name, func(ctx context.Context) (any, error) {
			p, err := NewPipeline(servedOpts(clean.DefaultCleaner, 1))
			if err != nil {
				return nil, err
			}
			return p.FingerprintContext(ctx, pair[0], pair[1])
		}})
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
