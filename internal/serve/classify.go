package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	counterminer "counterminer"
	"counterminer/internal/fingerprint"
	"counterminer/internal/sim"
	"counterminer/internal/store"
	"counterminer/internal/timeseries"
	"counterminer/pkg/client"
)

// The classify path. A classification always happens on the serving
// node, against its local fingerprint index — only nodes with a store
// have one; everything else (collecting a benchmark's runs to embed
// them) travels the ordinary job path, so in cluster mode a
// coordinator dispatches fingerprint jobs to workers exactly like
// analyses and then matches the returned embedding locally.

// handleClassify is POST /classify: submit a profile — a benchmark
// identity to collect, or an inline raw counter matrix — and get the
// nearest stored workloads with distances, per-suite confidence, and
// an anomaly verdict. Results are content-addressed by the profile
// identity plus the index version, so identical concurrent requests
// collapse onto one execution and a rebuilt index never serves stale
// verdicts.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncClassifyRequest()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	if s.fpIndex == nil {
		s.metrics.IncClassifyNoIndex()
		status, code := ErrorStatus(ErrNoIndex)
		writeError(w, status, code, ErrNoIndex.Error())
		return
	}
	var req client.ClassifyRequest
	// Inline profiles carry a full intervals × events matrix, so the
	// body limit is far above /analyze's.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining.Error())
		return
	}

	inline := len(req.X) > 0 || len(req.IPC) > 0 || len(req.Events) > 0
	if inline && req.Benchmark != "" {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "bad_request", "set either benchmark or an inline profile (events/x/ipc), not both")
		return
	}
	if !inline && req.Benchmark == "" {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "bad_request", "a profile is required: benchmark, or inline events/x/ipc")
		return
	}
	if req.TopK < 0 || req.Runs < 0 {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "bad_request", "top_k and runs must be >= 0")
		return
	}

	start := time.Now()

	// Resolve the profile to a cache base address and a vec producer.
	var (
		base    string
		compute func() ([]float64, error)
	)
	if inline {
		// Inline profiles embed on the serving node: the embedding is a
		// cheap pure function, not worth a queue trip or a dispatch.
		ds := &counterminer.DataSet{Events: req.Events, X: req.X, Y: req.IPC}
		vec, err := ds.Fingerprint()
		s.metrics.ObserveEmbed(err, time.Since(start))
		if err != nil {
			s.metrics.IncBadRequest()
			writeError(w, http.StatusBadRequest, "bad_request", "invalid inline profile: "+err.Error())
			return
		}
		base = hashVec(vec)
		compute = func() ([]float64, error) { return vec, nil }
	} else {
		for _, name := range []string{req.Benchmark, req.Colocate} {
			if name == "" {
				continue
			}
			if _, err := sim.ProfileByName(name); err != nil {
				writeError(w, http.StatusNotFound, "unknown_benchmark",
					fmt.Sprintf("unknown benchmark %q; candidates: %s", name, strings.Join(candidates(name), ", ")))
				return
			}
		}
		job := Job{Kind: KindFingerprint, AnalyzeRequest: client.AnalyzeRequest{
			Benchmark: req.Benchmark,
			Colocate:  req.Colocate,
			Runs:      req.Runs,
			Seed:      req.Seed,
		}}
		if err := job.options().Validate(); err != nil {
			s.metrics.IncBadRequest()
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		job.Events = s.storeEventVocabulary()
		job = job.keyed()
		base = job.Key
		compute = func() ([]float64, error) {
			// The embedding job rides the ordinary serving machinery:
			// admission queue, content-addressed cache, singleflight —
			// and, on a coordinator, the dispatch plane to a worker.
			ana, err := s.Execute(r.Context(), job)
			if err != nil {
				return nil, err
			}
			return ana.Fingerprint, nil
		}
	}

	// The classification's content address folds in the index version:
	// identical requests share one verdict, a changed index orphans all
	// cached verdicts. (Reading the version outside the classify call
	// is a benign race — a write landing mid-flight just caches the
	// fresh verdict under the old key, which that write orphans too.)
	key := classifyKey(s.fpIndex.Version(), req.TopK, base)
	cls, ok, call, leader := s.fpCache.Acquire(key)
	if ok {
		s.metrics.IncClassifyCacheHit()
		writeJSON(w, http.StatusOK, client.ClassifyResponse{
			Key: key, Cached: true,
			ElapsedMs: msSince(start), Classification: cls,
		})
		return
	}
	if leader {
		s.metrics.IncClassifyCacheMiss()
		vec, err := compute()
		var verdict *client.Classification
		if err == nil {
			var res *fingerprint.Result
			res, err = s.fpIndex.Classify(vec, req.TopK)
			if err == nil {
				verdict = classification(vec, res)
			}
		}
		s.metrics.ObserveClassify(verdict, err, time.Since(start))
		s.fpCache.Complete(key, call, verdict, err)
	} else {
		s.metrics.IncClassifyShared()
	}

	select {
	case <-call.Done:
	case <-r.Context().Done():
		return
	}
	if call.Err != nil {
		status, code := ErrorStatus(call.Err)
		writeError(w, status, code, call.Err.Error())
		return
	}
	writeJSON(w, http.StatusOK, client.ClassifyResponse{
		Key: key, Shared: !leader,
		ElapsedMs: msSince(start), Classification: call.Val,
	})
}

// classification maps the index's verdict onto the wire type.
func classification(vec []float64, res *fingerprint.Result) *client.Classification {
	out := &client.Classification{
		Fingerprint:  vec,
		Confidence:   res.Confidence,
		Anomaly:      res.Anomaly,
		AnomalyScore: res.AnomalyScore,
		IndexVersion: res.IndexVersion,
		Clusters:     res.Clusters,
		Entries:      res.Entries,
	}
	for _, m := range res.Matches {
		out.Matches = append(out.Matches, client.ClusterMatch{
			Benchmark: m.Label, Suite: m.Suite,
			Distance: m.Distance, Members: m.Members,
		})
	}
	for _, sc := range res.Suites {
		out.Suites = append(out.Suites, client.SuiteConfidence{Suite: sc.Suite, Confidence: sc.Confidence})
	}
	return out
}

// classifyKey is the classification's content address: the profile's
// base address (a job content hash, or an inline vector hash) plus
// the index version and the match bound.
func classifyKey(version string, topK int, base string) string {
	h := sha256.New()
	h.Write([]byte("classify\x00"))
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(topK)))
	h.Write([]byte{0})
	h.Write([]byte(base))
	return hex.EncodeToString(h.Sum(nil))
}

// hashVec content-addresses an embedding by its exact bits.
func hashVec(vec []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vec {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return "vec:" + hex.EncodeToString(h.Sum(nil)[:16])
}

// suiteOf resolves a stored run label to its benchmark suite. Labels
// of co-located runs ("bench+colocate") resolve by their primary.
func suiteOf(label string) string {
	name := label
	if i := strings.IndexByte(name, '+'); i >= 0 {
		name = name[:i]
	}
	p, err := sim.ProfileByName(name)
	if err != nil {
		return ""
	}
	return p.Suite.String()
}

// runEntry turns one run into an index entry. Its embedding is the
// embedding of the run's raw persisted series — the same inputs the
// pipeline's Fingerprint stage embeds — so index entries and
// classify-time embeddings are directly comparable regardless of
// which cleaner any analysis ran. A record the pipeline writes carries
// that stage's embedding, which is taken as is; a record read back
// from the store carries none and is embedded here.
func runEntry(rec store.Record) fingerprint.Entry {
	vec := rec.Embedding
	if vec == nil {
		set := timeseries.NewSet()
		for name, vals := range rec.Series {
			set.Put(timeseries.New(name, vals))
		}
		vec = fingerprint.Embed(set, rec.IPC)
	}
	return fingerprint.Entry{
		Key:   fmt.Sprintf("%s/%d/%s", rec.Meta.Benchmark, rec.Meta.RunID, rec.Meta.Mode),
		Label: rec.Meta.Benchmark,
		Suite: suiteOf(rec.Meta.Benchmark),
		Vec:   vec,
	}
}

// storeEventVocabulary returns the event set shared by every stored
// run, or nil (meaning the full catalogue) when the store is empty,
// absent, or its runs disagree. Feature-hashed embeddings are only
// comparable over comparable event sets, so a benchmark probe must be
// collected over the same vocabulary as the index entries it is
// matched against — against a store built from event-filtered
// analyses, a full-catalogue probe would flag every workload as an
// anomaly. The vocabulary lands in the fingerprint Job, so it
// participates in the embedding's content address like any other event
// filter.
func (s *Server) storeEventVocabulary() []string {
	if s.db == nil {
		return nil
	}
	var vocab []string
	for _, meta := range s.db.List() {
		if vocab == nil {
			vocab = meta.Events
			continue
		}
		if !slices.Equal(vocab, meta.Events) {
			return nil
		}
	}
	return vocab
}

// rebuildIndex populates the fingerprint index from every run in the
// store — the startup path, and the daemon's only pass over the whole
// store; from then on indexingSink upserts each persisted run.
func (s *Server) rebuildIndex() {
	if s.fpIndex == nil || s.db == nil {
		return
	}
	var entries []fingerprint.Entry
	s.db.ForEachRun(func(rec store.Record) bool {
		entries = append(entries, runEntry(rec))
		return true
	})
	s.fpIndex.Fill(entries)
	s.metrics.IncIndexRebuild()
}
