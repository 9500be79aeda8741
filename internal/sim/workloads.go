package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Suite identifies the benchmark suite a workload belongs to.
type Suite int

const (
	// HiBench marks the eight Spark 2.0 benchmarks from HiBench.
	HiBench Suite = iota
	// CloudSuite marks the eight CloudSuite 3.0 benchmarks.
	CloudSuite
)

func (s Suite) String() string {
	if s == HiBench {
		return "HiBench"
	}
	return "CloudSuite"
}

// Weighted is an (event abbreviation, importance weight) pair. Weights
// are relative; trace generation normalises them into IPC penalty
// coefficients.
type Weighted struct {
	Abbrev string
	Weight float64
}

// Pair names two interacting events with a relative interaction
// strength.
type Pair struct {
	A, B     string
	Strength float64
}

// Profile is the ground-truth description of one benchmark: which
// events matter for its IPC, how strongly pairs of events interact, and
// its phase structure. The paper gets no such ground truth from real
// hardware; having one here is what lets the test suite verify that the
// importance and interaction rankers recover the truth.
type Profile struct {
	// Name is the benchmark name as the paper spells it.
	Name string
	// Abbrev is the short code used in Fig. 1 (WDC, PGR, ...).
	Abbrev string
	// Suite is the benchmark suite.
	Suite Suite
	// Framework is the software stack, as in Table II.
	Framework string
	// Category is the application category, as in Table II.
	Category string
	// Tiers counts the software tiers; multi-tier services exhibit
	// stronger event interactions (§V-C).
	Tiers int
	// Weights lists the designed important events in descending
	// importance. The first one to three entries are significantly
	// heavier than the rest (the one–three SMI law).
	Weights []Weighted
	// Interactions lists event pairs with designed interaction
	// strength, descending.
	Interactions []Pair
	// BaseIPC is the unstalled IPC ceiling of the workload.
	BaseIPC float64
	// Intervals is the nominal run length in sampling intervals.
	Intervals int
	// Seed decorrelates the profile's trace generation from other
	// profiles.
	Seed int64
}

// hb builds a HiBench profile; cs a CloudSuite one.
func hb(name, abbrev, category string, seed int64, weights []Weighted, inter []Pair) Profile {
	return Profile{
		Name: name, Abbrev: abbrev, Suite: HiBench, Framework: "Spark 2.0",
		Category: category, Tiers: 1, Weights: weights, Interactions: inter,
		BaseIPC: 1.8, Intervals: 420, Seed: seed,
	}
}

func cs(name, abbrev, framework, category string, tiers int, seed int64, weights []Weighted, inter []Pair) Profile {
	return Profile{
		Name: name, Abbrev: abbrev, Suite: CloudSuite, Framework: framework,
		Category: category, Tiers: tiers, Weights: weights, Interactions: inter,
		BaseIPC: 1.6, Intervals: 420, Seed: seed,
	}
}

// w is shorthand for a Weighted literal.
func w(abbr string, weight float64) Weighted { return Weighted{Abbrev: abbr, Weight: weight} }

// pr is shorthand for a Pair literal.
func pr(a, b string, s float64) Pair { return Pair{A: a, B: b, Strength: s} }

// profiles mirrors the paper's sixteen benchmarks. The per-benchmark
// top-10 event orders follow Fig. 9 (HiBench) and Fig. 10 (CloudSuite);
// the interaction pair lists follow Fig. 11 and Fig. 12. Weight
// magnitudes encode the one–three SMI law: the top one to three events
// carry ~5-8% importance, the rest below ~2.2%.
var profiles = []Profile{
	hb("wordcount", "WDC", "micro benchmark", 101,
		[]Weighted{w("ISF", 6.1), w("BRE", 5.6), w("ORA", 5.2), w("IPD", 3.3), w("BRB", 3), w("BMP", 2.7), w("MSL", 2.4), w("URA", 2.25), w("URS", 2.1), w("ITM", 1.95)},
		[]Pair{pr("BRB", "BMP", 15), pr("ORA", "BRB", 11), pr("URA", "URS", 9), pr("BRB", "ITM", 8), pr("ORA", "BMP", 7), pr("ISF", "BRB", 6), pr("BRB", "URA", 5), pr("BRE", "BRB", 4.5), pr("ORA", "ITM", 4), pr("ISF", "BRE", 3.5)}),
	hb("pagerank", "PGR", "websearch", 102,
		[]Weighted{w("BRE", 6.7), w("ISF", 5.4), w("BRB", 3.15), w("LMH", 2.85), w("BMP", 2.7), w("ITM", 2.55), w("PI3", 2.4), w("MCO", 2.25), w("BRC", 2.1), w("TFA", 1.95)},
		[]Pair{pr("BRB", "BMP", 14), pr("BRE", "ISF", 11), pr("BRE", "BRB", 9), pr("BRE", "BMP", 8), pr("ISF", "BRB", 7), pr("ISF", "BMP", 6), pr("BRB", "BRC", 5), pr("BRE", "PI3", 4.5), pr("BRE", "ITM", 4), pr("ISF", "ITM", 3.5)}),
	hb("aggregation", "AGG", "SQL", 103,
		[]Weighted{w("ISF", 6.6), w("BRE", 5.8), w("BRB", 3.3), w("MSL", 3), w("BAA", 2.7), w("MMR", 2.55), w("PI3", 2.4), w("BMP", 2.25), w("IPD", 2.1), w("MCO", 1.95)},
		[]Pair{pr("BRE", "MSL", 13), pr("ISF", "MSL", 11), pr("MSL", "BMP", 9), pr("MSL", "BAA", 8), pr("MMR", "BMP", 7), pr("ISF", "BRE", 6), pr("MSL", "PI3", 5), pr("BRB", "BMP", 4.5), pr("BRB", "MSL", 4), pr("BRE", "BRB", 3.5)}),
	hb("join", "JON", "SQL", 104,
		[]Weighted{w("BRE", 6.4), w("LRC", 5.7), w("ISF", 5.1), w("BRB", 3.15), w("LMH", 2.85), w("IPD", 2.7), w("BMP", 2.55), w("IMC", 2.4), w("IM4", 2.25), w("ITM", 2.1)},
		[]Pair{pr("BRB", "BMP", 14), pr("BRE", "BRB", 11), pr("ISF", "BMP", 9), pr("ISF", "BRB", 8), pr("BRE", "ISF", 7), pr("BRE", "BMP", 6), pr("LRC", "BRB", 5), pr("LRC", "BMP", 4.5), pr("BRE", "IPD", 4), pr("BMP", "IMC", 3.5)}),
	hb("scan", "SCN", "SQL", 105,
		[]Weighted{w("BRE", 7.6), w("ISF", 5.9), w("LMH", 3.3), w("BRB", 3), w("MSL", 2.85), w("PI3", 2.7), w("MMR", 2.55), w("BMP", 2.4), w("MIE", 2.25), w("CAC", 2.1)},
		[]Pair{pr("ISF", "BMP", 13), pr("ISF", "LMH", 11), pr("BRE", "BMP", 9), pr("LMH", "MMR", 8), pr("LMH", "BMP", 7), pr("BRE", "LMH", 6), pr("BRE", "ISF", 5), pr("MMR", "BMP", 4.5), pr("ISF", "MMR", 4), pr("BRE", "MMR", 3.5)}),
	hb("sort", "SOT", "micro benchmark", 106,
		[]Weighted{w("ORO", 6.2), w("IDU", 5.5), w("ISF", 4.9), w("LRA", 3.15), w("BRE", 2.85), w("BRB", 2.7), w("BMP", 2.55), w("LMH", 2.4), w("MSL", 2.25), w("MST", 2.1)},
		[]Pair{pr("ISF", "MST", 13), pr("LRA", "MST", 11), pr("ORO", "MST", 9), pr("BRE", "MST", 8), pr("IDU", "MST", 7), pr("BMP", "LMH", 6), pr("LRA", "BRE", 5), pr("BMP", "MST", 4.5), pr("ORO", "LRA", 4), pr("BRE", "MSL", 3.5)}),
	hb("bayes", "BAY", "machine learning", 107,
		[]Weighted{w("BRE", 6.3), w("ISF", 5.2), w("PI3", 3.3), w("MSL", 3), w("BRB", 2.85), w("IPD", 2.7), w("MST", 2.55), w("TFA", 2.4), w("MMR", 2.25), w("LMH", 2.1)},
		[]Pair{pr("ISF", "BRB", 13), pr("BRE", "BRB", 11), pr("BRE", "ISF", 9), pr("PI3", "BRB", 8), pr("ISF", "PI3", 7), pr("BRE", "PI3", 6), pr("MSL", "MST", 5), pr("MMR", "LMH", 4.5), pr("BRB", "LMH", 4), pr("BRE", "LMH", 3.5)}),
	hb("kmeans", "KME", "machine learning", 108,
		[]Weighted{w("ISF", 6.8), w("BRE", 5.3), w("IPD", 3.3), w("BRB", 3), w("IMT", 2.85), w("MSL", 2.7), w("PI3", 2.55), w("OTS", 2.4), w("BMP", 2.25), w("MCO", 2.1)},
		[]Pair{pr("BRB", "BMP", 14), pr("ISF", "BMP", 11), pr("ISF", "BRB", 9), pr("ITM", "BMP", 8), pr("BRB", "ITM", 7), pr("BRE", "BRB", 6), pr("BRE", "BMP", 5), pr("PI3", "BMP", 4.5), pr("MSL", "BMP", 4), pr("BRB", "PI3", 3.5)}),

	cs("DataAnalytics", "DAA", "Hadoop / Mahout", "machine learning", 2, 201,
		[]Weighted{w("ISF", 6.5), w("BRB", 5.6), w("BRE", 3.3), w("IPD", 3), w("MMR", 2.85), w("MSL", 2.7), w("LMH", 2.55), w("MUL", 2.4), w("MST", 2.25), w("MLL", 2.1)},
		[]Pair{pr("BRB", "BMP", 30), pr("ISF", "BRB", 14), pr("BRB", "MMR", 10), pr("ISF", "MSL", 8), pr("BRE", "BRB", 7), pr("MMR", "MSL", 6), pr("IPD", "BRB", 5), pr("MUL", "MLL", 4.5), pr("ISF", "BRE", 4), pr("LMH", "MMR", 3.5)}),
	cs("DataCaching", "DAC", "Memcached", "data caching", 2, 202,
		[]Weighted{w("ISF", 4.9), w("BRB", 4.1), w("IPD", 3.15), w("BRE", 3), w("MSL", 2.85), w("BMP", 2.7), w("MMR", 2.55), w("LMH", 2.4), w("MST", 2.25), w("MLL", 2.1)},
		[]Pair{pr("BRB", "BMP", 34), pr("ISF", "BRB", 13), pr("IPD", "BRB", 10), pr("BRE", "BMP", 8), pr("MSL", "MMR", 7), pr("ISF", "BMP", 6), pr("BRE", "BRB", 5), pr("LMH", "MMR", 4.5), pr("MST", "MSL", 4), pr("ISF", "MSL", 3.5)}),
	cs("DataServing", "DAS", "Cassandra", "NoSQL serving", 3, 203,
		[]Weighted{w("ISF", 6.9), w("PI3", 5.8), w("BRE", 3.3), w("BRB", 3), w("IPD", 2.85), w("MMR", 2.7), w("MSL", 2.55), w("LMH", 2.4), w("ITM", 2.25), w("BMP", 2.1)},
		[]Pair{pr("BRB", "BMP", 40), pr("PI3", "ISF", 13), pr("ISF", "BRB", 10), pr("PI3", "BRB", 8), pr("BRE", "BMP", 7), pr("MMR", "MSL", 6), pr("ITM", "IPD", 5), pr("BRE", "BRB", 4.5), pr("ISF", "MSL", 4), pr("LMH", "MMR", 3.5)}),
	cs("GraphAnalytics", "GPA", "Spark GraphX", "graph analytics", 1, 204,
		[]Weighted{w("ISF", 6), w("BRE", 5.1), w("BRB", 3.3), w("MSL", 3), w("DSP", 2.85), w("TFA", 2.7), w("MMR", 2.55), w("DSH", 2.4), w("MST", 2.25), w("BMP", 2.1)},
		[]Pair{pr("ISF", "BRE", 19), pr("BRB", "BMP", 15), pr("DSP", "DSH", 11), pr("ISF", "MSL", 9), pr("BRE", "BRB", 8), pr("MSL", "MMR", 7), pr("TFA", "MSL", 6), pr("BRE", "BMP", 5), pr("MST", "MSL", 4.5), pr("ISF", "BRB", 4)}),
	cs("InMemoryAnalytics", "IMA", "Spark MLlib", "in-memory analytics", 1, 205,
		[]Weighted{w("BRE", 6.6), w("ISF", 5.4), w("BRB", 3.15), w("MSL", 3), w("IPD", 2.85), w("MMR", 2.7), w("BMP", 2.55), w("PI3", 2.4), w("LMH", 2.25), w("MLL", 2.1)},
		[]Pair{pr("BRB", "BMP", 28), pr("BRE", "ISF", 14), pr("BRE", "BRB", 10), pr("ISF", "MSL", 8), pr("MMR", "MSL", 7), pr("IPD", "BRB", 6), pr("BRE", "BMP", 5), pr("PI3", "IPD", 4.5), pr("LMH", "MMR", 4), pr("ISF", "BRB", 3.5)}),
	cs("MediaStreaming", "MES", "Nginx / HLS", "media streaming", 3, 206,
		[]Weighted{w("BRE", 6.2), w("ISF", 5.7), w("BRB", 3.3), w("MMR", 3), w("IPD", 2.85), w("MSL", 2.7), w("LMH", 2.55), w("BMP", 2.4), w("MCO", 2.25), w("PI3", 2.1)},
		[]Pair{pr("BRB", "BMP", 44), pr("BRE", "ISF", 13), pr("MMR", "MSL", 10), pr("BRE", "BRB", 8), pr("ISF", "BRB", 7), pr("IPD", "BRB", 6), pr("LMH", "MMR", 5), pr("MCO", "MSL", 4.5), pr("BRE", "BMP", 4), pr("ISF", "MSL", 3.5)}),
	cs("WebSearch", "WSH", "Solr", "web search", 2, 207,
		[]Weighted{w("ISF", 7.1), w("MSL", 5.9), w("IPD", 3.3), w("BRE", 3), w("MMR", 2.85), w("BMP", 2.7), w("BRB", 2.55), w("MST", 2.4), w("LHN", 2.25), w("MLL", 2.1)},
		[]Pair{pr("BRB", "BMP", 36), pr("ISF", "MSL", 14), pr("MSL", "MMR", 10), pr("IPD", "ISF", 8), pr("BRE", "BRB", 7), pr("MST", "MSL", 6), pr("LHN", "MMR", 5), pr("BRE", "BMP", 4.5), pr("ISF", "BRB", 4), pr("MLL", "MMR", 3.5)}),
	cs("WebServing", "WSG", "Nginx / PHP / MySQL / Memcached", "web serving", 4, 208,
		[]Weighted{w("MSL", 6.4), w("ISF", 5.5), w("BMP", 3.3), w("MMR", 3), w("LHN", 2.85), w("IPD", 2.7), w("ISL", 2.55), w("BRE", 2.4), w("MLL", 2.25), w("LMH", 2.1)},
		[]Pair{pr("BRB", "BMP", 64), pr("MSL", "ISF", 14), pr("MSL", "MMR", 10), pr("BMP", "BRE", 8), pr("LHN", "MMR", 7), pr("IPD", "ISF", 6), pr("ISL", "ISF", 5), pr("MLL", "MMR", 4.5), pr("MSL", "BMP", 4), pr("LMH", "MMR", 3.5)}),
}

// Profiles returns the sixteen benchmark profiles in paper order
// (HiBench first, then CloudSuite). The returned slice is a copy.
func Profiles() []Profile {
	return append([]Profile(nil), profiles...)
}

// ProfilesBySuite returns the profiles belonging to one suite.
func ProfilesBySuite(s Suite) []Profile {
	var out []Profile
	for _, p := range profiles {
		if p.Suite == s {
			out = append(out, p)
		}
	}
	return out
}

// ProfileByName returns the named profile. Names are matched exactly
// ("wordcount", "DataCaching", ...).
func ProfileByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("sim: unknown benchmark %q", name)
}

// TopEvents returns the abbreviations of the profile's designed
// important events in descending weight order.
func (p Profile) TopEvents() []string {
	out := make([]string, len(p.Weights))
	for i, w := range p.Weights {
		out[i] = w.Abbrev
	}
	return out
}

// DominantPair returns the profile's strongest designed interaction.
func (p Profile) DominantPair() Pair {
	best := Pair{}
	for _, pair := range p.Interactions {
		if pair.Strength > best.Strength {
			best = pair
		}
	}
	return best
}

// AllBenchmarkNames returns the sixteen benchmark names in paper order.
func AllBenchmarkNames() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// Candidates lists the benchmark names that contain name, ignoring
// case, or all of them when none does: what a command or the daemon
// offers in place of an unknown benchmark.
func Candidates(name string) []string {
	all := AllBenchmarkNames()
	low := strings.ToLower(name)
	var out []string
	for _, b := range all {
		if strings.Contains(strings.ToLower(b), low) {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return all
	}
	return out
}

// Validate checks the profile's internal consistency against the
// catalogue: every referenced abbreviation must exist, weights must be
// positive and descending, and interactions must reference distinct
// events.
func (p Profile) Validate(c *Catalogue) error {
	if len(p.Weights) == 0 {
		return fmt.Errorf("sim: profile %s has no weights", p.Name)
	}
	prev := math.MaxFloat64
	for _, w := range p.Weights {
		if _, ok := c.ByAbbrev(w.Abbrev); !ok {
			return fmt.Errorf("sim: profile %s references unknown event %q", p.Name, w.Abbrev)
		}
		if w.Weight <= 0 {
			return fmt.Errorf("sim: profile %s has non-positive weight for %s", p.Name, w.Abbrev)
		}
		if w.Weight > prev {
			return fmt.Errorf("sim: profile %s weights not descending at %s", p.Name, w.Abbrev)
		}
		prev = w.Weight
	}
	for _, pair := range p.Interactions {
		if pair.A == pair.B {
			return fmt.Errorf("sim: profile %s has self-interaction %s", p.Name, pair.A)
		}
		for _, ab := range []string{pair.A, pair.B} {
			if _, ok := c.ByAbbrev(ab); !ok {
				return fmt.Errorf("sim: profile %s interaction references unknown event %q", p.Name, ab)
			}
		}
		if pair.Strength <= 0 {
			return fmt.Errorf("sim: profile %s has non-positive interaction %s-%s", p.Name, pair.A, pair.B)
		}
	}
	return nil
}

// SortedInteractions returns the profile's interactions in descending
// strength order (a copy).
func (p Profile) SortedInteractions() []Pair {
	out := append([]Pair(nil), p.Interactions...)
	sort.Slice(out, func(i, j int) bool { return out[i].Strength > out[j].Strength })
	return out
}
