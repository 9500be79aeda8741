package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	counterminer "counterminer"
)

// setupRepeats is how often a library run measures set-up; the median
// is reported. Pipeline construction takes well under a millisecond, so
// it takes many repeats to make the median steady.
const setupRepeats = 51

// analyzeShape is one library workload: what every analysis computes
// and which inputs the seed draws.
type analyzeShape struct {
	skipEIR bool
	cleaner string
	// inputs draws the input cycle from the seed. Ops run the cycle in
	// order and wrap, so a repeated input checks that the same inputs
	// give the same analysis.
	inputs func(rng *rand.Rand, benchmarks []string) []input
}

type input struct {
	benchmark string
	seed      int64
}

// fullShape is the real shape on one benchmark: two data seeds,
// alternated, so every third op repeats the first.
var fullShape = analyzeShape{
	cleaner: "threshold-knn",
	inputs: func(rng *rand.Rand, _ []string) []input {
		a := 1 + rng.Int63n(1<<30)
		return []input{{"wordcount", a}, {"wordcount", a + 1 + rng.Int63n(1<<20)}}
	},
}

// fastShape visits every benchmark once per cycle, in a seeded order,
// each with its own data seed.
var fastShape = analyzeShape{
	skipEIR: true,
	cleaner: "bayes",
	inputs: func(rng *rand.Rand, benchmarks []string) []input {
		in := make([]input, len(benchmarks))
		for i, j := range rng.Perm(len(benchmarks)) {
			in[i] = input{benchmarks[j], 1 + rng.Int63n(1<<30)}
		}
		return in
	},
}

// analyzeWorkload runs analyses back to back, as a user of the library
// or the counterminer command would: each op builds a pipeline over a
// fresh store and analyses one benchmark, persisting its runs. Set-up
// is the pipeline construction alone.
func analyzeWorkload(shape analyzeShape) workload {
	return func(ctx context.Context, cfg config) (*outcome, error) {
		probe, err := counterminer.NewPipeline(counterminer.Options{})
		if err != nil {
			return nil, err
		}
		events := len(probe.Catalogue().Events())
		inputs := shape.inputs(rand.New(rand.NewSource(cfg.seed)), probe.Benchmarks())

		out := &outcome{}
		for i := 0; i < setupRepeats; i++ {
			t0 := time.Now()
			_, err := counterminer.NewPipeline(shape.options(input{}, filepath.Join(cfg.dir, "setup")))
			out.setup = append(out.setup, time.Since(t0))
			if err != nil {
				return nil, err
			}
		}

		digests := make(map[int]string, len(inputs))
		start := time.Now()
		for k := 0; time.Since(start) < cfg.dur && ctx.Err() == nil; k++ {
			i := k % len(inputs)
			o, a, err := shape.analyze(ctx, inputs[i], filepath.Join(cfg.dir, fmt.Sprintf("store-%d", k)))
			out.attempted++
			if err != nil {
				out.failed++
				out.problem("%s seed %d: %v", inputs[i].benchmark, inputs[i].seed, err)
				continue
			}
			o.start = time.Since(start) - o.latency
			out.ops = append(out.ops, o)
			shape.verify(out, digests, i, inputs[i], a, events)
		}
		out.elapsed = time.Since(start)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// A run too short to wrap the input cycle still checks
		// repeatability, outside the measured window.
		if len(out.ops) > 0 && len(out.ops) <= len(inputs) {
			_, a, err := shape.analyze(ctx, inputs[0], filepath.Join(cfg.dir, "repeat"))
			if err != nil {
				out.problem("repeat of %s: %v", inputs[0].benchmark, err)
			} else {
				shape.verify(out, digests, 0, inputs[0], a, events)
			}
		}
		if len(out.ops) == 0 {
			return nil, fmt.Errorf("no analysis completed")
		}
		return out, nil
	}
}

func (shape analyzeShape) options(in input, store string) counterminer.Options {
	o := counterminer.Options{
		SkipEIR:   shape.skipEIR,
		Seed:      in.seed,
		StorePath: store,
	}
	o.CleanOptions.Cleaner = shape.cleaner
	return o
}

// analyze is one op: construct, analyse, and (untimed) drop the store.
func (shape analyzeShape) analyze(ctx context.Context, in input, store string) (op, *counterminer.Analysis, error) {
	defer os.RemoveAll(store)
	t0 := time.Now()
	p, err := counterminer.NewPipeline(shape.options(in, store))
	if err != nil {
		return op{}, nil, err
	}
	t1 := time.Now()
	a, err := p.AnalyzeContext(ctx, in.benchmark)
	t2 := time.Now()
	if err != nil {
		return op{}, nil, err
	}
	if _, err := os.Stat(store); err != nil {
		return op{}, nil, fmt.Errorf("runs not persisted: %w", err)
	}
	return op{
		latency: t2.Sub(t0),
		call:    t2.Sub(t1),
		stages:  a.Stages,
		fits:    len(a.EIRNumEvents),
		note:    fmt.Sprintf("%s/%d", in.benchmark, in.seed),
	}, a, nil
}

// verify checks one analysis of input i: its invariants, and that it
// equals every earlier analysis of the same input.
func (shape analyzeShape) verify(out *outcome, digests map[int]string, i int, in input, a *counterminer.Analysis, events int) {
	if err := checkAnalysis(a, events, shape.skipEIR); err != nil {
		out.problem("%s seed %d: %v", in.benchmark, in.seed, err)
		return
	}
	if a.Cleaner != shape.cleaner {
		out.problem("%s seed %d: cleaned by %q, want %q", in.benchmark, in.seed, a.Cleaner, shape.cleaner)
	}
	d := digest(a)
	if prev, ok := digests[i]; ok && prev != d {
		out.problem("%s seed %d: same inputs, different analysis", in.benchmark, in.seed)
	}
	digests[i] = d
}
