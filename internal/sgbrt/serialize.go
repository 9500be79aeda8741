package sgbrt

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// Serialization lets a fitted performance model be stored next to the
// counter data it was trained on (the paper's workflow re-analyses
// collected data offline) and reloaded without refitting.

// wireNode mirrors node with exported fields for encoding.
type wireNode struct {
	Feature     int
	Threshold   float64
	Left, Right int
	Value       float64
	Improvement float64
	Samples     int
}

// wireTree mirrors Tree.
type wireTree struct {
	Nodes     []wireNode
	NFeatures int
}

// wireEnsemble mirrors Ensemble.
type wireEnsemble struct {
	Version   int
	Params    Params
	Base      float64
	Trees     []wireTree
	NFeatures int
}

const wireVersion = 1

// Save encodes the ensemble to w.
func (e *Ensemble) Save(w io.Writer) error {
	img := wireEnsemble{
		Version:   wireVersion,
		Params:    e.params,
		Base:      e.base,
		NFeatures: e.nFeatures,
	}
	for _, t := range e.trees {
		wt := wireTree{NFeatures: t.nFeatures}
		for _, n := range t.nodes {
			wt.Nodes = append(wt.Nodes, wireNode{
				Feature: n.feature, Threshold: n.threshold,
				Left: n.left, Right: n.right,
				Value: n.value, Improvement: n.improvement, Samples: n.samples,
			})
		}
		img.Trees = append(img.Trees, wt)
	}
	return gob.NewEncoder(w).Encode(&img)
}

// Load decodes an ensemble previously written by Save.
func Load(r io.Reader) (*Ensemble, error) {
	var img wireEnsemble
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("sgbrt: load: %w", err)
	}
	if img.Version != wireVersion {
		return nil, fmt.Errorf("sgbrt: load: format version %d, want %d", img.Version, wireVersion)
	}
	if img.NFeatures <= 0 {
		return nil, errors.New("sgbrt: load: invalid feature count")
	}
	e := &Ensemble{params: img.Params, base: img.Base, nFeatures: img.NFeatures}
	for k, wt := range img.Trees {
		if wt.NFeatures != img.NFeatures {
			return nil, fmt.Errorf("sgbrt: load: tree %d has %d features, model has %d", k, wt.NFeatures, img.NFeatures)
		}
		t := &Tree{nFeatures: wt.NFeatures}
		for i, wn := range wt.Nodes {
			if wn.Feature >= t.nFeatures {
				return nil, fmt.Errorf("sgbrt: load: split feature %d out of range", wn.Feature)
			}
			// Save writes nodes in depth-first preorder, so every child
			// follows its parent; a child at or before its parent would
			// make prediction loop forever.
			if wn.Feature >= 0 &&
				(wn.Left <= i || wn.Left >= len(wt.Nodes) || wn.Right <= i || wn.Right >= len(wt.Nodes)) {
				return nil, fmt.Errorf("sgbrt: load: tree %d node %d: child index out of range", k, i)
			}
			t.nodes = append(t.nodes, node{
				feature: wn.Feature, threshold: wn.Threshold,
				left: wn.Left, right: wn.Right,
				value: wn.Value, improvement: wn.Improvement, samples: wn.Samples,
			})
		}
		if len(t.nodes) == 0 {
			return nil, errors.New("sgbrt: load: empty tree")
		}
		e.trees = append(e.trees, t)
	}
	return e, nil
}

// encodeWire is a test hook that encodes a raw wire image.
func encodeWire(w io.Writer, img *wireEnsemble) error {
	return gob.NewEncoder(w).Encode(img)
}
