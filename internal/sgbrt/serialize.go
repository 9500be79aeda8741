package sgbrt

import (
	"encoding/gob"
	"io"
)

// Save writes a fitted ensemble's byte image: its parameters, base and
// every node of every tree. Nothing reads the image back; two fits are
// the same model exactly when their images are equal, which is how the
// tests compare an optimised fit against a reference one.

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
	Params    Params
	Base      float64
	Trees     []wireTree
	NFeatures int
}

// Save encodes the ensemble to w.
func (e *Ensemble) Save(w io.Writer) error {
	img := wireEnsemble{
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
