package mlkit

import (
	"encoding/json"
	"fmt"
	"io"
)

// forestJSON is the stable on-disk representation of a Forest.
type forestJSON struct {
	Format     string     `json:"format"`
	NumClasses int        `json:"num_classes"`
	Trees      []treeJSON `json:"trees"`
}

type treeJSON struct {
	Nodes []nodeJSON `json:"nodes"`
}

type nodeJSON struct {
	Feature   int       `json:"f"`
	Threshold float64   `json:"t,omitempty"`
	Left      int       `json:"l,omitempty"`
	Right     int       `json:"r,omitempty"`
	Dist      []float64 `json:"d,omitempty"`
}

const forestFormat = "gamelens-forest-v1"

// SaveForest writes the forest as JSON. The format is versioned so trained
// models can be shipped alongside deployments.
func SaveForest(w io.Writer, f *Forest) error {
	out := forestJSON{Format: forestFormat, NumClasses: f.numClasses}
	for _, t := range f.Trees {
		tj := treeJSON{Nodes: make([]nodeJSON, len(t.nodes))}
		for i := range t.nodes {
			n := &t.nodes[i]
			nj := nodeJSON{
				Feature: int(n.Feature), Threshold: n.Threshold,
				Left: int(n.Left), Right: int(n.Right),
			}
			if n.Feature < 0 {
				//gamelens:retain-ok aliased only until Encode below; trees are immutable meanwhile
				nj.Dist = t.leafDist(n)
			}
			tj.Nodes[i] = nj
		}
		out.Trees = append(out.Trees, tj)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("mlkit: encoding forest: %w", err)
	}
	return nil
}

// LoadForest reads a forest saved by SaveForest for inference over
// width-feature vectors. The document is untrusted: every shape inference
// relies on is checked here, so a forest that loads cannot hang or panic a
// prediction. treeBuilder.build appends a split before its children, so
// every saved tree satisfies parent < left, right < len(nodes) — which is
// also what makes every walk end in a leaf — and gives every leaf a full
// num_classes-wide distribution; a document that does not is rejected.
func LoadForest(r io.Reader, width int) (*Forest, error) {
	var in forestJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("mlkit: decoding forest: %w", err)
	}
	if in.Format != forestFormat {
		return nil, fmt.Errorf("mlkit: unknown forest format %q", in.Format)
	}
	if in.NumClasses <= 0 || len(in.Trees) == 0 {
		return nil, fmt.Errorf("mlkit: forest with %d classes, %d trees", in.NumClasses, len(in.Trees))
	}
	f := &Forest{numClasses: in.NumClasses}
	for ti, tj := range in.Trees {
		if len(tj.Nodes) == 0 {
			return nil, fmt.Errorf("mlkit: tree %d has no nodes", ti)
		}
		t := &Tree{numClasses: in.NumClasses, nodes: make([]treeNode, len(tj.Nodes))}
		for i, n := range tj.Nodes {
			switch {
			case n.Feature == -1:
				if len(n.Dist) != in.NumClasses {
					return nil, fmt.Errorf("mlkit: tree %d node %d: %d-class leaf in %d-class forest", ti, i, len(n.Dist), in.NumClasses)
				}
				t.nodes[i] = treeNode{Feature: -1, dist: int32(len(t.dists))}
				t.dists = append(t.dists, n.Dist...)
			case n.Feature < 0 || n.Feature >= width:
				return nil, fmt.Errorf("mlkit: tree %d node %d: split on feature %d of a %d-feature vector", ti, i, n.Feature, width)
			case n.Left <= i || n.Left >= len(tj.Nodes) || n.Right <= i || n.Right >= len(tj.Nodes):
				return nil, fmt.Errorf("mlkit: tree %d node %d: children %d, %d outside (%d, %d)", ti, i, n.Left, n.Right, i, len(tj.Nodes))
			default:
				t.nodes[i] = treeNode{
					Feature: int32(n.Feature), Threshold: n.Threshold,
					Left: int32(n.Left), Right: int32(n.Right),
				}
			}
		}
		f.Trees = append(f.Trees, t)
	}
	return f, nil
}
