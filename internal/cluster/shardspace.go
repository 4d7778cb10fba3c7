package cluster

import (
	"fmt"

	"hetpipe/internal/tensor"
)

// shardSpace chunks a flat parameter vector into named contiguous ranges —
// the unit of placement across parameter servers. The paper shards model
// layers over per-node servers; for the numeric tasks the "layers" are
// equal slices of the weight vector.
type shardSpace struct {
	keys   []string
	ranges [][2]int // [lo, hi) per key
}

// newShardSpace splits dim parameters into `chunks` near-equal ranges.
func newShardSpace(dim, chunks int) (*shardSpace, error) {
	if dim < 1 {
		return nil, fmt.Errorf("cluster: empty parameter vector")
	}
	if chunks < 1 {
		return nil, fmt.Errorf("cluster: need at least one chunk")
	}
	if chunks > dim {
		chunks = dim
	}
	s := &shardSpace{}
	size := (dim + chunks - 1) / chunks
	for lo := 0; lo < dim; lo += size {
		hi := lo + size
		if hi > dim {
			hi = dim
		}
		s.ranges = append(s.ranges, [2]int{lo, hi})
		s.keys = append(s.keys, fmt.Sprintf("chunk%04d", len(s.keys)))
	}
	return s, nil
}

// Keys lists the chunk keys in range order.
func (s *shardSpace) Keys() []string { return s.keys }

// Split views a flat vector as per-chunk slices (no copies).
func (s *shardSpace) Split(v tensor.Vector) map[string]tensor.Vector {
	out := make(map[string]tensor.Vector, len(s.keys))
	for i, k := range s.keys {
		out[k] = v[s.ranges[i][0]:s.ranges[i][1]]
	}
	return out
}

// SplitInto fills vecs[i] with the chunk-i view of v (no copies) — the
// ordered, allocation-free companion of Split for the wave hot loop, shaped
// for a ps exchange's sections (vecs[i] pairs with Keys()[i], the placement's
// key order). len(vecs) must be len(Keys()).
//
//hetlint:hotpath
func (s *shardSpace) SplitInto(v tensor.Vector, vecs []tensor.Vector) {
	for i := range s.keys {
		vecs[i] = v[s.ranges[i][0]:s.ranges[i][1]]
	}
}
