package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"psgraph/internal/dataflow"
)

// edgeBlock is one vertex partition's neighbor tables renumbered once to
// dense local destination slots (GraphX's local vertex ids, Gonzalez et
// al., OSDI '14). Every Δ-rank iteration then scatters into a flat
// accumulator indexed by slot instead of hashing each edge into a map.
// The dataflow engine charges a cached partition its gob size; see
// GobEncode.
type edgeBlock struct {
	Srcs  []int64 // source vertices, in neighbor-table order
	Off   []int32 // CSR offsets: source i's edges are Local[Off[i]:Off[i+1]]
	Local []int32 // per-edge destination slot into Dsts
	Dsts  []int64 // sorted unique destination ids
}

// edgeBlocks groups edges into vertex-partitioned neighbor tables and
// renumbers each partition into exactly one cached edgeBlock.
func edgeBlocks(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[edgeBlock] {
	return dataflow.MapPartitions(ToNeighborTables(edges, parts),
		func(_ int, tables []dataflow.KV[int64, []int64]) ([]edgeBlock, error) {
			b, err := newEdgeBlock(tables)
			if err != nil {
				return nil, err
			}
			return []edgeBlock{b}, nil
		}).Cache()
}

func newEdgeBlock(tables []dataflow.KV[int64, []int64]) (edgeBlock, error) {
	b := edgeBlock{Srcs: make([]int64, len(tables)), Off: make([]int32, len(tables)+1)}
	// Hash each destination once here so no iteration ever has to.
	slotOf := make(map[int64]int32)
	edges := 0
	for i, t := range tables {
		b.Srcs[i] = t.K
		edges += len(t.V)
		if edges > math.MaxInt32 {
			return edgeBlock{}, fmt.Errorf("core: partition has over %d edges", math.MaxInt32)
		}
		b.Off[i+1] = int32(edges)
		for _, dst := range t.V {
			slotOf[dst] = 0
		}
	}
	b.Dsts = make([]int64, 0, len(slotOf))
	for dst := range slotOf {
		b.Dsts = append(b.Dsts, dst)
	}
	slices.Sort(b.Dsts)
	for s, dst := range b.Dsts {
		slotOf[dst] = int32(s)
	}
	b.Local = make([]int32, 0, edges)
	for _, t := range tables {
		for _, dst := range t.V {
			b.Local = append(b.Local, slotOf[dst])
		}
	}
	return b, nil
}

// GobEncode writes the four slice lengths, then the slices themselves,
// little-endian at their in-memory width. It exists for the memory charge
// (blocks are never decoded): gob's own varints would undercount the
// block's footprint by about a third.
func (b edgeBlock) GobEncode() ([]byte, error) {
	n := [4]uint32{uint32(len(b.Srcs)), uint32(len(b.Off)), uint32(len(b.Local)), uint32(len(b.Dsts))}
	buf, err := binary.Append(nil, binary.LittleEndian, n)
	for _, s := range []any{b.Srcs, b.Off, b.Local, b.Dsts} {
		if err != nil {
			return nil, err
		}
		buf, err = binary.Append(buf, binary.LittleEndian, s)
	}
	return buf, err
}

// scatter spreads damping·Δ/outdeg of every source whose |Δ| exceeds
// threshold over its destinations. deltas is indexed like Srcs. It
// returns the touched destinations in ascending id order with their sums.
// Each destination's shares are added from zero in table order, the order
// a per-edge map accumulation uses, so every sum is bit-identical to it.
func (b *edgeBlock) scatter(deltas []float64, damping, threshold float64) ([]int64, []float64) {
	acc := make([]float64, len(b.Dsts))
	touched := make([]bool, len(b.Dsts))
	for i, d := range deltas {
		if d <= threshold && d >= -threshold {
			continue
		}
		lo, hi := b.Off[i], b.Off[i+1]
		share := damping * d / float64(hi-lo)
		for _, s := range b.Local[lo:hi] {
			acc[s] += share
			touched[s] = true
		}
	}
	n := 0
	for _, t := range touched {
		if t {
			n++
		}
	}
	idx := make([]int64, 0, n)
	vals := make([]float64, 0, n)
	for s, t := range touched {
		if t {
			idx = append(idx, b.Dsts[s])
			vals = append(vals, acc[s])
		}
	}
	return idx, vals
}
