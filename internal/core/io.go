package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"psgraph/internal/dataflow"
)

// Edge is one directed, optionally weighted edge as loaded from the DFS.
// Input lines are "src<TAB>dst" or "src<TAB>dst<TAB>weight" with vertex
// ids encoded as long integers (Sec. IV).
type Edge struct {
	Src, Dst int64
	W        float64
}

// LoadEdges reads an edge list from the DFS into an RDD. Malformed lines
// fail the job (industrial pipelines validate data upstream; silently
// dropping edges would corrupt results).
func LoadEdges(ctx *Context, path string, parts int) *dataflow.RDD[Edge] {
	if parts <= 0 {
		parts = ctx.Partitions()
	}
	lines := dataflow.TextFile(ctx.Spark, path, parts)
	return dataflow.MapPartitions(lines, func(part int, in []string) ([]Edge, error) {
		out := make([]Edge, 0, len(in))
		for _, line := range in {
			if line == "" {
				continue
			}
			e, err := parseEdge(line)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		return out, nil
	})
}

func parseEdge(line string) (Edge, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Edge{}, fmt.Errorf("core: malformed edge line %q", line)
	}
	src, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Edge{}, fmt.Errorf("core: bad src in %q: %v", line, err)
	}
	dst, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Edge{}, fmt.Errorf("core: bad dst in %q: %v", line, err)
	}
	w := 1.0
	if len(fields) >= 3 {
		w, err = strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return Edge{}, fmt.Errorf("core: bad weight in %q: %v", line, err)
		}
	}
	return Edge{Src: src, Dst: dst, W: w}, nil
}

// NumVertices returns max(vertex id)+1 over the edge set, the size used
// for dense PS vectors ("the size of both vectors is equal to the maximal
// index of vertex", Sec. IV-A).
func NumVertices(edges *dataflow.RDD[Edge]) (int64, error) {
	maxID, err := dataflow.Map(edges, func(e Edge) int64 {
		if e.Src > e.Dst {
			return e.Src
		}
		return e.Dst
	}).Reduce(func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
	if err != nil {
		return 0, err
	}
	return maxID + 1, nil
}

// ToNeighborTables converts the edge-partitioned RDD into vertex
// partitioning with groupBy (paper Sec. IV-A, step 1): each element
// becomes (src, sorted unique []dst).
func ToNeighborTables(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[dataflow.KV[int64, []int64]] {
	pairs := dataflow.Map(edges, func(e Edge) dataflow.KV[int64, int64] {
		return dataflow.KV[int64, int64]{K: e.Src, V: e.Dst}
	})
	grouped := dataflow.GroupByKey(pairs, parts)
	return dataflow.Map(grouped, func(kv dataflow.KV[int64, []int64]) dataflow.KV[int64, []int64] {
		return dataflow.KV[int64, []int64]{K: kv.K, V: sortUnique(kv.V)}
	})
}

// ToUndirectedNeighborTables builds neighbor tables treating edges as
// undirected (both directions), as required by common neighbor, triangle
// count and k-core.
func ToUndirectedNeighborTables(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[dataflow.KV[int64, []int64]] {
	pairs := dataflow.FlatMap(edges, func(e Edge) []dataflow.KV[int64, int64] {
		return []dataflow.KV[int64, int64]{{K: e.Src, V: e.Dst}, {K: e.Dst, V: e.Src}}
	})
	grouped := dataflow.GroupByKey(pairs, parts)
	return dataflow.Map(grouped, func(kv dataflow.KV[int64, []int64]) dataflow.KV[int64, []int64] {
		return dataflow.KV[int64, []int64]{K: kv.K, V: sortUnique(kv.V)}
	})
}

// WeightedNeighbor is one adjacency entry of a weighted graph.
type WeightedNeighbor struct {
	Dst int64
	W   float64
}

// ToWeightedNeighborTables builds undirected weighted adjacency,
// accumulating the weights of parallel edges.
func ToWeightedNeighborTables(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[dataflow.KV[int64, []WeightedNeighbor]] {
	pairs := dataflow.FlatMap(edges, func(e Edge) []dataflow.KV[int64, WeightedNeighbor] {
		w := e.W
		if w == 0 {
			w = 1
		}
		return []dataflow.KV[int64, WeightedNeighbor]{
			{K: e.Src, V: WeightedNeighbor{Dst: e.Dst, W: w}},
			{K: e.Dst, V: WeightedNeighbor{Dst: e.Src, W: w}},
		}
	})
	grouped := dataflow.GroupByKey(pairs, parts)
	return dataflow.Map(grouped, func(kv dataflow.KV[int64, []WeightedNeighbor]) dataflow.KV[int64, []WeightedNeighbor] {
		ns := kv.V
		sort.Slice(ns, func(i, j int) bool { return ns[i].Dst < ns[j].Dst })
		out := ns[:0]
		for _, n := range ns {
			if len(out) > 0 && out[len(out)-1].Dst == n.Dst {
				out[len(out)-1].W += n.W
			} else {
				out = append(out, n)
			}
		}
		return dataflow.KV[int64, []WeightedNeighbor]{K: kv.K, V: out}
	})
}

// sortUnique sorts ns in place and drops duplicates.
func sortUnique(ns []int64) []int64 {
	slices.Sort(ns)
	return slices.Compact(ns)
}

// sortedIntersectCount counts the common elements of two sorted slices.
func sortedIntersectCount(a, b []int64) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
