package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"psgraph/internal/dataflow"
	"psgraph/internal/gen"
)

// mapScatter is the per-edge hash-map scatter the edge block replaced,
// kept as the reference the block kernel must reproduce bit for bit.
func mapScatter(tables []dataflow.KV[int64, []int64], deltas []float64, damping, threshold float64) map[int64]float64 {
	updates := make(map[int64]float64)
	for i, t := range tables {
		d := deltas[i]
		if d <= threshold && d >= -threshold {
			continue
		}
		share := damping * d / float64(len(t.V))
		for _, dst := range t.V {
			updates[dst] += share
		}
	}
	return updates
}

// randomTables draws neighbor tables over ids in [-span/2, span/2); span
// must be at least sources, since sources are distinct. Every source has a
// sorted unique destination list, and a few hubs are shared by many
// sources so destinations collect several shares.
func randomTables(r *rand.Rand, sources, span int) []dataflow.KV[int64, []int64] {
	id := func() int64 { return int64(r.Intn(span) - span/2) }
	hubs := []int64{id(), id(), id()}
	seen := make(map[int64]bool)
	var tables []dataflow.KV[int64, []int64]
	for len(tables) < sources {
		src := id()
		if seen[src] {
			continue
		}
		seen[src] = true
		nbrs := make([]int64, 1+r.Intn(8))
		for i := range nbrs {
			nbrs[i] = id()
		}
		if r.Intn(2) == 0 {
			nbrs = append(nbrs, hubs[r.Intn(len(hubs))])
		}
		tables = append(tables, dataflow.KV[int64, []int64]{K: src, V: sortUnique(nbrs)})
	}
	return tables
}

// randomDeltas mixes positive and negative increments, exact zeros and
// increments just inside the default 1e-9 threshold.
func randomDeltas(r *rand.Rand, n int) []float64 {
	ds := make([]float64, n)
	for i := range ds {
		switch r.Intn(4) {
		case 0:
			ds[i] = 0
		case 1:
			ds[i] = (r.Float64() - 0.5) * 1e-9
		default:
			ds[i] = (r.Float64() - 0.5) * 2
		}
	}
	return ds
}

func TestEdgeBlockScatterMatchesMapScatter(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type tc struct {
		name   string
		tables []dataflow.KV[int64, []int64]
		deltas []float64
	}
	var cases []tc
	for seed := 0; seed < 20; seed++ {
		sources := 1 + r.Intn(200)
		tables := randomTables(r, sources, sources+r.Intn(500))
		cases = append(cases, tc{"random", tables, randomDeltas(r, len(tables))})
	}
	quiet := randomTables(r, 50, 300)
	quietDeltas := randomDeltas(r, len(quiet))
	quietDeltas[0] = 1e-10 // a source whose Δ is below 1e-9 but not zero
	cases = append(cases,
		tc{"one source below threshold", quiet, quietDeltas},
		tc{"empty partition", nil, nil})

	for _, c := range cases {
		b, err := newEdgeBlock(c.tables)
		if err != nil {
			t.Fatal(err)
		}
		for i, tb := range c.tables {
			var got []int64
			for _, s := range b.Local[b.Off[i]:b.Off[i+1]] {
				got = append(got, b.Dsts[s])
			}
			if b.Srcs[i] != tb.K || !slices.Equal(got, tb.V) {
				t.Fatalf("%s: source %d renumbers to %d→%v, want %d→%v", c.name, i, b.Srcs[i], got, tb.K, tb.V)
			}
		}
		for _, threshold := range []float64{1e-9, -1} {
			want := mapScatter(c.tables, c.deltas, 0.85, threshold)
			idx, vals := b.scatter(c.deltas, 0.85, threshold)
			if len(idx) != len(want) || len(vals) != len(idx) {
				t.Fatalf("%s, threshold %g: pushed %d keys, map pushes %d", c.name, threshold, len(idx), len(want))
			}
			for i, k := range idx {
				if i > 0 && idx[i-1] >= k {
					t.Fatalf("%s, threshold %g: keys not ascending at %d: %v", c.name, threshold, i, idx)
				}
				w, ok := want[k]
				if !ok || math.Float64bits(vals[i]) != math.Float64bits(w) {
					t.Fatalf("%s, threshold %g: key %d = %v, map has %v (present %v)", c.name, threshold, k, vals[i], w, ok)
				}
			}
		}
	}
}

func TestEdgeBlockCacheChargesRawBytes(t *testing.T) {
	// The executor budget sizes cached partitions by their gob encoding;
	// the block must be charged at least its slices' in-memory bytes, not
	// a varint-compressed or fallback estimate.
	ctx := newTestContext(t)
	raw := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 11})
	edges := make([]Edge, len(raw))
	for i, e := range raw {
		edges[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	before := ctx.Spark.PersistentBytes()
	blocks := edgeBlocks(edgesRDD(ctx, edges, 3), 4)
	bs, err := blocks.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 4 {
		t.Fatalf("%d blocks for 4 partitions", len(bs))
	}
	var want int64
	for _, b := range bs {
		want += int64(8*len(b.Srcs) + 4*len(b.Off) + 4*len(b.Local) + 8*len(b.Dsts))
	}
	if got := ctx.Spark.PersistentBytes() - before; got < want {
		t.Fatalf("cached blocks charged %d bytes, their slices hold %d", got, want)
	}
	blocks.Unpersist()
	if got := ctx.Spark.PersistentBytes(); got != before {
		t.Fatalf("after Unpersist %d persistent bytes, want %d", got, before)
	}
}
