package ps

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"psgraph/internal/rpc"
)

// TestWirePullBlocksGobRoundTrip round-trips the positional pull
// responses of hotMessages (binary exactness is TestWireBinaryRoundTrip's)
// through gob, including the empty blocks the gob-equivalence test skips:
// gob flattens an empty slice to nil, so the decode is compared after the
// same flattening. A response carrying a retired map-shaped id must fail
// to decode rather than be misread.
func TestWirePullBlocksGobRoundTrip(t *testing.T) {
	flat := func(s reflect.Value) {
		if s.Len() == 0 {
			s.Set(reflect.Zero(s.Type()))
		}
	}
	for _, msg := range hotMessages() {
		switch msg.(type) {
		case embPullResp, nbrPullResp:
		default:
			continue
		}
		want := reflect.New(reflect.TypeOf(msg)).Elem()
		want.Set(reflect.ValueOf(msg))
		for i := 0; i < want.NumField(); i++ {
			flat(want.Field(i))
		}
		if got := decodeAs(t, encGob(msg), msg); !wireEq(want, reflect.ValueOf(got)) {
			t.Errorf("gob round trip:\n got %#v\nwant %#v", got, want.Interface())
		}
	}
	// Old map-shaped responses: [tagBin][old id][empty map].
	if err := dec([]byte{tagBin, msgEmbPullReq + 1, 1}, new(embPullResp)); err == nil {
		t.Error("map-shaped EmbPull response decoded into the block response")
	}
	if err := dec([]byte{tagBin, msgNbrPullReq + 1, 1}, new(nbrPullResp)); err == nil {
		t.Error("map-shaped NbrPull response decoded into the block response")
	}
}

// TestEmbEnginePullRequestOrder checks the engine's block: row i answers
// request id i, duplicates repeat the row, a pushed row reads back as
// pushed, and a lazily initialized row equals the stored row
// PartView.Row returns afterwards — under several shard counts, the
// single-lock mode and a column partition.
func TestEmbEnginePullRequestOrder(t *testing.T) {
	const dim = 4
	row := ModelMeta{Name: "e", Kind: Embedding, Dim: dim, InitScale: 0.5, Parts: []Partition{{}}}
	col := ModelMeta{Name: "c", Kind: ColumnEmbedding, Dim: dim, InitScale: 0.5,
		Parts: []Partition{{Col0: 1, Col1: 3}}}
	cases := []struct {
		name   string
		meta   ModelMeta
		shards int
		single bool
	}{
		{"sharded32", row, 0, false},
		{"sharded3", row, 3, false},
		{"singleLock", row, 0, true},
		{"column", col, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			SetEmbShards(tc.shards)
			SetEmbSingleLock(tc.single)
			eng, err := newEngine(tc.meta, 0)
			SetEmbShards(0)
			SetEmbSingleLock(false)
			if err != nil {
				t.Fatal(err)
			}
			e := eng.(*embEngine)
			w := e.width()
			pushed := make([]float64, w)
			for i := range pushed {
				pushed[i] = float64(10 + i)
			}
			if err := e.push(embPushReq{Vecs: map[int64][]float64{3: pushed}, Set: true}); err != nil {
				t.Fatal(err)
			}
			ids := []int64{9, 3, -4, 9, 1 << 40, 3}
			r, err := e.pull(embPullReq{IDs: ids})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Vals) != len(ids)*w {
				t.Fatalf("block length %d, want %d", len(r.Vals), len(ids)*w)
			}
			view := &PartView{eng: e}
			for i, id := range ids {
				got := r.Vals[i*w : (i+1)*w]
				want := view.Row(id)
				if id == 3 {
					want = pushed
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("row %d (id %d) = %v, want %v", i, id, got, want)
				}
			}
		})
	}
}

// pullBlockCluster is a test cluster whose transport hands every pull
// response through the given rewrites, so the client can be fed
// malformed blocks.
func pullBlockCluster(t *testing.T, n int, embFn func(*embPullResp), nbrFn func(*nbrPullResp)) *Client {
	t.Helper()
	tr := &blockRewriter{Transport: rpc.NewInProc(), emb: embFn, nbr: nbrFn}
	c, err := NewCluster(ClusterConfig{NumServers: n, NamePrefix: "t" + t.Name(), Transport: tr})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c.NewClient()
}

type blockRewriter struct {
	rpc.Transport
	emb func(*embPullResp)
	nbr func(*nbrPullResp)
}

func (b *blockRewriter) Call(addr, method string, body []byte) ([]byte, error) {
	out, err := b.Transport.Call(addr, method, body)
	if err != nil {
		return out, err
	}
	switch {
	case method == "EmbPull" && b.emb != nil:
		var r embPullResp
		if err := dec(out, &r); err != nil {
			return nil, err
		}
		b.emb(&r)
		return enc(r), nil
	case method == "NbrPull" && b.nbr != nil:
		var r nbrPullResp
		if err := dec(out, &r); err != nil {
			return nil, err
		}
		b.nbr(&r)
		return enc(r), nil
	}
	return out, nil
}

// TestClientRejectsMalformedPullBlocks: a block that does not match the
// ids it answers is an error from Pull, never a panic.
func TestClientRejectsMalformedPullBlocks(t *testing.T) {
	embCases := map[string]func(*embPullResp){
		"shortVals": func(r *embPullResp) { r.Vals = r.Vals[:len(r.Vals)-1] },
		"longVals":  func(r *embPullResp) { r.Vals = append(r.Vals, 1) },
		"nilVals":   func(r *embPullResp) { r.Vals = nil },
	}
	for name, fn := range embCases {
		for _, byCol := range []bool{false, true} {
			t.Run(fmt.Sprintf("emb/%s/byColumn=%v", name, byCol), func(t *testing.T) {
				cl := pullBlockCluster(t, 2, fn, nil)
				e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "bad", Dim: 4, ByColumn: byCol})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Pull([]int64{1, 2, 3}); err == nil || !strings.Contains(err.Error(), "EmbPull") {
					t.Fatalf("pull of a malformed block: err = %v, want an EmbPull error", err)
				}
			})
		}
	}
	nbrCases := map[string]func(*nbrPullResp){
		"overrunningLens": func(r *nbrPullResp) { r.Lens[0] += 100 },
		"shortLens":       func(r *nbrPullResp) { r.Lens = r.Lens[:len(r.Lens)-1] },
		"badLen":          func(r *nbrPullResp) { r.Lens[0] = -2 },
		"trailingNbrs":    func(r *nbrPullResp) { r.Nbrs = append(r.Nbrs, 7) },
	}
	for name, fn := range nbrCases {
		t.Run("nbr/"+name, func(t *testing.T) {
			cl := pullBlockCluster(t, 1, nil, fn)
			n, err := cl.CreateNeighbor("bad")
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Push(map[int64][]int64{1: {2, 3}, 2: {4}}); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Pull([]int64{1, 2, 3}); err == nil || !strings.Contains(err.Error(), "NbrPull") {
				t.Fatalf("pull of a malformed block: err = %v, want a NbrPull error", err)
			}
		})
	}
}

// sealAll seals every partition of a Neighbor model in place.
func sealAll(t *testing.T, c *Cluster, model string, parts int) {
	t.Helper()
	for _, srv := range csrServers(c) {
		for part := 0; part < parts; part++ {
			if view, err := storeOf(srv).Partition(model, part); err == nil {
				view.SealCSR()
			}
		}
	}
}

// TestNbrPullAbsentVersusEmpty: an id without a table stays absent and a
// present-but-empty table stays present, in request order with
// duplicates, before and after SealCSR, on both wire codecs.
func TestNbrPullAbsentVersusEmpty(t *testing.T) {
	for _, binary := range []bool{true, false} {
		t.Run(fmt.Sprintf("binary=%v", binary), func(t *testing.T) {
			SetBinaryWire(binary)
			defer SetBinaryWire(true)
			c, cl := newTestCluster(t, 2)
			n, err := cl.CreateNeighbor("ae")
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Push(map[int64][]int64{1: {3, 2}, 5: {}, 8: {1}}); err != nil {
				t.Fatal(err)
			}
			check := func(stage string, want1 string) {
				got, err := n.Pull([]int64{5, 1, 9, 5, 8, 1})
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if fmt.Sprint(got[1]) != want1 || fmt.Sprint(got[8]) != "[1]" {
					t.Errorf("%s: tables = %v", stage, got)
				}
				if ns, ok := got[5]; !ok || len(ns) != 0 {
					t.Errorf("%s: empty table of 5 = %v, present %v; want present and empty", stage, ns, ok)
				}
				if _, ok := got[9]; ok {
					t.Errorf("%s: id 9 has no table but is present", stage)
				}
				if len(got) != 3 {
					t.Errorf("%s: %d ids returned, want 3", stage, len(got))
				}
			}
			check("building", "[3 2]")
			sealAll(t, c, "ae", len(n.Meta.Parts))
			check("sealed", "[2 3]")
		})
	}
}

// TestPulledRowsDoNotAlias: rows and tables handed out of one block are
// cap-limited, so appending to one leaves its neighbour in the block
// unchanged.
func TestPulledRowsDoNotAlias(t *testing.T) {
	for _, byCol := range []bool{false, true} {
		t.Run(fmt.Sprintf("emb/byColumn=%v", byCol), func(t *testing.T) {
			_, cl := newTestCluster(t, 1)
			e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "al", Dim: 3, ByColumn: byCol})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.PushSet(map[int64][]float64{1: {1, 1, 1}, 2: {2, 2, 2}}); err != nil {
				t.Fatal(err)
			}
			got, err := e.Pull([]int64{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			if cap(got[1]) != 3 || cap(got[2]) != 3 {
				t.Fatalf("row caps %d, %d; want 3", cap(got[1]), cap(got[2]))
			}
			_ = append(got[1], 9)
			_ = append(got[2], 9)
			if fmt.Sprint(got[1], got[2]) != "[1 1 1] [2 2 2]" {
				t.Fatalf("rows after append: %v %v", got[1], got[2])
			}
		})
	}
	t.Run("nbr", func(t *testing.T) {
		_, cl := newTestCluster(t, 1)
		n, err := cl.CreateNeighbor("al")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Push(map[int64][]int64{1: {10}, 2: {20, 21}}); err != nil {
			t.Fatal(err)
		}
		got, err := n.Pull([]int64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		_ = append(got[1], 99)
		if fmt.Sprint(got[2]) != "[20 21]" {
			t.Fatalf("table 2 after appending to table 1: %v", got[2])
		}
	})
}
