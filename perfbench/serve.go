package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// serve-mixed: one embedding table served over loopback TCP while it is
// trained. A closed-loop trainer pulls then pushes skewed batches; an
// open-loop generator issues lookups through the serving tier at a fixed
// rate; a snapshot is published every second. It is the only workload
// with reads beside writes and the only one over a real socket, so it
// shows a gain for training that costs serving, or the reverse.
const (
	svRows      = 65_536
	svDim       = 32
	svParts     = 4
	svReplicas  = 1
	svHotKeys   = 64
	svHead      = 48
	svHotFrac   = 0.9
	svBatch     = 128
	svLoadChunk = 4096
	svCacheRows = 4096
	// svRate keeps the single generator about 40% busy on a quiet host, so
	// other tenants' load slows lookups without a backlog running away
	// (at 500/s it was 65% busy and a 15% foreign load multiplied p99 by 6).
	svRate       = 300 // lookups per second
	svWindow     = 6 * time.Second
	svSub        = time.Second // throughput sub-window: one publish in each
	svPublish    = time.Second
	svLatencyCap = 10 * time.Millisecond // the lookup latency limit quality counts against
)

var serveWorkload = workload{
	name: "serve-mixed",
	params: map[string]any{"rows": svRows, "dim": svDim, "partitions": svParts, "replicas": svReplicas,
		"hot_keys": svHotKeys, "head": svHead, "hot_frac": svHotFrac, "batch": svBatch,
		"lru_rows": svCacheRows, "lookups_per_s": svRate, "window_s": svWindow.Seconds(),
		"publish_every_s": svPublish.Seconds(), "latency_limit_ms": svLatencyCap.Seconds() * 1e3,
		"transport": "tcp"},
	prepare: prepareServe,
}

func prepareServe(seed int64) (func(*probe) (*round, error), error) {
	// The hot head is part of the workload, not of the seed: evenly spaced
	// ids, so every seed spreads it over the partitions alike.
	head := make([]int64, svHead)
	for i := range head {
		head[i] = int64(i) * (svRows / svHead)
	}
	rng := rand.New(rand.NewSource(seed))
	// The initial table, loaded into the cluster during set-up.
	table := make([]map[int64][]float64, 0, svRows/svLoadChunk)
	for lo := 0; lo < svRows; lo += svLoadChunk {
		chunk := make(map[int64][]float64, svLoadChunk)
		for id := lo; id < lo+svLoadChunk; id++ {
			row := make([]float64, svDim)
			for k := range row {
				row[k] = rng.NormFloat64() * 0.1
			}
			chunk[int64(id)] = row
		}
		table = append(table, chunk)
	}
	draw := func(rng *rand.Rand) int64 {
		if rng.Float64() < svHotFrac {
			return head[rng.Intn(svHead)]
		}
		return rng.Int63n(svRows)
	}
	roundNo := int64(0)
	return func(p *probe) (*round, error) {
		roundNo++
		return serveRound(p, table, draw, seed*1_000_003+roundNo)
	}, nil
}

// serveCluster is one set-up of the serving workload.
type serveCluster struct {
	tr      *rpc.TCP
	cl      *ps.Cluster
	agent   *ps.Client // loads the table and publishes snapshots
	trainer *ps.Client
	reader  *ps.Client
	emb     *ps.Emb
	sc      *ps.ServeClient
}

func (s *serveCluster) close() {
	s.cl.Close()
	s.tr.Close()
}

func startServeCluster(table []map[int64][]float64) (*serveCluster, error) {
	s := &serveCluster{tr: rpc.NewTCP()}
	var err error
	if s.cl, err = ps.NewCluster(ps.ClusterConfig{NumServers: servers, Transport: s.tr}); err != nil {
		s.tr.Close()
		return nil, err
	}
	s.cl.Master.SetServeOptions(ps.ServeOptions{Replicas: svReplicas, HotKeys: svHotKeys})
	s.agent = s.cl.NewClient()
	emb, err := s.agent.CreateEmbedding(ps.EmbeddingSpec{Name: "serve.emb", Dim: svDim, Partitions: svParts})
	if err != nil {
		s.close()
		return nil, err
	}
	for _, chunk := range table {
		if err := emb.PushSet(chunk); err != nil {
			s.close()
			return nil, err
		}
	}
	if _, err := s.agent.PublishSnapshot("serve.emb"); err != nil {
		s.close()
		return nil, err
	}
	s.trainer = s.cl.NewClient()
	if s.emb, err = s.trainer.Embedding("serve.emb"); err != nil {
		s.close()
		return nil, err
	}
	s.reader = s.cl.NewClient()
	s.reader.SetRowCacheLimits(svCacheRows, 0)
	if s.sc, err = s.reader.Serve("serve.emb"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// opSpans records benchmark-side spans around public API calls; the
// serving workload cannot use the transport decorator over TCP.
type opSpans struct {
	on    bool
	job   int64
	mu    sync.Mutex
	spans []Span
}

func (o *opSpans) add(method string, start, end time.Time, err error) {
	if !o.on {
		return
	}
	o.mu.Lock()
	o.spans = append(o.spans, Span{Kind: "op", Method: method, Start: int64(start.Sub(epoch)),
		End: int64(end.Sub(epoch)), Err: err != nil, Job: o.job})
	o.mu.Unlock()
}

func serveRound(p *probe, table []map[int64][]float64, draw func(*rand.Rand) int64, seed int64) (*round, error) {
	r := &round{}
	t0 := time.Now()
	s, err := startServeCluster(table)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.setup = time.Since(t0)

	ops := &opSpans{on: p.traced, job: jobIDs.Add(1)}
	var applied0, replayed0 int64
	if p.traced {
		if applied0, replayed0, err = s.cl.MutationTotals(); err != nil {
			return nil, err
		}
	}
	gc0 := readGC()
	cpu0 := cpuTime()
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Closed-loop trainer: pull a skewed batch, then push an update to it.
	var pushes, pushFails int64
	var pushLat, pullLat []time.Duration
	subRows := make([]int64, svWindow/svSub) // rows pushed per sub-window
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		upd := make([]float64, svDim)
		for k := range upd {
			upd[k] = 1e-4
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := make(map[int64][]float64, svBatch)
			ids := make([]int64, 0, svBatch)
			for i := 0; i < svBatch; i++ {
				id := draw(rng)
				if _, dup := batch[id]; !dup {
					batch[id] = upd
					ids = append(ids, id)
				}
			}
			t := time.Now()
			_, err := s.emb.Pull(ids)
			t1 := time.Now()
			ops.add("Emb.Pull", t, t1, err)
			if err == nil {
				err = s.emb.PushAdd(batch)
				ops.add("Emb.PushAdd", t1, time.Now(), err)
			}
			pushes++
			if err != nil {
				pushFails++
				continue
			}
			done := time.Now()
			pullLat = append(pullLat, t1.Sub(t))
			pushLat = append(pushLat, done.Sub(t1))
			if k := int(done.Sub(start) / svSub); k < len(subRows) {
				subRows[k] += int64(len(batch))
			}
		}
	}()

	// Snapshot publisher, at fixed offsets into the window so every round
	// publishes the same number of times.
	var pubLat []time.Duration
	var pubFails int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for at := svPublish / 2; at < svWindow; at += svPublish {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(at))):
			}
			t := time.Now()
			_, err := s.agent.PublishSnapshot("serve.emb")
			ops.add("Client.PublishSnapshot", t, time.Now(), err)
			if err != nil {
				pubFails++
				continue
			}
			pubLat = append(pubLat, time.Since(t))
		}
	}()

	// Open-loop lookups on this goroutine: each is timed from when it was
	// due, so a stall also charges the lookups queued behind it.
	rng := rand.New(rand.NewSource(^seed))
	interval := time.Second / svRate
	n := int(svWindow / interval)
	var late []time.Duration
	var lookupErr error
	ids := make([]int64, svBatch)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		late = append(late, sent.Sub(due))
		for k := range ids {
			ids[k] = draw(rng)
		}
		got, err := s.sc.Pull(ids)
		end := time.Now()
		ops.add("ServeClient.Pull", sent, end, err)
		if err == nil {
			for _, id := range ids {
				if len(got[id]) != svDim {
					err = fmt.Errorf("%w: lookup returned %d values for row %d", errCheck, len(got[id]), id)
					break
				}
			}
		}
		if err != nil {
			r.failed++
			if lookupErr == nil {
				lookupErr = err
			}
			continue
		}
		r.lookups = append(r.lookups, end.Sub(due))
	}
	close(stop)
	wg.Wait()
	p.jobDone()
	r.cpu = cpuTime() - cpu0
	gc := readGC().sub(gc0)
	for _, n := range subRows {
		r.tput = append(r.tput, float64(n)/svSub.Seconds())
	}
	r.ops = int64(n) + pushes + int64(len(pubLat)) + pubFails
	r.failed += pushFails + pubFails
	within := 0
	for _, l := range r.lookups {
		if l <= svLatencyCap {
			within++
		}
	}
	r.quality = float64(within) / float64(n)

	applied, replayed, err := s.cl.MutationTotals()
	if err != nil {
		return r, err
	}
	var sent int64
	for _, c := range []*ps.Client{s.agent, s.trainer, s.reader} {
		m, _ := c.MutationStats()
		sent += m
	}
	if p.traced {
		st := s.sc.Stats()
		l := map[string]float64{
			"ps.server.mut_applied":  float64(applied - applied0),
			"ps.server.mut_replayed": float64(replayed - replayed0),
			"ps.client.push_p50_ms":  quantile(ms(pushLat), 0.5),
			"ps.client.push_p99_ms":  quantile(ms(pushLat), 0.99),
			"ps.client.pull_p50_ms":  quantile(ms(pullLat), 0.5),
			"serve.snap_rows":        float64(st.SnapRows),
			"serve.primary_rows":     float64(st.PrimaryRows),
			"serve.publish_s":        quantile(ms(pubLat), 0.5) / 1e3,
			"serve.publishes":        float64(len(pubLat)),
			"go.alloc_mb":            float64(gc.allocBytes) / 1e6,
			"go.gc_cycles":           float64(gc.cycles),
			"go.gc_pause_ms":         float64(gc.pauseNs) / 1e6,
			"loadgen.late_p99_ms":    quantile(ms(late), 0.99),
			"loadgen.lookups":        float64(n),
		}
		if total := st.TotalRows(); total > 0 {
			l["serve.cache_hit_ratio"] = float64(st.CacheRows) / float64(total)
			l["serve.offload_share"] = float64(st.OffloadedRows()) / float64(total)
		}
		stats, err := s.cl.Stats()
		if err != nil {
			return r, err
		}
		for _, ss := range stats {
			l["ps.server.resident_mb"] += float64(ss.Bytes) / 1e6
		}
		for _, c := range []*ps.Client{s.trainer, s.reader} {
			sent, recv := c.Comm()
			l["ps.client.comm_mb"] += float64(sent+recv) / 1e6
		}
		r.layers = l
		r.spans = ops.spans
	}
	// A lookup that returned an error is already counted in r.failed; one
	// that returned wrong rows fails the correctness check.
	if errors.Is(lookupErr, errCheck) {
		return r, lookupErr
	}
	if applied != sent {
		return r, fmt.Errorf("%w: servers applied %d mutations, clients sent %d", errCheck, applied, sent)
	}
	return r, nil
}
