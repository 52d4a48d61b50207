package ps

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psgraph/internal/rpc"
)

// Client is the PS agent embedded in every executor (Sec. III-C). It
// caches partition layouts from the master and fans pull/push requests out
// to the owning servers. Calls that hit a dead server are retried with
// backoff until the master's recovery brings the server back — this is
// what "the other executors are blocked by the synchronization controller"
// looks like from the worker's side.
type Client struct {
	tr         rpc.Transport
	masterAddr string

	// id is this agent's process-unique identity in the exactly-once
	// protocol; seq numbers its mutating calls. A sequence is drawn once
	// per logical call, before the retry loop, so every retry of the same
	// push carries the same (id, seq) and the server's dedup window can
	// recognize it.
	id  uint64
	seq atomic.Uint64

	mu    sync.RWMutex
	cache map[string]ModelMeta
	// rowCaches holds the per-model versioned prefetch caches
	// (prefetch.go), lazily created, guarded by mu like cache.
	rowCaches map[string]*rowCache

	// rowCacheRows/rowCacheBytes are the caps newly created row caches
	// adopt (SetRowCacheLimits; <= 0 disables a cap).
	rowCacheRows  int
	rowCacheBytes int64

	sentBytes atomic.Int64
	recvBytes atomic.Int64

	// mutSent counts logical mutating calls that succeeded against a
	// server; mutRetried counts those that needed at least one retry. The
	// chaos harness compares the sum of mutSent across agents with the
	// servers' applied counters to prove exactly-once delivery.
	mutSent    atomic.Int64
	mutRetried atomic.Int64

	// RetryTimeout bounds how long a call waits for a recovering server.
	RetryTimeout time.Duration

	// MaxFanOut bounds how many per-partition requests one operation has
	// in flight at once. Zero selects the package default (4×GOMAXPROCS).
	MaxFanOut int
}

// defaultMaxFanOut is the fan-out bound when Client.MaxFanOut is zero:
// enough in-flight requests to hide per-partition RTTs without spawning a
// goroutine per partition on thousand-partition models.
var defaultMaxFanOut = 4 * runtime.GOMAXPROCS(0)

// Comm reports the cumulative request/response payload bytes this agent
// has exchanged with the master and servers — the communication-volume
// metric the paper's partitioning and psFunc optimizations target.
func (c *Client) Comm() (sent, recv int64) {
	return c.sentBytes.Load(), c.recvBytes.Load()
}

// ResetComm zeroes the communication counters.
func (c *Client) ResetComm() {
	c.sentBytes.Store(0)
	c.recvBytes.Store(0)
}

// NewClient creates a PS agent talking to the master at masterAddr.
func NewClient(tr rpc.Transport, masterAddr string) *Client {
	return &Client{
		tr:           tr,
		masterAddr:   masterAddr,
		id:           nextClientID.Add(1),
		cache:        make(map[string]ModelMeta),
		RetryTimeout: 30 * time.Second,
		rowCacheRows: defaultRowCacheRows,
	}
}

// MutationStats reports how many logical mutating calls this agent
// completed against servers and how many of those needed a retry.
func (c *Client) MutationStats() (sent, retried int64) {
	return c.mutSent.Load(), c.mutRetried.Load()
}

// call performs one RPC with retry-on-unreachable semantics.
func (c *Client) call(addr, method string, body []byte) ([]byte, error) {
	return c.callE(nil, addr, method, body, 0, nil)
}

// callC is call with a cancel channel: when a sibling partition call of
// the same fan-out fails, cancel closes and a caller parked in the retry
// backoff gives up immediately instead of sleeping out its deadline.
func (c *Client) callC(cancel <-chan struct{}, addr, method string, body []byte) ([]byte, error) {
	return c.callE(cancel, addr, method, body, 0, nil)
}

// resolveFunc re-resolves a partition's address between retries: it
// refetches the model layout from the master and returns the current
// owner and layout epoch ("" when resolution itself failed, keeping the
// previous target). Data-plane calls install one so a retry follows the
// partition to its promoted backup instead of waiting out a restart.
type resolveFunc func() (addr string, epoch int64)

// maxStaleRetries bounds retries triggered by a stale-layout or
// stale-epoch rejection (as opposed to plain unreachability). Transient
// fencing — a server waiting out a heartbeat hiccup — heals within a
// lease; a live migration is slower: the master publishes the
// post-move layout before the destination has imported the partition,
// so a push routed to the new owner bounces with a stale-layout error
// until the transfer lands, and under a saturating stream that window
// can run a few seconds. The ladder (5ms doubling to a 200ms cap)
// covers ~4s at this depth; a rejection that persists past that is a
// real error the caller must see.
const maxStaleRetries = 24

// callE is the retry engine behind every client RPC. Mutating methods
// are wrapped in the dedup envelope with a sequence drawn ONCE, before
// the retry loop, so every retry of the same logical call replays the
// same (clientID, seq) and a server that already applied the mutation
// answers from its window — even when the retry lands on a different
// server (the promoted backup) or carries a refreshed epoch: the
// envelope is then re-wrapped around the same sequence, never a new
// one, or an already-replicated write could double-apply. The final
// backoff sleep is clamped to the remaining RetryTimeout so the call
// never waits past its deadline.
func (c *Client) callE(cancel <-chan struct{}, addr, method string, body []byte, epoch int64, resolve resolveFunc) ([]byte, error) {
	guarded := dedupGuarded[method]
	var seq uint64
	var wrapped []byte
	wire := body
	if guarded && dedupEnabled.Load() {
		seq = c.seq.Add(1)
		wrapped = wrapDedup(c.id, seq, epoch, body)
		wire = wrapped
	}
	defer func() { putBuf(wrapped) }()
	deadline := time.Now().Add(c.RetryTimeout)
	backoff := 5 * time.Millisecond
	c.sentBytes.Add(int64(len(wire)))
	retried := false
	staleRetries := 0
	for {
		resp, err := c.tr.Call(addr, method, wire)
		if err == nil {
			if guarded && addr != c.masterAddr {
				c.mutSent.Add(1)
				if retried {
					c.mutRetried.Add(1)
				}
			}
			c.recvBytes.Add(int64(len(resp)))
			return resp, nil
		}
		unreachable := errors.Is(err, rpc.ErrUnreachable)
		stale := resolve != nil && (IsStaleEpochErr(err) || staleLayoutErr(err))
		if !unreachable && !stale {
			return nil, err
		}
		if stale {
			if staleRetries++; staleRetries > maxStaleRetries {
				return nil, err
			}
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, err
		}
		if backoff > remaining {
			backoff = remaining
		}
		retried = true
		select {
		case <-cancel:
			return nil, err
		case <-time.After(backoff):
		}
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
		if resolve == nil {
			continue
		}
		// Re-resolve the target: the master may have promoted this
		// partition's backup (new address) and bumped the epoch. The
		// envelope is re-wrapped around the SAME sequence.
		if na, ne := resolve(); na != "" {
			addr = na
			if ne != epoch && wrapped != nil {
				putBuf(wrapped)
				wrapped = wrapDedup(c.id, seq, ne, body)
				wire = wrapped
			}
			epoch = ne
		}
	}
}

// invoke encodes req (when non-nil), performs the RPC, and decodes the
// response into resp (when non-nil). The encode buffer and the response
// buffer are returned to the wire pool — decoded messages never alias
// them — so steady-state pull/push traffic reuses framing memory.
func (c *Client) invoke(addr, method string, req, resp any) error {
	return c.invokeC(nil, addr, method, req, resp)
}

func (c *Client) invokeC(cancel <-chan struct{}, addr, method string, req, resp any) error {
	var body []byte
	if req != nil {
		body = enc(req)
	}
	out, err := c.callC(cancel, addr, method, body)
	putBuf(body)
	if err != nil {
		return err
	}
	if resp != nil {
		err = dec(out, resp)
	}
	putBuf(out)
	return err
}

// staleLayoutErr reports whether err is a server telling us it does not
// hold the model/partition we asked for — the signature of a cached
// layout that went stale when the master moved a partition during
// failover.
func staleLayoutErr(err error) bool {
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "not on this server")
}

// invalidate drops the cached layout of model.
func (c *Client) invalidate(model string) {
	c.mu.Lock()
	delete(c.cache, model)
	c.mu.Unlock()
}

// currentMeta returns the freshest layout this client holds for model:
// the cached copy when present (it may be newer than the snapshot baked
// into a typed handle at construction — splits and moves republish the
// layout), else fallback. Every operation snapshots its layout once
// through this and groups keys against that snapshot, so one request is
// never routed half by an old partition map and half by a new one.
func (c *Client) currentMeta(model string, fallback ModelMeta) ModelMeta {
	c.mu.RLock()
	meta, ok := c.cache[model]
	c.mu.RUnlock()
	if ok {
		return meta
	}
	return fallback
}

// cacheMeta installs a fetched layout and synchronizes the model's
// prefetch row cache with it: rows cached under an older layout epoch
// may live on a different server now and must not be served stale.
func (c *Client) cacheMeta(meta ModelMeta) {
	c.mu.Lock()
	c.cache[meta.Name] = meta
	rc := c.rowCaches[meta.Name]
	c.mu.Unlock()
	if rc != nil {
		rc.syncLayout(meta.Epoch, len(meta.Parts))
	}
}

// refreshMeta drops the cached layout and refetches it from the master.
// When the master is unreachable the stale fallback is returned — the
// caller's next per-partition call will then fail and retry through
// callE's resolver, which keeps refetching with backoff.
func (c *Client) refreshMeta(model string, fallback ModelMeta) ModelMeta {
	c.invalidate(model)
	meta, err := c.GetModel(model)
	if err != nil {
		return fallback
	}
	return meta
}

// rerouteRetries bounds how many times one operation re-groups its keys
// under a refreshed layout after a range-moved rejection (a partition
// split while the operation was routing with the old map). Each retry
// covers one layout change; concurrent rebalancing deeper than this is
// a planner runaway the caller should see.
const rerouteRetries = 4

// partInvoke is invoke for per-partition data-plane calls, plus the
// failover path. part is the partition's stable ID (Partition.Index),
// not its slot — slots renumber when a split inserts a range. The call
// prefers the client's cached layout over the (possibly older) one
// baked into the typed handle, carries the cached layout's epoch in the
// envelope, and installs a resolver so callE can refetch the layout
// between retries — when the addressed server is unreachable (killed
// primary), no longer holds the partition, or fences the write as
// stale-epoch, the retry follows the partition to its current owner
// under the current epoch. cancel aborts a retry backoff early when a
// sibling fan-out call already failed.
func (c *Client) partInvoke(cancel <-chan struct{}, model string, part int, server, method string, req, resp any) error {
	var epoch int64
	c.mu.RLock()
	if meta, ok := c.cache[model]; ok {
		if slot := meta.slotByID(part); slot >= 0 {
			server = meta.Parts[slot].Server
			epoch = meta.Epoch
		}
	}
	c.mu.RUnlock()
	resolve := func() (string, int64) {
		meta := c.refreshMeta(model, ModelMeta{})
		slot := meta.slotByID(part)
		if slot < 0 {
			return "", 0
		}
		return meta.Parts[slot].Server, meta.Epoch
	}
	var body []byte
	if req != nil {
		body = enc(req)
	}
	out, err := c.callE(cancel, server, method, body, epoch, resolve)
	putBuf(body)
	if err != nil {
		return err
	}
	if resp != nil {
		err = dec(out, resp)
	}
	putBuf(out)
	return err
}

// CreateModel registers a new model with the master and returns its meta.
func (c *Client) CreateModel(meta ModelMeta) (ModelMeta, error) {
	var out getModelResp
	if err := c.invoke(c.masterAddr, "CreateModel", createModelReq{Meta: meta}, &out); err != nil {
		return ModelMeta{}, err
	}
	c.cacheMeta(out.Meta)
	return out.Meta, nil
}

// GetModel fetches (and caches) a model's layout.
func (c *Client) GetModel(name string) (ModelMeta, error) {
	c.mu.RLock()
	meta, ok := c.cache[name]
	c.mu.RUnlock()
	if ok {
		return meta, nil
	}
	var out getModelResp
	if err := c.invoke(c.masterAddr, "GetModel", getModelReq{Name: name}, &out); err != nil {
		return ModelMeta{}, err
	}
	c.cacheMeta(out.Meta)
	return out.Meta, nil
}

// DeleteModel removes a model from the servers and the master.
func (c *Client) DeleteModel(name string) error {
	c.invalidate(name)
	return c.invoke(c.masterAddr, "DeleteModel", deleteModelReq{Name: name}, nil)
}

// Barrier blocks until expect workers have reached (tag, epoch). This is
// the BSP synchronization primitive; ASP algorithms simply never call it.
func (c *Client) Barrier(tag string, epoch, expect int) error {
	return c.invoke(c.masterAddr, "Barrier", barrierReq{Tag: tag, Epoch: epoch, Expect: expect}, nil)
}

// Checkpoint snapshots every partition of the model to the DFS.
func (c *Client) Checkpoint(model string) error {
	return c.invoke(c.masterAddr, "Checkpoint", deleteModelReq{Name: model}, nil)
}

// CheckpointModels snapshots a set of models as one atomic unit, fenced
// on the recovery counter: when ifRecoveries >= 0 and a server recovery
// has bumped the counter past it (or a server dies mid-checkpoint), the
// master publishes nothing and raced=true is returned — the previous
// consistent checkpoint set is still intact, so the caller can roll back
// to it and redo the iteration.
func (c *Client) CheckpointModels(models []string, ifRecoveries int64) (raced bool, err error) {
	var resp ckptModelsResp
	if err := c.invoke(c.masterAddr, "CheckpointModels", ckptModelsReq{Names: models, IfRecoveries: ifRecoveries}, &resp); err != nil {
		return false, err
	}
	return resp.Raced, nil
}

// RecoveryCount returns the number of server-recovery events the master
// has performed. Drivers of consistency-critical algorithms compare it
// across an iteration to detect a mid-iteration restore.
func (c *Client) RecoveryCount() (int64, error) {
	resp, err := c.call(c.masterAddr, "RecoveryCount", nil)
	if err != nil {
		return 0, err
	}
	var n int64
	if err := dec(resp, &n); err != nil {
		return 0, err
	}
	putBuf(resp)
	return n, nil
}

// RestoreModel rolls every partition of the model back to its latest
// checkpoint, discarding updates that raced with a recovery.
func (c *Client) RestoreModel(model string) error {
	return c.invoke(c.masterAddr, "RestoreModel", deleteModelReq{Name: model}, nil)
}

// RestoreModels rolls the named models back as one unit: every partition
// from the latest checkpoint generation, or — when the latest is corrupt
// — every partition from the previous generation, never a mix of fences.
func (c *Client) RestoreModels(models []string) error {
	return c.invoke(c.masterAddr, "RestoreModels", restoreModelsReq{Names: models}, nil)
}

// fanOut runs fn for every partition through a bounded worker pool and
// returns the first error. Workers claim partition indices in order;
// each fn writes only results for its own index, so ordering is
// preserved regardless of completion order. On the first failure the
// remaining unclaimed partitions are skipped (first-error-wins) and the
// cancel channel passed to fn closes, so siblings already parked in a
// retry backoff exit early instead of sleeping out their full
// RetryTimeout against a server that is simply down.
func (c *Client) fanOut(parts []Partition, fn func(i int, p Partition, cancel <-chan struct{}) error) error {
	n := len(parts)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return fn(0, parts[0], nil)
	}
	workers := n
	bound := c.MaxFanOut
	if bound <= 0 {
		bound = defaultMaxFanOut
	}
	if workers > bound {
		workers = bound
	}
	cancelCh := make(chan struct{})
	var (
		next     atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i, parts[i], cancelCh); err != nil {
					once.Do(func() {
						firstErr = err
						close(cancelCh)
					})
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// ---------------------------------------------------------------------------
// Typed model handles.

// Vector is a handle to a DenseVector model.
type Vector struct {
	c    *Client
	Meta ModelMeta
}

// DenseVectorSpec describes a DenseVector model to create.
type DenseVectorSpec struct {
	Name               string
	Size               int64
	ConsistentRecovery bool
	// Partitions overrides the partition count (default one per server).
	Partitions int
}

// CreateDenseVector creates a range-partitioned dense vector.
func (c *Client) CreateDenseVector(spec DenseVectorSpec) (*Vector, error) {
	meta, err := c.CreateModel(ModelMeta{
		Name: spec.Name, Kind: DenseVector, Size: spec.Size,
		ConsistentRecovery: spec.ConsistentRecovery,
		NumPartitions:      spec.Partitions,
	})
	if err != nil {
		return nil, err
	}
	return &Vector{c: c, Meta: meta}, nil
}

// Vector returns a handle to an existing DenseVector model.
func (c *Client) Vector(name string) (*Vector, error) {
	meta, err := c.GetModel(name)
	if err != nil {
		return nil, err
	}
	if meta.Kind != DenseVector {
		return nil, fmt.Errorf("ps: model %q is %v, not DenseVector", name, meta.Kind)
	}
	return &Vector{c: c, Meta: meta}, nil
}

// PullAll assembles the full vector from every partition. Full-range
// pulls have a coverage check the per-key paths do not need: a stale
// layout that predates a split still routes to live partitions (the
// narrowed source answers for its kept half without error), so the only
// tell that elements were missed is the assembled total falling short
// of the model size — which triggers a layout refresh and a re-pull.
func (v *Vector) PullAll() ([]float64, error) {
	meta := v.c.currentMeta(v.Meta.Name, v.Meta)
	for attempt := 0; ; attempt++ {
		out := make([]float64, meta.Size)
		var got atomic.Int64
		err := v.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
			var r vecPullResp
			if err := v.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "VecPull", vecPullReq{Model: meta.Name, Part: p.Index}, &r); err != nil {
				return err
			}
			got.Add(int64(len(r.Values)))
			copy(out[r.Lo:], r.Values)
			return nil
		})
		if err == nil && got.Load() == meta.Size {
			return out, nil
		}
		if err != nil && !IsRangeMovedErr(err) {
			return nil, err
		}
		if attempt >= rerouteRetries {
			if err == nil {
				err = fmt.Errorf("ps: PullAll assembled %d of %d elements under a changing layout", got.Load(), meta.Size)
			}
			return nil, err
		}
		meta = v.c.refreshMeta(meta.Name, meta)
	}
}

// vecPartFor returns a partition-lookup function over meta's partitions
// that checks the previously matched range first: pull/push index
// streams have strong partition locality (often fully sorted), which
// turns the per-index lookup into one compare instead of a scan.
func vecPartFor(meta *ModelMeta) func(idx int64) int {
	last := 0
	return func(idx int64) int {
		if p := &meta.Parts[last]; idx >= p.Lo && idx < p.Hi {
			return last
		}
		last = meta.PartitionFor(idx)
		return last
	}
}

// Pull fetches the given indices, returned in the same order. Pulls are
// idempotent, so a range-moved rejection (the layout snapshot predates
// a split) simply refreshes the layout and re-runs the whole pull.
func (v *Vector) Pull(indices []int64) ([]float64, error) {
	meta := v.c.currentMeta(v.Meta.Name, v.Meta)
	for attempt := 0; ; attempt++ {
		out, err := v.pullMeta(meta, indices)
		if err == nil || !IsRangeMovedErr(err) || attempt >= rerouteRetries {
			return out, err
		}
		meta = v.c.refreshMeta(meta.Name, meta)
	}
}

func (v *Vector) pullMeta(meta ModelMeta, indices []int64) ([]float64, error) {
	nparts := len(meta.Parts)
	byPart := make([][]int64, nparts)
	pos := make([][]int, nparts) // original positions
	est := len(indices)/nparts + 1
	partFor := vecPartFor(&meta)
	for i, idx := range indices {
		p := partFor(idx)
		if byPart[p] == nil {
			byPart[p] = make([]int64, 0, est)
			pos[p] = make([]int, 0, est)
		}
		byPart[p] = append(byPart[p], idx)
		pos[p] = append(pos[p], i)
	}
	out := make([]float64, len(indices))
	err := v.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		idxs := byPart[i]
		if len(idxs) == 0 {
			return nil
		}
		var r vecPullResp
		if err := v.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "VecPull", vecPullReq{Model: meta.Name, Part: p.Index, Indices: idxs}, &r); err != nil {
			return err
		}
		// Each partition writes disjoint slots of out, so no lock is needed.
		for j, orig := range pos[i] {
			out[orig] = r.Values[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (v *Vector) push(indices []int64, values []float64, op vecOp) error {
	return v.pushMeta(v.c.currentMeta(v.Meta.Name, v.Meta), indices, values, op, 0)
}

// pushMeta groups one push against a layout snapshot. A batch rejected
// with range-moved straddles a split the snapshot predates; the server
// validated the whole batch before applying anything, so re-grouping
// just that batch under a refreshed layout — with fresh sequences —
// cannot double-apply. Batches that landed inside still-valid ranges
// are untouched by the re-route.
func (v *Vector) pushMeta(meta ModelMeta, indices []int64, values []float64, op vecOp, depth int) error {
	nparts := len(meta.Parts)
	byPartIdx := make([][]int64, nparts)
	byPartVal := make([][]float64, nparts)
	est := len(indices)/nparts + 1
	partFor := vecPartFor(&meta)
	for i, idx := range indices {
		p := partFor(idx)
		if byPartIdx[p] == nil {
			byPartIdx[p] = make([]int64, 0, est)
			byPartVal[p] = make([]float64, 0, est)
		}
		byPartIdx[p] = append(byPartIdx[p], idx)
		byPartVal[p] = append(byPartVal[p], values[i])
	}
	return v.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		if len(byPartIdx[i]) == 0 {
			return nil
		}
		req := vecPushReq{Model: meta.Name, Part: p.Index, Indices: byPartIdx[i], Values: byPartVal[i], Op: op}
		err := v.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "VecPush", req, nil)
		if err != nil && IsRangeMovedErr(err) && depth < rerouteRetries {
			return v.pushMeta(v.c.refreshMeta(meta.Name, meta), byPartIdx[i], byPartVal[i], op, depth+1)
		}
		return err
	})
}

// PushAdd adds values at the given indices.
func (v *Vector) PushAdd(indices []int64, values []float64) error {
	return v.push(indices, values, vecAdd)
}

// PushSet overwrites values at the given indices.
func (v *Vector) PushSet(indices []int64, values []float64) error {
	return v.push(indices, values, vecSet)
}

// PushMin combines values with element-wise minimum (message combiner
// for shortest-path-style vertex programs).
func (v *Vector) PushMin(indices []int64, values []float64) error {
	return v.push(indices, values, vecMin)
}

// PushMax combines values with element-wise maximum.
func (v *Vector) PushMax(indices []int64, values []float64) error {
	return v.push(indices, values, vecMax)
}

// SetAll overwrites the whole vector.
func (v *Vector) SetAll(values []float64) error {
	if int64(len(values)) != v.Meta.Size {
		return fmt.Errorf("ps: SetAll size %d != model size %d", len(values), v.Meta.Size)
	}
	meta := v.c.currentMeta(v.Meta.Name, v.Meta)
	return v.setRange(meta, 0, meta.Size, values, 0)
}

// setRange overwrites [lo, hi) from vals (len(vals) == hi-lo) across
// the partitions of a layout snapshot. A partition that narrowed under
// the snapshot rejects its full-range set as range-moved; only that
// partition's slice is re-set under a refreshed layout (set is
// idempotent, so overlap with a concurrent re-route is harmless).
// Ranges only ever narrow — splits never merge or shift boundaries —
// so a fresh layout's partitions overlapping [lo, hi) always lie
// wholly inside it, but the indexed fallback below keeps partial
// overlap correct regardless.
func (v *Vector) setRange(meta ModelMeta, lo, hi int64, vals []float64, depth int) error {
	var parts []Partition
	for _, p := range meta.Parts {
		if p.Lo < hi && p.Hi > lo {
			parts = append(parts, p)
		}
	}
	return v.c.fanOut(parts, func(i int, p Partition, cancel <-chan struct{}) error {
		plo, phi := p.Lo, p.Hi
		if plo < lo {
			plo = lo
		}
		if phi > hi {
			phi = hi
		}
		req := vecPushReq{Model: meta.Name, Part: p.Index, Values: vals[plo-lo : phi-lo], Op: vecSet}
		if plo != p.Lo || phi != p.Hi {
			idxs := make([]int64, phi-plo)
			for j := range idxs {
				idxs[j] = plo + int64(j)
			}
			req.Indices = idxs
		}
		err := v.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "VecPush", req, nil)
		if err != nil && IsRangeMovedErr(err) && depth < rerouteRetries {
			return v.setRange(v.c.refreshMeta(meta.Name, meta), plo, phi, vals[plo-lo:phi-lo], depth+1)
		}
		return err
	})
}

// Fill sets every element to x.
func (v *Vector) Fill(x float64) error {
	vals := make([]float64, v.Meta.Size)
	for i := range vals {
		vals[i] = x
	}
	return v.SetAll(vals)
}

// Zero resets the whole vector to zero.
func (v *Vector) Zero() error { return v.Fill(0) }

// SparseVec is a handle to a SparseVector model.
type SparseVec struct {
	c    *Client
	Meta ModelMeta
}

// CreateSparseVector creates a hash-partitioned sparse vector.
func (c *Client) CreateSparseVector(name string) (*SparseVec, error) {
	return c.CreateSparseVectorWithScheme(name, SchemeHash, 0)
}

// CreateSparseVectorWithScheme creates a sparse vector with an explicit
// partitioning scheme; size bounds the key domain for SchemeRange.
func (c *Client) CreateSparseVectorWithScheme(name string, scheme Scheme, size int64) (*SparseVec, error) {
	meta, err := c.CreateModel(ModelMeta{Name: name, Kind: SparseVector, Scheme: scheme, Size: size})
	if err != nil {
		return nil, err
	}
	return &SparseVec{c: c, Meta: meta}, nil
}

func (s *SparseVec) pull(keys []int64) (map[int64]float64, error) {
	meta := s.c.currentMeta(s.Meta.Name, s.Meta)
	for attempt := 0; ; attempt++ {
		out, err := s.pullMeta(meta, keys)
		if err == nil || !IsRangeMovedErr(err) || attempt >= rerouteRetries {
			return out, err
		}
		meta = s.c.refreshMeta(meta.Name, meta)
	}
}

func (s *SparseVec) pullMeta(meta ModelMeta, keys []int64) (map[int64]float64, error) {
	byPart := make([][]int64, len(meta.Parts))
	if keys != nil {
		for _, k := range keys {
			p := meta.PartitionFor(k)
			byPart[p] = append(byPart[p], k)
		}
	}
	out := make(map[int64]float64)
	var mu sync.Mutex
	err := s.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		req := mapPullReq{Model: meta.Name, Part: p.Index}
		if keys != nil {
			req.Keys = byPart[i]
			if len(req.Keys) == 0 {
				return nil
			}
		}
		var r mapPullResp
		if err := s.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "MapPull", req, &r); err != nil {
			return err
		}
		mu.Lock()
		for k, v := range r.M {
			out[k] = v
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Pull fetches the given keys; absent keys are omitted from the result.
func (s *SparseVec) Pull(keys []int64) (map[int64]float64, error) { return s.pull(keys) }

// PullAll fetches the entire sparse vector.
func (s *SparseVec) PullAll() (map[int64]float64, error) { return s.pull(nil) }

func (s *SparseVec) push(m map[int64]float64, set bool) error {
	return s.pushMeta(s.c.currentMeta(s.Meta.Name, s.Meta), m, set, 0)
}

func (s *SparseVec) pushMeta(meta ModelMeta, m map[int64]float64, set bool, depth int) error {
	byPart := make([]map[int64]float64, len(meta.Parts))
	for k, v := range m {
		p := meta.PartitionFor(k)
		if byPart[p] == nil {
			byPart[p] = make(map[int64]float64)
		}
		byPart[p][k] = v
	}
	return s.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		if len(byPart[i]) == 0 {
			return nil
		}
		req := mapPushReq{Model: meta.Name, Part: p.Index, M: byPart[i], Set: set}
		err := s.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "MapPush", req, nil)
		if err != nil && IsRangeMovedErr(err) && depth < rerouteRetries {
			// Nothing applied (the engine validates the whole batch before
			// the first write), so re-grouping this batch under a fresh
			// layout with fresh sequences cannot double-apply.
			return s.pushMeta(s.c.refreshMeta(meta.Name, meta), byPart[i], set, depth+1)
		}
		return err
	})
}

// PushAdd adds the entries of m into the model.
func (s *SparseVec) PushAdd(m map[int64]float64) error { return s.push(m, false) }

// PushSet overwrites the entries of m in the model.
func (s *SparseVec) PushSet(m map[int64]float64) error { return s.push(m, true) }

// Emb is a handle to an Embedding or ColumnEmbedding model.
type Emb struct {
	c    *Client
	Meta ModelMeta
}

// EmbeddingSpec describes an embedding model to create.
type EmbeddingSpec struct {
	Name string
	Dim  int
	// ByColumn selects ColumnEmbedding layout (LINE-style partial dot
	// products) instead of hash-by-vertex.
	ByColumn  bool
	InitScale float64
	Opt       Optimizer
	// Partitions overrides the partition count (default one per server).
	Partitions int
}

// CreateEmbedding creates an embedding model.
func (c *Client) CreateEmbedding(spec EmbeddingSpec) (*Emb, error) {
	kind := Embedding
	if spec.ByColumn {
		kind = ColumnEmbedding
	}
	meta, err := c.CreateModel(ModelMeta{
		Name: spec.Name, Kind: kind, Dim: spec.Dim,
		InitScale: spec.InitScale, Opt: spec.Opt,
		NumPartitions: spec.Partitions,
	})
	if err != nil {
		return nil, err
	}
	return &Emb{c: c, Meta: meta}, nil
}

// Embedding returns a handle to an existing Embedding or ColumnEmbedding
// model.
func (c *Client) Embedding(name string) (*Emb, error) {
	meta, err := c.GetModel(name)
	if err != nil {
		return nil, err
	}
	if meta.Kind != Embedding && meta.Kind != ColumnEmbedding {
		return nil, fmt.Errorf("ps: model %q is %v, not an embedding", name, meta.Kind)
	}
	return &Emb{c: c, Meta: meta}, nil
}

// Pull fetches full vectors for the given ids. For ColumnEmbedding models
// the per-partition column slices are reassembled.
func (e *Emb) Pull(ids []int64) (map[int64][]float64, error) {
	meta := e.c.currentMeta(e.Meta.Name, e.Meta)
	for attempt := 0; ; attempt++ {
		out, err := e.pullMeta(meta, ids)
		if err == nil || !IsRangeMovedErr(err) || attempt >= rerouteRetries {
			return out, err
		}
		meta = e.c.refreshMeta(meta.Name, meta)
	}
}

func (e *Emb) pullMeta(meta ModelMeta, ids []int64) (map[int64][]float64, error) {
	out := make(map[int64][]float64, len(ids))
	if meta.Kind == ColumnEmbedding {
		// Every partition answers every id with its column slice; each
		// writes its own columns of the shared block, so no lock.
		dim := meta.Dim
		block := make([]float64, len(ids)*dim)
		err := e.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
			var r embPullResp
			if err := e.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "EmbPull", embPullReq{Model: meta.Name, Part: p.Index, IDs: ids}, &r); err != nil {
				return err
			}
			w := p.Col1 - p.Col0
			if err := checkEmbBlock(meta.Name, p.Index, r.Vals, len(ids), w); err != nil {
				return err
			}
			for k := range ids {
				copy(block[k*dim+p.Col0:k*dim+p.Col1], r.Vals[k*w:(k+1)*w])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for k, id := range ids {
			out[id] = block[k*dim : (k+1)*dim : (k+1)*dim]
		}
		return out, nil
	}
	byPart := make([][]int64, len(meta.Parts))
	for _, id := range ids {
		pi := meta.PartitionFor(id)
		byPart[pi] = append(byPart[pi], id)
	}
	blocks := make([][]float64, len(meta.Parts))
	err := e.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		if len(byPart[i]) == 0 {
			return nil
		}
		var r embPullResp
		if err := e.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "EmbPull", embPullReq{Model: meta.Name, Part: p.Index, IDs: byPart[i]}, &r); err != nil {
			return err
		}
		if err := checkEmbBlock(meta.Name, p.Index, r.Vals, len(byPart[i]), meta.Dim); err != nil {
			return err
		}
		blocks[i] = r.Vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	w := meta.Dim
	for i, pids := range byPart {
		vals := blocks[i]
		for k, id := range pids {
			// Cap-limited, so appending to one row cannot overwrite the next.
			out[id] = vals[k*w : (k+1)*w : (k+1)*w]
		}
	}
	return out, nil
}

// checkEmbBlock rejects an EmbPull block that does not hold exactly n
// rows of width w, so a short or mismatched reply errors instead of
// panicking on the slicing that follows.
func checkEmbBlock(model string, part int, vals []float64, n, w int) error {
	if len(vals) != n*w {
		return fmt.Errorf("ps: EmbPull %s partition %d returned %d values, want %d ids × width %d", model, part, len(vals), n, w)
	}
	return nil
}

func (e *Emb) push(vecs map[int64][]float64, grad, set bool) error {
	return e.pushMeta(e.c.currentMeta(e.Meta.Name, e.Meta), vecs, grad, set, 0)
}

func (e *Emb) pushMeta(meta ModelMeta, vecs map[int64][]float64, grad, set bool, depth int) error {
	if meta.Kind == ColumnEmbedding {
		// Column partitions are structural (every row spans all of them)
		// and never split or re-range, so no range-moved handling here.
		return e.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
			slice := make(map[int64][]float64, len(vecs))
			for id, v := range vecs {
				slice[id] = v[p.Col0:p.Col1]
			}
			req := embPushReq{Model: meta.Name, Part: p.Index, Vecs: slice, Grad: grad, Set: set}
			return e.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "EmbPush", req, nil)
		})
	}
	byPart := make([]map[int64][]float64, len(meta.Parts))
	for id, v := range vecs {
		pi := meta.PartitionFor(id)
		if byPart[pi] == nil {
			byPart[pi] = make(map[int64][]float64)
		}
		byPart[pi][id] = v
	}
	return e.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		if len(byPart[i]) == 0 {
			return nil
		}
		req := embPushReq{Model: meta.Name, Part: p.Index, Vecs: byPart[i], Grad: grad, Set: set}
		err := e.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "EmbPush", req, nil)
		if err != nil && IsRangeMovedErr(err) && depth < rerouteRetries {
			return e.pushMeta(e.c.refreshMeta(meta.Name, meta), byPart[i], grad, set, depth+1)
		}
		return err
	})
}

// PushAdd adds the vectors into the stored rows.
func (e *Emb) PushAdd(vecs map[int64][]float64) error { return e.push(vecs, false, false) }

// PushSet overwrites the stored rows.
func (e *Emb) PushSet(vecs map[int64][]float64) error { return e.push(vecs, false, true) }

// PushGrad applies the model's server-side optimizer to the pushed
// gradients.
func (e *Emb) PushGrad(grads map[int64][]float64) error { return e.push(grads, true, false) }

// Nbr is a handle to a Neighbor (adjacency) model.
type Nbr struct {
	c    *Client
	Meta ModelMeta
}

// CreateNeighbor creates a hash-partitioned neighbor-table model.
func (c *Client) CreateNeighbor(name string) (*Nbr, error) {
	return c.CreateNeighborWithScheme(name, SchemeHash, 0)
}

// CreateNeighborWithScheme creates a neighbor-table model with an
// explicit partitioning scheme; size bounds the key domain for
// SchemeRange.
func (c *Client) CreateNeighborWithScheme(name string, scheme Scheme, size int64) (*Nbr, error) {
	meta, err := c.CreateModel(ModelMeta{Name: name, Kind: Neighbor, Scheme: scheme, Size: size})
	if err != nil {
		return nil, err
	}
	return &Nbr{c: c, Meta: meta}, nil
}

// Neighbor returns a handle to an existing Neighbor model.
func (c *Client) Neighbor(name string) (*Nbr, error) {
	meta, err := c.GetModel(name)
	if err != nil {
		return nil, err
	}
	if meta.Kind != Neighbor {
		return nil, fmt.Errorf("ps: model %q is %v, not Neighbor", name, meta.Kind)
	}
	return &Nbr{c: c, Meta: meta}, nil
}

// Push appends neighbor lists (concatenating with any existing entries,
// so different executors can push disjoint chunks of the same vertex).
func (n *Nbr) Push(tables map[int64][]int64) error {
	return n.pushMeta(n.c.currentMeta(n.Meta.Name, n.Meta), tables, 0)
}

func (n *Nbr) pushMeta(meta ModelMeta, tables map[int64][]int64, depth int) error {
	byPart := make([]map[int64][]int64, len(meta.Parts))
	for id, ns := range tables {
		pi := meta.PartitionFor(id)
		if byPart[pi] == nil {
			byPart[pi] = make(map[int64][]int64)
		}
		byPart[pi][id] = ns
	}
	return n.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		if len(byPart[i]) == 0 {
			return nil
		}
		req := nbrPushReq{Model: meta.Name, Part: p.Index, Tables: byPart[i]}
		err := n.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "NbrPush", req, nil)
		if err != nil && IsRangeMovedErr(err) && depth < rerouteRetries {
			// Appends are not idempotent, but nothing was appended: the
			// engine rejects the whole batch before touching any list.
			return n.pushMeta(n.c.refreshMeta(meta.Name, meta), byPart[i], depth+1)
		}
		return err
	})
}

// Pull fetches neighbor tables for the given ids. Ids that have no
// table are omitted; an id whose table is present but empty maps to an
// empty slice.
func (n *Nbr) Pull(ids []int64) (map[int64][]int64, error) {
	meta := n.c.currentMeta(n.Meta.Name, n.Meta)
	for attempt := 0; ; attempt++ {
		out, err := n.pullMeta(meta, ids)
		if err == nil || !IsRangeMovedErr(err) || attempt >= rerouteRetries {
			return out, err
		}
		meta = n.c.refreshMeta(meta.Name, meta)
	}
}

func (n *Nbr) pullMeta(meta ModelMeta, ids []int64) (map[int64][]int64, error) {
	byPart := make([][]int64, len(meta.Parts))
	for _, id := range ids {
		pi := meta.PartitionFor(id)
		byPart[pi] = append(byPart[pi], id)
	}
	resps := make([]nbrPullResp, len(meta.Parts))
	err := n.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		if len(byPart[i]) == 0 {
			return nil
		}
		return n.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "NbrPull", nbrPullReq{Model: meta.Name, Part: p.Index, IDs: byPart[i]}, &resps[i])
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int64][]int64, len(ids))
	for i, pids := range byPart {
		if err := splitNbrBlock(out, pids, resps[i]); err != nil {
			return nil, fmt.Errorf("ps: NbrPull %s partition %d: %w", meta.Name, meta.Parts[i].Index, err)
		}
	}
	return out, nil
}

// splitNbrBlock hands out the tables of a positional NbrPull block as
// cap-limited subslices of r.Nbrs, keyed by the ids the block answers.
// Lens must match ids one to one and account for Nbrs exactly.
func splitNbrBlock(out map[int64][]int64, ids []int64, r nbrPullResp) error {
	if len(r.Lens) != len(ids) {
		return fmt.Errorf("%d table lengths for %d ids", len(r.Lens), len(ids))
	}
	off := int64(0)
	for k, id := range ids {
		l := r.Lens[k]
		if l == -1 {
			continue
		}
		if l < 0 || l > int64(len(r.Nbrs))-off {
			return fmt.Errorf("table length %d of id %d overruns %d neighbors at offset %d", l, id, len(r.Nbrs), off)
		}
		out[id] = r.Nbrs[off : off+l : off+l]
		off += l
	}
	if off != int64(len(r.Nbrs)) {
		return fmt.Errorf("%d trailing neighbors", int64(len(r.Nbrs))-off)
	}
	return nil
}

// Mat is a handle to a DenseMatrix model (e.g. GNN layer weights).
type Mat struct {
	c    *Client
	Meta ModelMeta
}

// MatrixSpec describes a dense matrix model to create.
type MatrixSpec struct {
	Name string
	Rows int64
	Cols int
	Opt  Optimizer
}

// CreateMatrix creates a column-partitioned dense matrix.
func (c *Client) CreateMatrix(spec MatrixSpec) (*Mat, error) {
	meta, err := c.CreateModel(ModelMeta{
		Name: spec.Name, Kind: DenseMatrix, Size: spec.Rows, Dim: spec.Cols, Opt: spec.Opt,
	})
	if err != nil {
		return nil, err
	}
	return &Mat{c: c, Meta: meta}, nil
}

// Matrix returns a handle to an existing DenseMatrix model.
func (c *Client) Matrix(name string) (*Mat, error) {
	meta, err := c.GetModel(name)
	if err != nil {
		return nil, err
	}
	if meta.Kind != DenseMatrix {
		return nil, fmt.Errorf("ps: model %q is %v, not DenseMatrix", name, meta.Kind)
	}
	return &Mat{c: c, Meta: meta}, nil
}

// PullAll assembles the full rows×cols matrix (row-major).
func (m *Mat) PullAll() ([]float64, error) {
	meta := m.c.currentMeta(m.Meta.Name, m.Meta)
	rows := int(meta.Size)
	cols := meta.Dim
	out := make([]float64, rows*cols)
	err := m.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		var r matPullResp
		if err := m.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "MatPull", matPullReq{Model: meta.Name, Part: p.Index}, &r); err != nil {
			return err
		}
		w := r.Col1 - r.Col0
		for row := 0; row < rows; row++ {
			copy(out[row*cols+r.Col0:row*cols+r.Col1], r.Data[row*w:(row+1)*w])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (m *Mat) push(data []float64, grad, set bool) error {
	meta := m.c.currentMeta(m.Meta.Name, m.Meta)
	rows := int(meta.Size)
	cols := meta.Dim
	if len(data) != rows*cols {
		return fmt.Errorf("ps: matrix push size %d != %dx%d", len(data), rows, cols)
	}
	return m.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		w := p.Col1 - p.Col0
		slice := make([]float64, rows*w)
		for row := 0; row < rows; row++ {
			copy(slice[row*w:(row+1)*w], data[row*cols+p.Col0:row*cols+p.Col1])
		}
		req := matPushReq{Model: meta.Name, Part: p.Index, Data: slice, Grad: grad, Set: set}
		return m.c.partInvoke(cancel, meta.Name, p.Index, p.Server, "MatPush", req, nil)
	})
}

// PushSet overwrites the matrix (driver pushing the initial model).
func (m *Mat) PushSet(data []float64) error { return m.push(data, false, true) }

// PushAdd adds into the matrix.
func (m *Mat) PushAdd(data []float64) error { return m.push(data, false, false) }

// PushGrad applies the server-side optimizer to a full-matrix gradient.
func (m *Mat) PushGrad(grad []float64) error { return m.push(grad, true, false) }

// CallFunc invokes a registered psFunc on every partition of model,
// passing argFor(partition) as the argument, and returns the raw
// per-partition outputs ordered by partition index.
func (c *Client) CallFunc(model, fn string, argFor func(p Partition) []byte) ([][]byte, error) {
	meta, err := c.GetModel(model)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(meta.Parts))
	err = c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		req := funcReq{Model: model, Part: p.Index, Name: fn, Arg: argFor(p)}
		var r funcResp
		if err := c.partInvoke(cancel, model, p.Index, p.Server, "Func", req, &r); err != nil {
			return err
		}
		out[i] = r.Out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
