package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"psgraph/internal/rpc"
)

// Span kinds. A call span is timed where Transport.Call is entered, so it
// is what the caller observes; a handler span is timed around the
// server-side Handler, so it covers decode, engine/optimizer work and
// encode but no transport.
const (
	kindCall    = "call"
	kindHandler = "handler"
	kindJob     = "job"
)

// originAgent tags calls made by the executors' PS agent. Calls with an
// empty origin were made by the master or by cluster plumbing; servers'
// own outbound calls carry the server address.
const originAgent = "agent"

// Span is one traced RPC boundary crossing.
type Span struct {
	Kind   string `json:"kind"`
	Origin string `json:"origin,omitempty"`
	Method string `json:"method"`
	Addr   string `json:"addr"`
	// Start and End are nanoseconds since the benchmark process started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	Req   int   `json:"req_bytes"`
	Resp  int   `json:"resp_bytes"`
	Err   bool  `json:"err,omitempty"`
	// Job is the id of the job span the RPC ran under.
	Job int64 `json:"job"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer is an rpc.Transport decorator. It times every Call and wraps
// every Handler given to Register, so client-observed call time and
// server handler time are recorded separately. It records only while a
// job span is open (StartJob .. EndJob) and keeps spans in memory.
//
// It cannot decorate TCP: rpc.CanListen and rpc.Listen switch on the
// concrete transport type, so a cluster built on a Tracer over TCP would
// fall back to symbolic addresses. It is therefore used only over InProc.
type Tracer struct {
	inner    rpc.Transport
	job      atomic.Int64 // open job span id; 0 when closed
	jobStart int64

	mu    sync.Mutex
	spans []Span
}

// epoch is the common time origin of every span in the process, and
// jobIDs numbers job spans across rounds.
var (
	epoch  = time.Now()
	jobIDs atomic.Int64
)

func now() int64 { return int64(time.Since(epoch)) }

// NewTracer decorates inner.
func NewTracer(inner rpc.Transport) *Tracer { return &Tracer{inner: inner} }

// StartJob opens a job span; RPCs that begin while it is open are
// recorded with its id as their parent.
func (t *Tracer) StartJob() {
	t.jobStart = now()
	t.job.Store(jobIDs.Add(1))
}

// EndJob closes the open job span and records it under name.
func (t *Tracer) EndJob(name string) {
	id := t.job.Swap(0)
	t.record(Span{Kind: kindJob, Method: name, Start: t.jobStart, End: now(), Job: id})
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Register implements rpc.Transport, wrapping h in a handler timer.
func (t *Tracer) Register(addr string, h rpc.Handler) error {
	return t.inner.Register(addr, func(method string, body []byte) ([]byte, error) {
		job := t.job.Load()
		if job == 0 {
			return h(method, body)
		}
		start := now()
		resp, err := h(method, body)
		t.record(Span{Kind: kindHandler, Method: method, Addr: addr, Start: start, End: now(),
			Req: len(body), Resp: len(resp), Err: err != nil, Job: job})
		return resp, err
	})
}

// Deregister implements rpc.Transport.
func (t *Tracer) Deregister(addr string) { t.inner.Deregister(addr) }

// Close implements rpc.Transport.
func (t *Tracer) Close() error { return t.inner.Close() }

// Call implements rpc.Transport for callers without an origin view.
func (t *Tracer) Call(addr, method string, body []byte) ([]byte, error) {
	return t.call("", addr, method, body)
}

func (t *Tracer) call(origin, addr, method string, body []byte) ([]byte, error) {
	job := t.job.Load()
	if job == 0 {
		return t.inner.Call(addr, method, body)
	}
	start := now()
	resp, err := t.inner.Call(addr, method, body)
	s := Span{Kind: kindCall, Origin: origin, Method: method, Addr: addr, Start: start, End: now(),
		Req: len(body), Err: err != nil, Job: job}
	if err == nil {
		s.Resp = len(resp)
	}
	t.record(s)
	return resp, err
}

// Caller returns a view of the tracer whose calls are tagged with origin.
// ps.Cluster gives each server such a view for its outbound calls; the
// benchmark builds the executors' agent on Caller(originAgent).
func (t *Tracer) Caller(origin string) rpc.Transport { return callerView{t, origin} }

type callerView struct {
	*Tracer
	origin string
}

func (v callerView) Call(addr, method string, body []byte) ([]byte, error) {
	return v.call(v.origin, addr, method, body)
}

// family groups RPC methods into the layers the per-layer metrics report.
func family(method string) string {
	switch method {
	case "VecPull", "MapPull", "EmbPull", "NbrPull", "MatPull":
		return "pull"
	case "VecPush", "MapPush", "EmbPush", "NbrPush", "MatPush":
		return "push"
	case "Func":
		return "func"
	case "Barrier", "ClockAdvance", "ClockWait", "ClockRetire":
		return "sync"
	case "Checkpoint", "CkptPrepare", "CheckpointModels":
		return "ckpt"
	case "ServePull", "ServeHotPull":
		return "serve"
	}
	return "meta"
}

var families = []string{"pull", "push", "func", "sync", "ckpt", "serve", "meta"}

// serverFamilies are the families whose handler time the per-layer
// metrics report as ps.server.<family>.busy_s.
var serverFamilies = []string{"pull", "push", "func", "ckpt", "serve"}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
