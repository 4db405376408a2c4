package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Each one brackets a public call into salsa or
// internal/salsad, made by the benchmark: on the live path (the load loop's
// ingest, push and query calls, and the HTTP handlers as the servers see
// them) or as a probe on the current state (the traced run's probes).
const (
	spanIngest         = "salsa.ingest"                // Agent.Ingest over one frame's items
	spanMarshal        = "salsa.marshal"               // probe: Marshal of the agent's acknowledged state
	spanUnmarshal      = "salsa.unmarshal"             // probe: Unmarshal of a pushed envelope
	spanSubtract       = "salsa.subtract"              // probe: SubtractInto(state, delta)
	spanMerge          = "salsa.merge"                 // probe: MergeInto(state, delta)
	spanAgentPush      = "salsad.agent.push"           // Agent.PushOnce
	spanEncode         = "salsad.wire.encode"          // probe: Push.Encode
	spanDecode         = "salsad.wire.decode"          // probe: DecodePush
	spanPushRTT        = "salsad.http.push_rtt"        // HTTPTransport.Push, first tier
	spanPushServer     = "salsad.http.push_server"     // POST /v1/push as the first tier handles it
	spanUpstreamServer = "salsad.http.upstream_server" // POST /v1/push as the root under a relay handles it
	spanQueryRTT       = "salsad.http.query_rtt"       // GET /v1/query at the root
	spanQueryServer    = "salsad.http.query_server"    // GET /v1/query as the root handles it
	spanTopRTT         = "salsad.http.top_rtt"         // GET /v1/top at the root
	spanTopServer      = "salsad.http.top_server"      // GET /v1/top as the root handles it
	spanApply          = "salsad.aggregator.apply"     // ApplyPush on a tee'd shadow aggregator
	spanAggQuery       = "salsad.aggregator.query"     // probe: Aggregator.Query on the root
	spanAggTop         = "salsad.aggregator.top"       // probe: Aggregator.Top on the root
	spanRelayPush      = "salsad.relay.push"           // Relay.PushOnce
	spanUpstreamRTT    = "salsad.relay.upstream_rtt"
	spanMarshalState   = "salsad.persist.marshal_state" // probe: Aggregator.MarshalState
	spanSave           = "salsad.persist.save"          // probe: Store.Save
	spanLoad           = "salsad.persist.load"          // probe: Store.LoadLatest
	spanRestore        = "salsad.restart.restore"       // NewAggregator/NewRelay on a data dir
)

// spanHeader carries the client-side span id to the server, so the
// handler's span records its parent.
const spanHeader = "X-Perfbench-Span"

// span is one recorded interval. Start and End are nanoseconds since the
// tracer was made; Req ties the spans of one request together (agent id
// and sequence number for frames, an index for queries).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call it. begin/end nest on the
// load loop's stack; server handlers record whole spans from
// their own goroutines.
type tracer struct {
	t0     time.Time
	active atomic.Bool

	mu    sync.Mutex
	spans []span

	stack []int // indices into spans; load loop goroutine only
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setActive turns recording on or off; spans are kept only for the
// timed phase and the restore cycles.
func (t *tracer) setActive(on bool) {
	if t != nil {
		t.active.Store(on)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span as a child of the innermost open load-loop span and
// returns a handle for end; -1 when nothing is recorded.
func (t *tracer) begin(name, req string) int {
	if t == nil || !t.active.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: int64(i + 1), Parent: parent, Name: name, Req: req, Start: t.now()})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(h int) {
	if h < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[h].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// current returns the id of the innermost open load-loop span (0: none).
func (t *tracer) current() int64 {
	if t == nil || !t.active.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.spans[t.stack[n-1]].ID
	}
	return 0
}

// record adds a finished span from any goroutine.
func (t *tracer) record(name, req string, parent, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Req: req, Start: start, End: end})
}

// finish computes every span's self time: its duration minus the union
// of the intervals its children cover within it.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return t.spans
}

// medians returns, per span name, the median duration and self time in
// milliseconds.
func medians(spans []span) (dur, self map[string]float64) {
	d, s := map[string][]float64{}, map[string][]float64{}
	for _, sp := range spans {
		d[sp.Name] = append(d[sp.Name], float64(sp.End-sp.Start)/1e6)
		s[sp.Name] = append(s[sp.Name], float64(sp.Self)/1e6)
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for name := range d {
		dur[name] = quantile(d[name], 0.5)
		self[name] = quantile(s[name], 0.5)
	}
	return dur, self
}

// writeSpans writes the spans as JSON lines and returns the file path.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanRoundTripper tags each outgoing request with the client-side span
// that issued it. The http.Client calls it on the load loop's goroutine.
type spanRoundTripper struct {
	base http.RoundTripper
	tr   *tracer
}

func (rt *spanRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if id := rt.tr.current(); id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return rt.base.RoundTrip(req)
}

// serverSpans wraps a node's handler: it counts non-2xx responses on
// every run and, when tracing, records a span per handled request named
// by the route.
type serverSpans struct {
	next   http.Handler
	tr     *tracer
	push   string // span name for POST /v1/push on this node
	non2xx *atomic.Uint64
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *serverSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	var start int64
	tracing := h.tr != nil && h.tr.active.Load()
	if tracing {
		start = h.tr.now()
	}
	h.next.ServeHTTP(sw, r)
	if sw.status < 200 || sw.status > 299 {
		h.non2xx.Add(1)
	}
	if !tracing {
		return
	}
	name := ""
	switch r.URL.Path {
	case "/v1/push":
		name = h.push
	case "/v1/query":
		name = spanQueryServer
	case "/v1/top":
		name = spanTopServer
	default:
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	h.tr.record(name, r.URL.Path, parent, start, h.tr.now())
}

// reqID names the request a frame span belongs to: agent id and
// sequence number.
func reqID(agent string, seq uint64) string { return fmt.Sprintf("%s#%d", agent, seq) }
