// Package obs is dvrd's cross-process span layer: W3C-traceparent-style
// context propagation over the X-Trace-Ctx header, a bounded lock-cheap
// per-process span collector, and a flight recorder that seals the last N
// spans plus error events next to the forensics dumps when a process
// trips its watchdog, recovers a panic, or receives SIGTERM.
//
// The package follows the same contract as internal/trace: observation
// only. A nil *Tracer is the disabled state — every method on a nil
// Tracer or nil Span is a no-op that allocates nothing, so the hot path
// costs a predictable-branch nil check when tracing is off, and traced
// runs stay bit-identical to untraced ones (spans never feed back into
// simulation).
//
// obs sits below both internal/service and internal/service/client in
// the import graph (service imports client), so the context plumbing the
// two sides share — the active span and the propagated request id — lives
// here rather than in either of them.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Header carries the trace context across process hops. The value is
// W3C-traceparent shaped — "00-<32 hex trace id>-<16 hex span id>" — so
// the wire format stays recognisable to anyone who has read the
// traceparent spec, without claiming full conformance (no flags byte).
const Header = "X-Trace-Ctx"

// headerVersion is the leading field of every X-Trace-Ctx value.
const headerVersion = "00"

// SpanContext names a position in a trace: which tree, which node.
type SpanContext struct {
	TraceID string // 32 lowercase hex chars
	SpanID  string // 16 lowercase hex chars
}

// Valid reports whether both ids are present and well-formed.
func (c SpanContext) Valid() bool {
	return isHex(c.TraceID, 32) && isHex(c.SpanID, 16)
}

// String renders the context in X-Trace-Ctx wire form.
func (c SpanContext) String() string {
	return headerVersion + "-" + c.TraceID + "-" + c.SpanID
}

// Parse decodes an X-Trace-Ctx header value. Unknown versions and
// malformed ids are rejected (ok=false) rather than propagated, so a
// garbled header degrades to a fresh root trace instead of corrupt ids.
func Parse(v string) (SpanContext, bool) {
	parts := strings.Split(v, "-")
	if len(parts) != 3 || parts[0] != headerVersion {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	allZero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if c != '0' {
			allZero = false
		}
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return !allZero
}

// Extract reads the propagated context out of inbound request headers.
func Extract(h http.Header) SpanContext {
	sc, _ := Parse(h.Get(Header))
	return sc
}

// Inject stamps sp's context onto outbound request headers. Nil-safe:
// with tracing disabled the headers are left untouched.
func Inject(sp *Span, h http.Header) {
	if sp == nil {
		return
	}
	h.Set(Header, sp.Context().String())
}

// Attr is one span annotation. Attrs marshal as a JSON object with
// sorted keys, so exports are deterministic for a given span set.
type Attr struct {
	K, V string
}

// Attrs is the annotation list of a span, in insertion order in memory
// and sorted-key object form on the wire.
type Attrs []Attr

// MarshalJSON renders the attrs as a plain JSON object. encoding/json
// sorts map keys, which is exactly the determinism the exports promise.
func (a Attrs) MarshalJSON() ([]byte, error) {
	m := make(map[string]string, len(a))
	for _, kv := range a {
		m[kv.K] = kv.V
	}
	return json.Marshal(m)
}

// UnmarshalJSON accepts the object form back (key order is not
// significant; the decoded list is key-sorted).
func (a *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	*a = (*a)[:0]
	for _, k := range keys {
		*a = append(*a, Attr{K: k, V: m[k]})
	}
	return nil
}

// Get returns the value of the named attr ("" if absent).
func (a Attrs) Get(k string) string {
	for _, kv := range a {
		if kv.K == k {
			return kv.V
		}
	}
	return ""
}

// SpanRecord is one finished span as it lands in the collector ring and
// on the wire. Times are wall-clock microseconds since the Unix epoch;
// durations are microseconds.
type SpanRecord struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	Proc     string `json:"proc,omitempty"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
	Attrs    Attrs  `json:"attrs,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Tracer is the per-process span collector: a mutex-guarded bounded ring
// of finished spans. When the ring wraps the oldest span is evicted and
// counted as dropped — recording never blocks on capacity and never does
// I/O, so publishing can't stall the simulation it observes.
//
// The zero value of *Tracer (nil) is the disabled tracer.
type Tracer struct {
	proc string

	mu      sync.Mutex
	ring    []SpanRecord // capacity-bounded; [head, head+count) mod cap are live
	head    int
	count   int
	dropped atomic.Uint64
}

// New builds a collector for proc bounding the ring to capacity spans.
// capacity <= 0 returns nil — the disabled tracer.
func New(proc string, capacity int) *Tracer {
	if capacity <= 0 {
		return nil
	}
	return &Tracer{proc: proc, ring: make([]SpanRecord, 0, capacity)}
}

// Enabled reports whether spans are being collected.
func (t *Tracer) Enabled() bool { return t != nil }

// Proc returns the collector's process name ("" when disabled).
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// Dropped returns how many finished spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Len returns the number of spans currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// record appends one finished span, evicting the oldest on wrap.
func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	if t.count < cap(t.ring) {
		if len(t.ring) < cap(t.ring) {
			t.ring = append(t.ring, rec)
		} else {
			t.ring[(t.head+t.count)%cap(t.ring)] = rec
		}
		t.count++
	} else {
		t.ring[t.head] = rec
		t.head = (t.head + 1) % cap(t.ring)
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// snapshot copies the live ring oldest-first.
func (t *Tracer) snapshot() []SpanRecord {
	t.mu.Lock()
	out := make([]SpanRecord, 0, t.count)
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(t.head+i)%cap(t.ring)])
	}
	t.mu.Unlock()
	return out
}

// Slice returns every collected span of one trace, ordered
// deterministically (start time, then name, then span id) so repeated
// exports of the same spans render identical bytes.
func (t *Tracer) Slice(traceID string) []SpanRecord {
	if t == nil || traceID == "" {
		return nil
	}
	all := t.snapshot()
	out := all[:0]
	for _, r := range all {
		if r.TraceID == traceID {
			out = append(out, r)
		}
	}
	SortSpans(out)
	return out
}

// SortSpans orders spans by (start, name, span id): the canonical export
// order every view of a slice uses.
func SortSpans(s []SpanRecord) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].StartUS != s[j].StartUS {
			return s[i].StartUS < s[j].StartUS
		}
		if s[i].Name != s[j].Name {
			return s[i].Name < s[j].Name
		}
		return s[i].SpanID < s[j].SpanID
	})
}

// Event records a zero-duration error event into the ring — the flight
// recorder's breadcrumbs for faults that have no surrounding span (panic
// recovery, watchdog trips, torn shutdowns).
func (t *Tracer) Event(traceID, name, msg string) {
	if t == nil {
		return
	}
	rec := SpanRecord{
		TraceID: traceID,
		SpanID:  newSpanID(),
		Name:    name,
		Proc:    t.proc,
		StartUS: time.Now().UnixMicro(),
		Error:   msg,
	}
	if rec.TraceID == "" {
		rec.TraceID = newTraceID()
	}
	t.record(rec)
}

// StartRoot opens a span at the root of a fresh trace.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(newTraceID(), "", name, time.Now())
}

// StartRemote opens a server-side span continuing a propagated context:
// the new span is a child of the remote parent. An invalid (absent,
// garbled) context starts a fresh root instead.
func (t *Tracer) StartRemote(sc SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		return t.StartRoot(name)
	}
	return t.start(sc.TraceID, sc.SpanID, name, time.Now())
}

// StartLinked opens a root-level span inside an existing trace — the
// ledger-recovery case, where a re-dispatch after a crash must join the
// original job's trace (recorded in the journal) without having a live
// parent span to hang from. An empty trace id degrades to a fresh root.
func (t *Tracer) StartLinked(traceID, name string) *Span {
	if t == nil {
		return nil
	}
	if !isHex(traceID, 32) {
		return t.StartRoot(name)
	}
	return t.start(traceID, "", name, time.Now())
}

func (t *Tracer) start(traceID, parentID, name string, at time.Time) *Span {
	return &Span{
		tr:    t,
		start: at,
		rec: SpanRecord{
			TraceID:  traceID,
			SpanID:   newSpanID(),
			ParentID: parentID,
			Name:     name,
			Proc:     t.proc,
			StartUS:  at.UnixMicro(),
		},
	}
}

// Span is one in-flight span. All methods are nil-safe; a nil Span is
// what every Start* returns when tracing is disabled.
type Span struct {
	tr    *Tracer
	start time.Time
	mu    sync.Mutex
	rec   SpanRecord
	ended bool
}

// Context returns the span's position for propagation (zero when nil).
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.rec.TraceID, SpanID: sp.rec.SpanID}
}

// TraceID returns the span's trace id ("" when nil).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.rec.TraceID
}

// SpanID returns the span's id ("" when nil).
func (sp *Span) SpanID() string {
	if sp == nil {
		return ""
	}
	return sp.rec.SpanID
}

// Attr annotates the span. Returns sp for chaining.
func (sp *Span) Attr(k, v string) *Span {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	sp.rec.Attrs = append(sp.rec.Attrs, Attr{K: k, V: v})
	sp.mu.Unlock()
	return sp
}

// Fail marks the span failed with err's message (no-op on nil error).
func (sp *Span) Fail(err error) *Span {
	if sp == nil || err == nil {
		return sp
	}
	sp.mu.Lock()
	sp.rec.Error = err.Error()
	sp.mu.Unlock()
	return sp
}

// StartChild opens a child span under sp.
func (sp *Span) StartChild(name string) *Span {
	return sp.StartChildAt(name, time.Now())
}

// StartChildAt opens a child span whose start is backdated to at — for
// intervals measured before the span system gets involved, like queue
// wait (the enqueue instant is recorded by the pool, the span is created
// when the worker picks the task up).
func (sp *Span) StartChildAt(name string, at time.Time) *Span {
	if sp == nil {
		return nil
	}
	return sp.tr.start(sp.rec.TraceID, sp.rec.SpanID, name, at)
}

// End finishes the span and commits it to the collector ring. Ending
// twice records once.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	sp.rec.DurUS = int64(time.Since(sp.start) / time.Microsecond)
	rec := sp.rec
	sp.mu.Unlock()
	sp.tr.record(rec)
}

// id generation: math/rand/v2's global generator is seeded per process
// and lock-cheap. Ids only need to be unique, not reproducible — every
// export is deterministic *given* the spans, which is the contract.

func newTraceID() string {
	return fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64())
}

func newSpanID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// Context plumbing. The active span and propagated request id ride the
// context so the client can stamp outbound hops without the service
// layer threading them through every call signature.

type ctxKey int

const (
	ctxSpan ctxKey = iota
	ctxReqID
)

// ContextWithSpan returns ctx carrying sp. With tracing disabled
// (sp == nil) the original context is returned unchanged — no
// allocation on the disabled path.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxSpan, sp)
}

// FromContext returns the active span (nil if none).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxSpan).(*Span)
	return sp
}

// ContextWithRequestID returns ctx carrying the propagated request id.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxReqID, id)
}

// RequestIDFrom returns the propagated request id ("" if none).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxReqID).(string)
	return id
}

// FlightRecord is the crash-time dump: the collector ring verbatim
// (oldest first, exactly as collected — no re-sort, the recorder is a
// chronology) plus drop accounting. The service layer seals the JSON
// encoding with sealed.Seal and publishes it beside the forensics
// dumps.
type FlightRecord struct {
	Proc       string       `json:"proc"`
	Reason     string       `json:"reason"`
	DumpedAtUS int64        `json:"dumped_at_us"`
	Dropped    uint64       `json:"spans_dropped"`
	Spans      []SpanRecord `json:"spans"`
}

// Flight snapshots the ring for a crash dump. Nil tracer returns a
// zero record with Proc "" — callers skip writing those.
func (t *Tracer) Flight(reason string) FlightRecord {
	if t == nil {
		return FlightRecord{}
	}
	return FlightRecord{
		Proc:       t.proc,
		Reason:     reason,
		DumpedAtUS: time.Now().UnixMicro(),
		Dropped:    t.dropped.Load(),
		Spans:      t.snapshot(),
	}
}
