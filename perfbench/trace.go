package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tooleval"
)

// Span is one timed call across a layer boundary. Spans of one job,
// spec or experiment share Trace; Parent is the span that caused it.
// Times are nanoseconds since the tracer's epoch.
type Span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Trace   uint64 `json:"trace"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Virtual int64  `json:"virtual_ns,omitempty"` // simulated time a compute span covered
	Bytes   int64  `json:"bytes,omitempty"`      // wire bytes a transport span moved
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end
// of the run, so recording costs a clock read and an append.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) id() uint64 { return t.next.Add(1) }

func (t *tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded since the last take and forgets them.
func (t *tracer) take() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// spanRef is the causing span carried on a context.
type spanRef struct{ id, trace uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, id, trace uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, trace})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// selfTimes derives each layer's self time: a span's duration minus the
// part of its interval its descendants of other layers cover, summed
// per layer. Spans nested in a span of their own layer are part of
// that span and are not counted again.
func selfTimes(spans []Span) map[string]time.Duration {
	children := childIndex(spans)
	layerOf := make(map[uint64]string, len(spans))
	for _, s := range spans {
		layerOf[s.ID] = s.Layer
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if layerOf[s.Parent] == s.Layer {
			continue
		}
		out[s.Layer] += selfTime(s, children)
	}
	return out
}

func childIndex(spans []Span) map[uint64][]Span {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return children
}

// selfTime is s's duration minus the union of the intervals of its
// nearest descendants in other layers (looking through children of its
// own layer), clipped to s.
func selfTime(s Span, children map[uint64][]Span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	var walk func(id uint64)
	walk = func(id uint64) {
		for _, k := range children[id] {
			if k.Layer == s.Layer {
				walk(k.ID)
				continue
			}
			if lo, hi := max(k.Start, s.Start), min(k.End, s.End); hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
	}
	walk(s.ID)
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var covered int64
	end := s.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return s.dur() - time.Duration(covered)
}

// writeSpans writes the run's spans as JSON lines, after one header
// line stamping the machine.
func writeSpans(path string, header map[string]string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
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

// tracedExecutor decorates an executor: every Memo call becomes a
// runner span, and the compute closure it runs (only on a miss) a bench
// span carrying the cell's simulated time. It hands its memo span to
// the inner executor on the context, so a remote executor's RPC is
// parented on it.
type tracedExecutor struct {
	inner    tooleval.Executor
	tr       *tracer
	memoName string // "memo" on the coordinator, "worker-memo" on workers
}

func (x *tracedExecutor) Memo(ctx context.Context, key tooleval.Cell, compute func() (tooleval.CellResult, error)) (float64, error) {
	ref := spanFrom(ctx)
	memo := Span{ID: x.tr.id(), Parent: ref.id, Trace: ref.trace, Layer: "runner", Name: x.memoName, Start: x.tr.now()}
	var comp Span
	v, err := x.inner.Memo(withSpan(ctx, memo.ID, ref.trace), key, func() (tooleval.CellResult, error) {
		comp = Span{ID: x.tr.id(), Parent: memo.ID, Trace: ref.trace, Layer: "bench", Name: benchName(key.Bench), Start: x.tr.now()}
		res, err := compute()
		comp.End, comp.Virtual = x.tr.now(), int64(res.Virtual)
		return res, err
	})
	memo.End = x.tr.now()
	x.tr.add(memo)
	if comp.ID != 0 {
		x.tr.add(comp)
	}
	return v, err
}

func (x *tracedExecutor) Do(ctx context.Context, fn func() error) error { return x.inner.Do(ctx, fn) }
func (x *tracedExecutor) Map(ctx context.Context, n int, fn func(i int) error) error {
	return x.inner.Map(ctx, n, fn)
}
func (x *tracedExecutor) Workers() int                 { return x.inner.Workers() }
func (x *tracedExecutor) Stats() tooleval.CacheStats   { return x.inner.Stats() }
func (x *tracedExecutor) Cache() *tooleval.Cache       { return x.inner.Cache() }
func (x *tracedExecutor) Observe(fn tooleval.Observer) { x.inner.Observe(fn) }

// benchName maps a cell's Bench field to its metric suffix
// ("apl/jpeg" becomes "apl-jpeg").
func benchName(b string) string { return strings.ReplaceAll(b, "/", "-") }

// spanHeader carries the causing span across an HTTP hop.
const spanHeader = "X-Bench-Span"

// tracedHandler records a span per request served by h, parented on
// the span named in the request's spanHeader, and hands the span to
// the handler's callees on the request context.
func tracedHandler(tr *tracer, layer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := Span{ID: tr.id(), Layer: layer, Name: name + " " + r.Method + " " + r.URL.Path, Start: tr.now()}
		if p, t, ok := parseSpanHeader(r.Header.Get(spanHeader)); ok {
			s.Parent, s.Trace = p, t
		}
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s.ID, s.Trace)))
		s.End = tr.now()
		tr.add(s)
	})
}

func parseSpanHeader(v string) (id, trace uint64, ok bool) {
	var err error
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	if id, err = strconv.ParseUint(a, 10, 64); err != nil {
		return 0, 0, false
	}
	if trace, err = strconv.ParseUint(b, 10, 64); err != nil {
		return 0, 0, false
	}
	return id, trace, true
}

// countingTransport records a span per round trip — request written to
// response body closed — with the bytes moved both ways, and forwards
// the span to the peer in spanHeader.
type countingTransport struct {
	base  http.RoundTripper
	tr    *tracer
	layer string
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref := spanFrom(req.Context())
	s := Span{ID: c.tr.id(), Parent: ref.id, Trace: ref.trace, Layer: c.layer, Name: req.Method + " " + req.URL.Path, Start: c.tr.now()}
	if req.ContentLength > 0 {
		s.Bytes = req.ContentLength
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", s.ID, s.Trace))
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		s.End = c.tr.now()
		c.tr.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: c.tr, span: s}
	return resp, nil
}

// spanBody closes its transport span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	span Span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.span.Bytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.span.End = b.tr.now()
		b.tr.add(b.span)
	})
	return err
}
