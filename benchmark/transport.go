package main

import (
	"repro/internal/fabric"
	"repro/internal/trace"
)

// tracedTransport decorates a fabric.Transport with spans and counts at
// the transport boundary: one span per call (time inside the call) and,
// for one-sided operations, one span from issue to the onDone callback
// (delivery). It is how the benchmark observes the fabric layer of a
// workload from outside — Graph500's RunConfig.Transport accepts it.
type tracedTransport struct {
	inner  fabric.Transport
	rec    *recorder
	parent int // the traced solve's root span
}

var _ fabric.Transport = (*tracedTransport)(nil)

func newTracedTransport(inner fabric.Transport, rec *recorder, parent int) *tracedTransport {
	return &tracedTransport{inner: inner, rec: rec, parent: parent}
}

// delivered wraps onDone so the issue→completion interval becomes a span.
func (t *tracedTransport) delivered(name string, startNs int64, onDone func()) func() {
	return func() {
		t.rec.add(t.parent, name, "fabric", startNs, t.rec.now())
		if onDone != nil {
			onDone()
		}
	}
}

func (t *tracedTransport) Put(src, dst, bytes int, apply, onDone func()) {
	t.rec.count("puts", 1)
	t.rec.count("put_bytes", int64(bytes))
	start := t.rec.now()
	t.inner.Put(src, dst, bytes, apply, t.delivered("put-delivery", start, onDone))
	t.rec.add(t.parent, "put-issue", "fabric", start, t.rec.now())
}

func (t *tracedTransport) Get(src, dst, bytes int, apply, onDone func()) {
	t.rec.count("gets", 1)
	start := t.rec.now()
	t.inner.Get(src, dst, bytes, apply, t.delivered("get-delivery", start, onDone))
	t.rec.add(t.parent, "get-issue", "fabric", start, t.rec.now())
}

func (t *tracedTransport) Send(src, dst, tag int, data []byte) {
	t.rec.count("sends", 1)
	start := t.rec.now()
	t.inner.Send(src, dst, tag, data)
	t.rec.add(t.parent, "send", "fabric", start, t.rec.now())
}

func (t *tracedTransport) Recv(dst, src, tag int) fabric.Message {
	start := t.rec.now()
	m := t.inner.Recv(dst, src, tag)
	t.rec.add(t.parent, "recv-wait", "fabric", start, t.rec.now())
	return m
}

func (t *tracedTransport) RecvAsync(dst, src, tag int, fn func(fabric.Message)) {
	start := t.rec.now()
	t.inner.RecvAsync(dst, src, tag, func(m fabric.Message) {
		t.rec.add(t.parent, "recv-wait", "fabric", start, t.rec.now())
		fn(m)
	})
}

func (t *tracedTransport) TryRecv(dst, src, tag int) (fabric.Message, bool) {
	return t.inner.TryRecv(dst, src, tag)
}

func (t *tracedTransport) Probe(dst, src, tag int) (fabric.Message, bool) {
	return t.inner.Probe(dst, src, tag)
}

func (t *tracedTransport) Size() int                  { return t.inner.Size() }
func (t *tracedTransport) Cost() fabric.CostModel     { return t.inner.Cost() }
func (t *tracedTransport) AllocTags(n int) int        { return t.inner.AllocTags(n) }
func (t *tracedTransport) SetTracer(tr *trace.Tracer) { t.inner.SetTracer(tr) }
func (t *tracedTransport) Stats() (msgs, bytes int64) { return t.inner.Stats() }
