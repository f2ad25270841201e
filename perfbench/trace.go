package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpcrete/internal/engine"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
)

// The traced run wraps the layers' public interfaces from the
// benchmark's side: the matcher a session drives (engine.MatchApplier)
// and, on the parallel workload, the runtime's message plane
// (parallel.Transport and its Endpoints). The untraced run uses the
// program unwrapped, so the gap between the two runs is the cost of
// these wrappers.

// matchTrace accumulates what a traced matcher sees. The counters are
// atomic because the server runs sessions on several goroutines.
type matchTrace struct {
	applies atomic.Int64
	applyNS atomic.Int64
	changes atomic.Int64
	insts   atomic.Int64

	// countAllocs brackets every Apply with runtime.ReadMemStats, which
	// stops the world and flushes every P's allocation cache, so the
	// count is exact. It is set only on untimed single-session solves;
	// ms0 and ms1 are preallocated so the bracket itself allocates
	// nothing.
	countAllocs bool
	applyAllocs int64
	ms0, ms1    runtime.MemStats

	// cover, when non-nil, receives each Apply's wall-clock interval to
	// relate it to the workers' busy time (parallel workload only).
	cover *coverage
}

// wrapMatcher wraps m in a timing matcher that also implements every
// optional hook m implements: engine.Session.Reset needs Reset (or
// SessionPool.Put closes sessions instead of pooling them) and
// Session.Close needs Close (or a parallel runtime's workers leak).
func wrapMatcher(m engine.MatchApplier, t *matchTrace) engine.MatchApplier {
	base := &tracedMatcher{inner: m, t: t}
	_, resets := m.(interface{ Reset() })
	_, closes := m.(interface{ Close() })
	switch {
	case resets && closes:
		return resetCloseMatcher{base}
	case resets:
		return resetMatcher{base}
	case closes:
		return closeMatcher{base}
	}
	return base
}

type tracedMatcher struct {
	inner engine.MatchApplier
	t     *matchTrace
}

func (m *tracedMatcher) Apply(changes []rete.Change) []rete.InstChange {
	t := m.t
	if t.countAllocs {
		runtime.ReadMemStats(&t.ms0)
	}
	start := time.Now()
	out := m.inner.Apply(changes)
	end := time.Now()
	if t.countAllocs {
		runtime.ReadMemStats(&t.ms1)
		t.applyAllocs += int64(t.ms1.Mallocs - t.ms0.Mallocs)
	}
	t.applies.Add(1)
	t.applyNS.Add(int64(end.Sub(start)))
	t.changes.Add(int64(len(changes)))
	t.insts.Add(int64(len(out)))
	if t.cover != nil {
		t.cover.account(start, end)
	}
	return out
}

func (m *tracedMatcher) reset() { m.inner.(interface{ Reset() }).Reset() }
func (m *tracedMatcher) close() { m.inner.(interface{ Close() }).Close() }

type resetMatcher struct{ *tracedMatcher }

func (m resetMatcher) Reset() { m.reset() }

type closeMatcher struct{ *tracedMatcher }

func (m closeMatcher) Close() { m.close() }

type resetCloseMatcher struct{ *tracedMatcher }

func (m resetCloseMatcher) Reset() { m.reset() }
func (m resetCloseMatcher) Close() { m.close() }

// span is a half-open interval in nanoseconds since coverage.epoch.
type span struct{ from, to int64 }

// coverage relates the runtime's Apply intervals to the workers' busy
// time, observed at the transport: a worker is busy from the return of
// a Drain (or TryDrain) to its next Drain call. It also counts the
// message plane's pushes.
type coverage struct {
	epoch time.Time

	mu  sync.Mutex // guards eps, which each runtime's Open replaces
	eps []*tracedEndpoint

	pushes atomic.Int64
	msgs   atomic.Int64
	pushNS atomic.Int64

	// Written by the goroutine that calls Apply only.
	uncoveredNS int64
	drainWaitNS int64
	scratch     []span
}

func newCoverage() *coverage { return &coverage{epoch: time.Now()} }

func (c *coverage) ns(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

// account folds one Apply interval: the part of it no worker was busy
// (control work and termination detection) and the time each worker
// spent waiting in Drain.
func (c *coverage) account(start, end time.Time) {
	a, b := c.ns(start), c.ns(end)
	c.mu.Lock()
	eps := c.eps
	c.mu.Unlock()
	c.scratch = c.scratch[:0]
	for _, ep := range eps {
		var busy int64
		ep.mu.Lock()
		spans := ep.busy
		if ep.open >= 0 {
			// Still busy: the worker's tail after its last termination
			// credit may outlive Apply; it covers up to the end.
			spans = append(spans, span{ep.open, b})
		}
		for _, s := range spans {
			s.from, s.to = max(s.from, a), min(s.to, b)
			if s.to > s.from {
				busy += s.to - s.from
				c.scratch = append(c.scratch, s)
			}
		}
		ep.busy = ep.busy[:0]
		ep.mu.Unlock()
		c.drainWaitNS += (b - a) - busy
	}
	slices.SortFunc(c.scratch, func(x, y span) int { return int(x.from - y.from) })
	covered, reach := int64(0), a
	for _, s := range c.scratch {
		if s.to <= reach {
			continue
		}
		covered += s.to - max(s.from, reach)
		reach = s.to
	}
	c.uncoveredNS += (b - a) - covered
}

// traceTransport wraps a transport so its endpoints report to c. The
// wrapper keeps the DeliversByReference marker when the wrapped
// transport has it: parallel.New checks it to decide whether the
// migration protocol may travel by reference.
func traceTransport(inner parallel.Transport, c *coverage) parallel.Transport {
	t := &tracedTransport{inner: inner, c: c}
	if _, ok := inner.(parallel.RefTransport); ok {
		return refTracedTransport{t}
	}
	return t
}

type tracedTransport struct {
	inner parallel.Transport
	c     *coverage
}

func (t *tracedTransport) Open(workers int, opts parallel.EndpointOptions) ([]parallel.Endpoint, error) {
	eps, err := t.inner.Open(workers, opts)
	if err != nil {
		return nil, err
	}
	traced := make([]*tracedEndpoint, len(eps))
	out := make([]parallel.Endpoint, len(eps))
	for i, ep := range eps {
		traced[i] = &tracedEndpoint{inner: ep, c: t.c, open: -1}
		out[i] = traced[i]
	}
	t.c.mu.Lock()
	t.c.eps = traced
	t.c.mu.Unlock()
	return out, nil
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

type refTracedTransport struct{ *tracedTransport }

func (refTracedTransport) DeliversByReference() {}

type tracedEndpoint struct {
	inner parallel.Endpoint
	c     *coverage

	mu   sync.Mutex
	busy []span
	open int64 // start of the current busy span, or -1 while waiting
}

func (e *tracedEndpoint) pushed(n int, start time.Time) {
	e.c.pushNS.Add(int64(time.Since(start)))
	e.c.pushes.Add(1)
	e.c.msgs.Add(int64(n))
}

func (e *tracedEndpoint) Push(m parallel.Message, batch, src int32) {
	start := time.Now()
	e.inner.Push(m, batch, src)
	e.pushed(1, start)
}

func (e *tracedEndpoint) PushBatch(ms []parallel.Message, batch, src int32) {
	start := time.Now()
	e.inner.PushBatch(ms, batch, src)
	if len(ms) > 0 {
		e.pushed(len(ms), start)
	}
}

func (e *tracedEndpoint) idle() {
	now := e.c.ns(time.Now())
	e.mu.Lock()
	if e.open >= 0 {
		e.busy = append(e.busy, span{e.open, now})
		e.open = -1
	}
	e.mu.Unlock()
}

func (e *tracedEndpoint) working() {
	now := e.c.ns(time.Now())
	e.mu.Lock()
	e.open = now
	e.mu.Unlock()
}

func (e *tracedEndpoint) Drain(buf []parallel.Message, sbuf []parallel.RecvStamp) ([]parallel.Message, []parallel.RecvStamp, bool) {
	e.idle()
	batch, stamps, ok := e.inner.Drain(buf, sbuf)
	if ok {
		e.working()
	}
	return batch, stamps, ok
}

func (e *tracedEndpoint) TryDrain(buf []parallel.Message, sbuf []parallel.RecvStamp) ([]parallel.Message, []parallel.RecvStamp, bool) {
	e.idle()
	batch, stamps, ok := e.inner.TryDrain(buf, sbuf)
	if ok {
		e.working()
	}
	return batch, stamps, ok
}

func (e *tracedEndpoint) Close() { e.inner.Close() }
