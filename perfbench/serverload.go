package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/server"
)

// serverLoad is a closed loop of clients, each on its own keep-alive
// loopback connection, against the internal/server handler serving the
// blocks program. Each client repeats open -> assert the initial wmes
// -> run -> snapshot -> close; an op is one HTTP request.
type serverLoad struct{ clients int }

const (
	reqOpen = iota
	reqAssert
	reqRun
	reqSnapshot
	reqClose
	numReqs
)

var reqNames = [numReqs]string{"open", "assert", "run", "snapshot", "close"}

const blocksMaxCycles = 200

// rig is one started server with its connected clients.
type rig struct {
	srv        *server.Server
	hs         *http.Server
	served     chan error
	clients    []*server.Client
	transports []*http.Transport
	conns      atomic.Int64
}

// start parses and compiles the program from source, starts a server
// on a loopback port and connects the clients.
func (l *serverLoad) start(mt *matchTrace) (*rig, setupTimes, error) {
	t0 := time.Now()
	prog, err := ops5.ParseProgram(blocksProgram)
	if err != nil {
		return nil, setupTimes{}, fmt.Errorf("parse program: %w", err)
	}
	t1 := time.Now()
	c, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		return nil, setupTimes{}, fmt.Errorf("compile: %w", err)
	}
	t2 := time.Now()
	cfg := server.Config{Compiled: c, DefaultMaxCycles: blocksMaxCycles}
	if mt != nil {
		cfg.NewMatcher = func() engine.MatchApplier {
			return wrapMatcher(rete.NewMatcher(c.Network(), rete.MatcherOptions{}), mt)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, setupTimes{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, setupTimes{}, fmt.Errorf("listen: %w", err)
	}
	r := &rig{srv: srv, served: make(chan error, 1)}
	r.hs = &http.Server{Handler: srv.Handler(), ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			r.conns.Add(1)
		}
	}}
	go func() { r.served <- r.hs.Serve(ln) }()
	for range l.clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		r.transports = append(r.transports, tr)
		cl := server.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: tr})
		r.clients = append(r.clients, cl)
		if !cl.Healthy() {
			r.stop()
			return nil, setupTimes{}, errors.New("server not healthy")
		}
	}
	return r, setupTimes{total: time.Since(t0), parse: t1.Sub(t0), compile: t2.Sub(t1)}, nil
}

// stop closes the clients' connections and the server and waits for
// the serve loop to return.
func (r *rig) stop() {
	for _, tr := range r.transports {
		tr.CloseIdleConnections()
	}
	r.srv.Drain()
	r.hs.Close()
	<-r.served
}

// blocksRef is what every session must end with, from a private
// engine.Session run of the same program and wmes in this process.
type blocksRef struct {
	wmes  string
	nWMEs int
	fired int
	wm    []server.SnapshotWME
}

func newBlocksRef() (*blocksRef, error) {
	prog, err := ops5.ParseProgram(blocksProgram)
	if err != nil {
		return nil, err
	}
	c, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		return nil, err
	}
	src := blocksWMEs(blocksN)
	wmes, err := ops5.ParseWMEs(src)
	if err != nil {
		return nil, err
	}
	s := c.NewSession(engine.SessionOptions{})
	defer s.Close()
	s.Assert(wmes...)
	fired, err := s.RunCycles(blocksMaxCycles)
	if err != nil {
		return nil, err
	}
	if !s.Halted() {
		return nil, errors.New("reference blocks run did not halt")
	}
	ref := &blocksRef{wmes: src, nWMEs: len(wmes), fired: fired}
	for _, w := range s.WMEs() {
		ref.wm = append(ref.wm, server.SnapshotWME{ID: w.ID, TimeTag: w.TimeTag, Text: w.String()})
	}
	if err := checkBlocksGoal(ref.wm, blocksN); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return ref, nil
}

// client is one closed-loop client's tallies.
type client struct {
	m        *measure
	kinds    [numReqs]*hist
	reqNS    int64
	sessions int64
	failed   int64
	errs     []string
}

func newClient(seconds int) *client {
	c := &client{m: newMeasure(seconds)}
	for i := range c.kinds {
		c.kinds[i] = newHist()
	}
	return c
}

// reset empties the client's tallies for reuse.
func (c *client) reset() {
	c.m.reset()
	for _, h := range c.kinds {
		h.reset()
	}
	c.reqNS, c.sessions, c.failed, c.errs = 0, 0, 0, nil
}

func (c *client) done(kind int, start time.Time) {
	end := time.Now()
	d := end.Sub(start)
	c.m.op(d, end)
	c.kinds[kind].add(d)
	c.reqNS += int64(d)
}

// session runs one open -> assert -> run -> snapshot -> close round
// and checks what the server returned.
func (c *client) session(cl *server.Client, ref *blocksRef) error {
	t := time.Now()
	id, err := cl.Open(false, "")
	c.done(reqOpen, t)
	if err != nil {
		return err
	}
	err = c.body(cl, id, ref)
	t = time.Now()
	cerr := cl.Close(id)
	c.done(reqClose, t)
	return errors.Join(err, cerr)
}

func (c *client) body(cl *server.Client, id string, ref *blocksRef) error {
	t := time.Now()
	ids, err := cl.Assert(id, ref.wmes)
	c.done(reqAssert, t)
	if err != nil {
		return err
	}
	if len(ids) != ref.nWMEs {
		return fmt.Errorf("assert returned %d ids, want %d", len(ids), ref.nWMEs)
	}
	t = time.Now()
	res, err := cl.Run(id, blocksMaxCycles)
	c.done(reqRun, t)
	if err != nil {
		return err
	}
	if res.Fired != ref.fired || !res.Halted {
		return fmt.Errorf("run fired %d (halted %t), want %d and halted", res.Fired, res.Halted, ref.fired)
	}
	t = time.Now()
	snap, err := cl.Snapshot(id)
	c.done(reqSnapshot, t)
	if err != nil {
		return err
	}
	if snap.Fired != ref.fired || !snap.Halted {
		return fmt.Errorf("snapshot fired %d (halted %t), want %d and halted", snap.Fired, snap.Halted, ref.fired)
	}
	if err := checkSnapshotWM(snap.WMEs, ref.wm); err != nil {
		return err
	}
	return checkBlocksGoal(snap.WMEs, blocksN)
}

// loop runs whole sessions on every client until the deadline. The
// clients' tallies are allocated before the caller's allocation bracket
// starts, so they do not count against the requests.
func (l *serverLoad) loop(r *rig, ref *blocksRef, cs []*client, deadline time.Time) {
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		c := cs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := c.session(cl, ref); err != nil {
					c.failed += numReqs
					if len(c.errs) < 3 {
						c.errs = append(c.errs, err.Error())
					}
				}
				c.sessions++
			}
		}()
	}
	wg.Wait()
}

func newClients(n, seconds int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(seconds)
	}
	return cs
}

func (l *serverLoad) run(cfg runConfig) (*result, error) {
	ref, err := newBlocksRef()
	if err != nil {
		return nil, fmt.Errorf("blocks reference: %w", err)
	}
	ph := &phases{}
	var mt *matchTrace
	if cfg.trace {
		mt = &matchTrace{}
	}
	var r *rig
	err = repeatSetups(ph, func(last bool) (setupTimes, error) {
		rg, t, err := l.start(mt)
		if err == nil && !last {
			rg.stop()
		}
		r = rg
		return t, err
	})
	if err != nil {
		return nil, err
	}
	defer r.stop()

	res := &result{correct: true}
	tally := func(cs []*client) {
		for _, c := range cs {
			res.attempted += c.sessions * numReqs
			res.failed += c.failed
			for _, e := range c.errs {
				res.note("session failed: %s", e)
			}
		}
	}
	// The same clients serve the warm-up and, emptied, the measured
	// window; client 0's tallies take in the others' afterwards.
	cs := newClients(len(r.clients), cfg.seconds)
	l.loop(r, ref, cs, time.Now().Add(warmup))
	tally(cs)

	var applyNS0 int64
	var applies0, changes0, insts0 int64
	if mt != nil {
		applyNS0, applies0, changes0, insts0 = mt.applyNS.Load(), mt.applies.Load(), mt.changes.Load(), mt.insts.Load()
	}
	for _, c := range cs {
		c.reset()
	}
	m := cs[0].m
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m.begin()
	for _, c := range cs[1:] {
		c.m.win.start = m.start
	}
	l.loop(r, ref, cs, m.start.Add(time.Duration(cfg.seconds)*time.Second))
	m.finish()
	runtime.ReadMemStats(&ms1)
	tally(cs)
	if res.failed > 0 {
		res.correct = false
	}

	kinds := cs[0].kinds
	sessions, reqNS := cs[0].sessions, cs[0].reqNS
	for _, c := range cs[1:] {
		m.lat.merge(c.m.lat)
		m.win.merge(c.m.win)
		m.ops += c.m.ops
		sessions += c.sessions
		reqNS += c.reqNS
		for i, h := range c.kinds {
			kinds[i].merge(h)
		}
	}
	m.allocs = ms1.Mallocs - ms0.Mallocs
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.note("server: %d clients, %d connections accepted by the measured server, %d sessions in the window",
		len(r.clients), r.conns.Load(), sessions)

	if !cfg.trace {
		res.endToEnd(m, ph)
		return res, nil
	}
	res.windowReport("traced", m)
	st, err := r.clients[0].Stats()
	if err != nil {
		return nil, fmt.Errorf("server stats: %w", err)
	}
	res.note("server: %d sessions pooled at the end", st.PooledSessions)
	lay := layerMetrics(m, ph)
	for i, name := range reqNames {
		lay["server."+name+"_us_p50"] = kinds[i].quantile(0.5) / 1e3
	}
	matchNS := float64(mt.applyNS.Load() - applyNS0)
	lay["server.match_us_per_session"] = matchNS / 1e3 / float64(sessions)
	lay["server.outside_match_us_per_session"] = (float64(reqNS) - matchNS) / 1e3 / float64(sessions)
	applies := float64(mt.applies.Load() - applies0)
	res.note("server: %.1f match phases, %.1f changes and %.1f instantiation changes per session", applies/float64(sessions),
		float64(mt.changes.Load()-changes0)/float64(sessions), float64(mt.insts.Load()-insts0)/float64(sessions))
	res.set(perLayerDefs, lay)
	return res, nil
}
