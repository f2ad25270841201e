package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
)

// engineLoad is a workload whose op is one MRA cycle: one
// Session.Step that fires. Each solve opens a fresh session holding
// the initial wmes and steps it until the conflict set is empty or the
// program halts.
type engineLoad struct {
	prog, wmes string
	// workers > 0 runs the match phase on a parallel.Runtime with that
	// many workers and routed roots; 0 uses the sequential matcher.
	workers int
	// check judges one finished solve; ref is the sequential transcript
	// computed at set-up for a parallel workload (nil otherwise).
	check func(s *engine.Session, fired, ref []firing) error
}

// maxCycles caps a solve; every workload's solve ends well before it.
const maxCycles = 10000

type engineState struct {
	c    *engine.Compiled
	wmes []*ops5.WME
	ref  []firing

	mt *matchTrace // nil in the untimed run

	// per-solve scratch, reused so recording allocates nothing
	fired            []firing
	ms0, ms1, stepMS runtime.MemStats

	// traced-run tallies
	steps, stepNS, selfNS int64
	processed, sent       int64
	imbalance             []float64
	accounting            bool
	stepAllocs            int64
	csSum, csFires        int64
}

// setup parses and compiles the program from source and opens the
// initial session (starting the runtime on the parallel workload).
func (l *engineLoad) setup() (*engineState, setupTimes, error) {
	t0 := time.Now()
	prog, err := ops5.ParseProgram(l.prog)
	if err != nil {
		return nil, setupTimes{}, fmt.Errorf("parse program: %w", err)
	}
	wmes, err := ops5.ParseWMEs(l.wmes)
	if err != nil {
		return nil, setupTimes{}, fmt.Errorf("parse wmes: %w", err)
	}
	t1 := time.Now()
	c, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		return nil, setupTimes{}, fmt.Errorf("compile: %w", err)
	}
	t2 := time.Now()
	st := &engineState{c: c, wmes: wmes}
	s, _, err := l.open(st)
	if err != nil {
		return nil, setupTimes{}, err
	}
	t3 := time.Now()
	s.Close()
	return st, setupTimes{total: t3.Sub(t0), parse: t1.Sub(t0), compile: t2.Sub(t1)}, nil
}

// open starts a fresh session holding the initial wmes, with the
// traced wrappers in place when st.mt is set.
func (l *engineLoad) open(st *engineState) (*engine.Session, *parallel.Runtime, error) {
	var opts engine.SessionOptions
	var rt *parallel.Runtime
	if l.workers > 0 {
		popts := parallel.Options{Workers: l.workers, RouteRoots: true}
		if st.mt != nil {
			popts.Transport = traceTransport(parallel.InProc(), st.mt.cover)
		}
		var err error
		if rt, err = parallel.New(st.c.Network(), popts); err != nil {
			return nil, nil, fmt.Errorf("parallel runtime: %w", err)
		}
		opts.Matcher = rt
	}
	if st.mt != nil {
		m := opts.Matcher
		if m == nil {
			m = rete.NewMatcher(st.c.Network(), rete.MatcherOptions{})
		}
		opts.Matcher = wrapMatcher(m, st.mt)
	}
	s := st.c.NewSession(opts)
	s.InsertWMEs(st.wmes...)
	return s, rt, nil
}

// reference runs one sequential solve and keeps its transcript.
func (l *engineLoad) reference(st *engineState) error {
	s := st.c.NewSession(engine.SessionOptions{})
	defer s.Close()
	s.InsertWMEs(st.wmes...)
	for range maxCycles {
		in, err := s.Step()
		if err != nil {
			return err
		}
		if in == nil {
			return nil
		}
		st.ref = append(st.ref, firing{in.Prod.Name, slices.Clone(in.TimeTags)})
	}
	return errors.New("reference run hit the cycle limit")
}

var errCycleLimit = errors.New("solve hit the cycle limit")

// solve runs one solve, records each firing's latency into m, and
// checks the result. It returns the number of firings.
func (l *engineLoad) solve(st *engineState, m *measure) (int, error) {
	runtime.ReadMemStats(&st.ms0)
	s, rt, err := l.open(st)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	st.fired = st.fired[:0]
	for {
		if len(st.fired) > maxCycles {
			return len(st.fired), errCycleLimit
		}
		var applied int64
		if st.mt != nil {
			applied = st.mt.applyNS.Load()
		}
		if st.accounting {
			runtime.ReadMemStats(&st.stepMS)
			st.stepAllocs -= int64(st.stepMS.Mallocs)
		}
		start := time.Now()
		in, err := s.Step()
		end := time.Now()
		if st.accounting {
			runtime.ReadMemStats(&st.stepMS)
			st.stepAllocs += int64(st.stepMS.Mallocs)
			if in != nil {
				// The conflict set at resolve held what is left plus the
				// instantiation refraction just removed.
				st.csSum += int64(len(s.ConflictSet())) + 1
				st.csFires++
			}
		}
		if err != nil {
			return len(st.fired), err
		}
		if st.mt != nil {
			d := int64(end.Sub(start))
			st.steps++
			st.stepNS += d
			st.selfNS += d - (st.mt.applyNS.Load() - applied)
		}
		if in == nil {
			break
		}
		m.op(end.Sub(start), end)
		st.fired = append(st.fired, firing{in.Prod.Name, in.TimeTags})
	}
	runtime.ReadMemStats(&st.ms1)
	m.allocs += st.ms1.Mallocs - st.ms0.Mallocs
	m.allocBytes += st.ms1.TotalAlloc - st.ms0.TotalAlloc
	if rt != nil && st.mt != nil {
		stats := rt.Stats()
		var sum, most int64
		for i, p := range stats.Processed {
			sum += p
			most = max(most, p)
			st.sent += stats.MsgsSent[i]
		}
		st.processed += sum
		if sum > 0 {
			st.imbalance = append(st.imbalance, float64(most)*float64(len(stats.Processed))/float64(sum))
		}
	}
	return len(st.fired), l.check(s, st.fired, st.ref)
}

// run performs the whole benchmark run for an engine workload.
func (l *engineLoad) run(cfg runConfig) (*result, error) {
	ph := &phases{}
	var st *engineState
	err := repeatSetups(ph, func(bool) (setupTimes, error) {
		s, t, err := l.setup()
		st = s
		return t, err
	})
	if err != nil {
		return nil, err
	}
	if l.workers > 0 {
		if err := l.reference(st); err != nil {
			return nil, fmt.Errorf("sequential reference: %w", err)
		}
	}
	// freshTrace starts the traced tallies over, so that they count the
	// measured window only.
	freshTrace := func() {
		if !cfg.trace {
			return
		}
		st.mt = &matchTrace{}
		if l.workers > 0 {
			st.mt.cover = newCoverage()
		}
		st.steps, st.stepNS, st.selfNS, st.processed, st.sent, st.imbalance = 0, 0, 0, 0, 0, nil
	}
	freshTrace()
	res := &result{correct: true}
	solveOnce := func(m *measure) {
		n, err := l.solve(st, m)
		res.attempted += int64(max(n, 1))
		if err != nil {
			res.failed += int64(max(n, 1))
			res.correct = false
			res.note("solve failed: %v", err)
		}
	}

	// Warm-up: let lazy set-up and caches settle before timing. The
	// measured window reuses the warm-up's tallies, emptied.
	m := newMeasure(cfg.seconds)
	for deadline := time.Now().Add(warmup); time.Now().Before(deadline); {
		solveOnce(m)
	}
	freshTrace()
	m.reset()
	m.begin()
	for deadline := m.start.Add(time.Duration(cfg.seconds) * time.Second); time.Now().Before(deadline); {
		solveOnce(m)
	}
	m.finish()

	if !cfg.trace {
		res.endToEnd(m, ph)
		return res, nil
	}
	res.windowReport("traced", m)
	lay := layerMetrics(m, ph)
	mt := st.mt
	applies := float64(mt.applies.Load())
	lay["rete.apply_us_per_cycle"] = float64(mt.applyNS.Load()) / 1e3 / applies
	lay["rete.apply_share"] = float64(mt.applyNS.Load()) / float64(st.stepNS)
	lay["rete.changes_per_cycle"] = float64(mt.changes.Load()) / applies
	lay["rete.inst_changes_per_cycle"] = float64(mt.insts.Load()) / applies
	lay["engine.step_self_us_per_cycle"] = float64(st.selfNS) / 1e3 / float64(st.steps)
	if c := mt.cover; c != nil {
		lay["parallel.apply_us_per_cycle"] = lay["rete.apply_us_per_cycle"]
		lay["parallel.activations_per_cycle"] = float64(st.processed) / applies
		lay["parallel.msgs_per_cycle"] = float64(st.sent) / applies
		lay["parallel.worker_imbalance"] = median(st.imbalance)
		lay["parallel.uncovered_us_per_cycle"] = float64(c.uncoveredNS) / 1e3 / applies
		lay["transport.pushes_per_cycle"] = float64(c.pushes.Load()) / applies
		lay["transport.msgs_per_push"] = float64(c.msgs.Load()) / float64(c.pushes.Load())
		lay["transport.push_us_per_cycle"] = float64(c.pushNS.Load()) / 1e3 / applies
		lay["transport.drain_wait_us_per_cycle"] = float64(c.drainWaitNS) / 1e3 / applies
	}

	// Untimed accounting solves: exact allocation counts per layer and
	// the conflict-set size at each resolve. They record into the
	// window's tallies, which nothing reads any more.
	mt.countAllocs, mt.applyAllocs = true, 0
	st.accounting = true
	before := mt.applies.Load()
	steps := st.steps
	for range accountingSolves {
		solveOnce(m)
	}
	cycles := float64(mt.applies.Load() - before)
	lay["rete.allocs_per_cycle"] = float64(mt.applyAllocs) / cycles
	lay["engine.allocs_per_cycle"] = float64(st.stepAllocs-mt.applyAllocs) / float64(st.steps-steps)
	lay["engine.conflict_set_mean"] = float64(st.csSum) / float64(st.csFires)
	res.set(perLayerDefs, lay)
	return res, nil
}
