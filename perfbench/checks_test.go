package main

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/server"
)

func queenFacts(rows ...int) []fact {
	var wm []fact
	for c, r := range rows {
		wm = append(wm, fact{class: "queen", attrs: map[string]string{"col": strconv.Itoa(c + 1), "row": strconv.Itoa(r)}})
	}
	return append(wm, fact{class: "board", attrs: map[string]string{"n": strconv.Itoa(len(rows))}})
}

func TestCheckQueens(t *testing.T) {
	if err := checkQueens(queenFacts(1, 5, 8, 6, 3, 7, 2, 4), 8); err != nil {
		t.Fatalf("valid solution rejected: %v", err)
	}
	for name, rows := range map[string][]int{
		"two queens on one diagonal": {1, 5, 8, 6, 3, 7, 4, 2},
		"two queens on one row":      {1, 5, 8, 6, 3, 7, 2, 2},
		"a queen missing":            {1, 5, 8, 6, 3, 7, 2},
	} {
		if err := checkQueens(queenFacts(rows...), 8); err == nil {
			t.Errorf("%s: accepted %v", name, rows)
		}
	}
}

// tourneyAnswer builds the one correct final set of pairings.
func tourneyAnswer(teams []string, slots []slot) []fact {
	var wm []fact
	for _, t := range teams {
		for _, s := range slots {
			wm = append(wm, fact{class: "pairing", attrs: map[string]string{"team": t, "round": s.round, "field": s.field}})
		}
	}
	return wm
}

func TestCheckTourney(t *testing.T) {
	teams, slots, _ := tourneyInput(4, 3, 7)
	good := tourneyAnswer(teams, slots)
	if err := checkTourney(good, teams, slots); err != nil {
		t.Fatalf("valid pairings rejected: %v", err)
	}
	dup := append([]fact(nil), good...)
	dup[1] = dup[0] // one (team, round) twice, another missing
	if err := checkTourney(dup, teams, slots); err == nil {
		t.Error("duplicated pairing accepted")
	}
	if err := checkTourney(append(good, good[0]), teams, slots); err == nil {
		t.Error("extra duplicated pairing accepted")
	}
	wrongField := append([]fact(nil), good[1:]...)
	wrongField = append(wrongField, fact{class: "pairing", attrs: map[string]string{"team": teams[0], "round": slots[0].round, "field": "f9"}})
	if err := checkTourney(wrongField, teams, slots); err == nil {
		t.Error("pairing on the wrong field accepted")
	}
}

func TestTourneySeedPermutesOrderOnly(t *testing.T) {
	_, _, a := tourneyInput(tourneyTeams, tourneySlots, 1)
	_, _, b := tourneyInput(tourneyTeams, tourneySlots, 2)
	if a == b {
		t.Fatal("seeds 1 and 2 gave the same insertion order")
	}
	sorted := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		slices.Sort(lines)
		return strings.Join(lines, "\n")
	}
	if sorted(a) != sorted(b) {
		t.Fatal("seeds changed the set of initial wmes")
	}
}

func TestCheckTranscript(t *testing.T) {
	want := []firing{{"place", []int{1, 2, 3}}, {"mark-threat", []int{2, 4}}, {"place", []int{1, 5, 6}}}
	if err := checkTranscript(append([]firing(nil), want...), want); err != nil {
		t.Fatalf("identical transcript rejected: %v", err)
	}
	swapped := []firing{want[1], want[0], want[2]}
	if err := checkTranscript(swapped, want); err == nil {
		t.Error("swapped transcript entries accepted")
	}
	if err := checkTranscript(want[:2], want); err == nil {
		t.Error("short transcript accepted")
	}
}

func TestCheckBlocks(t *testing.T) {
	ref, err := newBlocksRef()
	if err != nil {
		t.Fatal(err)
	}
	if ref.fired != 21 {
		t.Fatalf("reference run fired %d, want 21", ref.fired)
	}
	stacked := append([]server.SnapshotWME(nil), ref.wm...)
	for i, w := range stacked {
		if wmeClass(w.Text) == "block" && wmeAttr(w.Text, "name") == "b3" {
			stacked[i].Text = strings.Replace(w.Text, "^on table", "^on b4", 1)
		}
	}
	if err := checkBlocksGoal(stacked, blocksN); err == nil {
		t.Error("block left on another block accepted by the goal check")
	}
	if err := checkSnapshotWM(stacked, ref.wm); err == nil {
		t.Error("block left on another block accepted by the reference comparison")
	}
	if err := checkBlocksGoal(ref.wm[1:], blocksN); err == nil && wmeClass(ref.wm[0].Text) == "block" {
		t.Error("missing block accepted")
	}
	held := []server.SnapshotWME{{Text: "(hand ^from b2 ^holding b1)"}}
	if err := checkBlocksGoal(held, 0); err == nil {
		t.Error("full hand accepted")
	}
	pending := []server.SnapshotWME{{Text: "(goal ^done no ^object b2 ^task pending)"}}
	if err := checkBlocksGoal(pending, 0); err == nil {
		t.Error("pending goal accepted")
	}
}

func TestCheckBlocksAllocatesNothing(t *testing.T) {
	ref, err := newBlocksRef()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if checkSnapshotWM(ref.wm, ref.wm) != nil || checkBlocksGoal(ref.wm, blocksN) != nil {
			t.Fatal("reference rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("server checks allocate %.1f objects per session", allocs)
	}
}

func compile(t *testing.T, src string) *engine.Compiled {
	t.Helper()
	prog, err := ops5.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The traced server matcher must keep Reset, or the session pool
// closes every session instead of recycling it.
func TestTracedMatcherKeepsPooling(t *testing.T) {
	c := compile(t, blocksProgram)
	mt := &matchTrace{}
	pool := engine.NewSessionPool(c, engine.SessionOptions{NewMatcher: func() engine.MatchApplier {
		return wrapMatcher(rete.NewMatcher(c.Network(), rete.MatcherOptions{}), mt)
	}})
	pool.Put(pool.Get())
	if pool.Len() != 1 {
		t.Fatal("session with a traced matcher was not pooled")
	}
	if _, ok := wrapMatcher(rete.NewMatcher(c.Network(), rete.MatcherOptions{}), mt).(interface{ Close() }); ok {
		t.Error("wrapper invents a Close the sequential matcher lacks")
	}
}

// The traced transport must keep InProc's by-reference marker, or
// parallel.New refuses migration on it.
func TestTracedTransportKeepsMarker(t *testing.T) {
	c := compile(t, queensProgram)
	tr := traceTransport(parallel.InProc(), newCoverage())
	if _, ok := tr.(parallel.RefTransport); !ok {
		t.Fatal("traced InProc lost DeliversByReference")
	}
	rt, err := parallel.New(c.Network(), parallel.Options{Workers: 2, Transport: tr,
		ForceMigrate: func(int) sched.Partition { return nil }})
	if err != nil {
		t.Fatalf("parallel.New refused the traced transport: %v", err)
	}
	m := wrapMatcher(rt, &matchTrace{})
	if _, ok := m.(interface{ Close() }); !ok {
		t.Fatal("traced runtime lost Close")
	}
	m.(interface{ Close() }).Close()
}

// A traced parallel solve must fire exactly what the sequential engine
// fires, and its layer accounting must add up.
func TestTracedParallelSolve(t *testing.T) {
	l := &engineLoad{prog: queensProgram, wmes: queensWMEs(6), workers: 2,
		check: func(_ *engine.Session, fired, ref []firing) error { return checkTranscript(fired, ref) }}
	st, _, err := l.setup()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.reference(st); err != nil {
		t.Fatal(err)
	}
	st.mt = &matchTrace{cover: newCoverage()}
	m := newMeasure(1)
	n, err := l.solve(st, m)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(st.ref) || int(m.ops) != n {
		t.Fatalf("solve fired %d (recorded %d), reference %d", n, m.ops, len(st.ref))
	}
	c := st.mt.cover
	apply := time.Duration(st.mt.applyNS.Load())
	if c.pushes.Load() == 0 || c.msgs.Load() < c.pushes.Load() {
		t.Errorf("pushes %d, msgs %d", c.pushes.Load(), c.msgs.Load())
	}
	if c.uncoveredNS <= 0 || time.Duration(c.uncoveredNS) > apply {
		t.Errorf("uncovered %v outside (0, apply time %v]", time.Duration(c.uncoveredNS), apply)
	}
	if len(st.imbalance) != 1 || st.imbalance[0] < 1 {
		t.Errorf("imbalance %v", st.imbalance)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	if got := h.quantile(0.5); got < 499e3 || got > 501e3 {
		t.Errorf("p50 = %v ns, want ~500 us", got)
	}
	if got := h.quantile(0.99); got < 986e3 || got > 994e3 {
		t.Errorf("p99 = %v ns, want ~990 us (0.4%%)", got)
	}
	// Either side of the switch from 16 ns to log-linear buckets.
	for _, ns := range []float64{4090, 4100, 8200} {
		s := newHist()
		s.add(time.Duration(ns))
		if got := s.quantile(0.5); math.Abs(got-ns) > 16 {
			t.Errorf("single sample %v ns reads %v ns", ns, got)
		}
	}
	h.add(3 * time.Second)
	if p, _, ok := h.tail(); !ok || p != 0.99 {
		t.Errorf("tail percentile %v (ok %t), want p99 with 1001 samples", p, ok)
	}
}
