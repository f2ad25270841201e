package transport

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// compileProdsT compiles production sources into a network for the
// migration tests (the named workloads don't exercise enough distinct
// buckets per cycle to arm the detector deterministically).
func compileProdsT(t *testing.T, srcs ...string) *rete.Network {
	t.Helper()
	var prods []*ops5.Production
	for _, src := range srcs {
		p, err := ops5.ParseProduction(src)
		if err != nil {
			t.Fatal(err)
		}
		prods = append(prods, p)
	}
	net, err := rete.Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// foldInsts folds conflict-set deltas into a set.
func foldInsts(cs map[string]bool, deltas []rete.InstChange) {
	for _, ic := range deltas {
		if ic.Tag == rete.Add {
			cs[ic.Key()] = true
		} else {
			delete(cs, ic.Key())
		}
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// rotated maps bucket b to worker (b + shift) % workers: with a new
// shift at every boundary, every bucket changes owner.
func rotated(nbuckets, workers, shift int) sched.Partition {
	p := make(sched.Partition, nbuckets)
	for b := range p {
		p[b] = (b + shift) % workers
	}
	return p
}

// TestControlForcedMigrationParity is the cross-process form of the
// migration metamorphic property: buckets migrate between worker
// processes over real TCP connections mid-run — extraction, wire
// serialization, relay through the hub, and injection at the new owner
// — and the netted conflict-set trajectory must stay identical to the
// sequential matcher's. The forced schedule rotates the whole
// partition at every cycle boundary, so every resident token crosses
// the wire between every pair of cycles. The in-process runtime runs
// the same schedule alongside: its netted output must match on every
// cycle, and its migration cost triple must match exactly.
func TestControlForcedMigrationParity(t *testing.T) {
	srcs := []string{
		`(p join (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`,
		`(p neg (a ^x <v>) -(d ^x <v>) --> (halt))`,
	}
	const nbuckets = 64
	for _, routed := range []bool{false, true} {
		t.Run(fmt.Sprintf("routed=%v", routed), func(t *testing.T) {
			const workers = 3
			opts := parallel.Options{
				Workers:    workers,
				NBuckets:   nbuckets,
				RouteRoots: routed,
				ForceMigrate: func(cycle int) sched.Partition {
					return rotated(nbuckets, workers, cycle)
				},
			}
			seq := rete.NewMatcher(compileProdsT(t, srcs...), rete.MatcherOptions{NBuckets: nbuckets})
			inproc, err := parallel.New(compileProdsT(t, srcs...), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer inproc.Close()
			ctl, werrs := startStar(t, compileProdsT(t, srcs...), opts)
			defer ctl.Close()

			seqCS, wireCS := map[string]bool{}, map[string]bool{}
			cycles := 0
			id := 1
			var live []*ops5.WME
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 30; i++ {
				var ch []rete.Change
				if len(live) > 0 && rng.Intn(3) == 0 {
					j := rng.Intn(len(live))
					ch = []rete.Change{{Tag: rete.Delete, WME: live[j]}}
					live = append(live[:j], live[j+1:]...)
				} else {
					class := []string{"a", "b", "c", "d"}[rng.Intn(4)]
					w := ops5.NewWME(class, "x", rng.Intn(3))
					w.ID, w.TimeTag = id, id
					id++
					ch = []rete.Change{{Tag: rete.Add, WME: w}}
					live = append(live, w)
				}
				foldInsts(seqCS, seq.Apply(ch))
				got, err := ctl.Cycle(ch)
				if err != nil {
					t.Fatal(err)
				}
				want, err := inproc.Cycle(ch)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(instKeys(got)) != fmt.Sprint(instKeys(want)) {
					t.Fatalf("step %d: netted output diverges from the in-process runtime\nwire:    %v\ninproc:  %v", i, instKeys(got), instKeys(want))
				}
				foldInsts(wireCS, got)
				cycles++
				if !sameSet(seqCS, wireCS) {
					t.Fatalf("divergence at step %d:\nseq:  %v\nwire: %v", i, seqCS, wireCS)
				}
			}
			migs, moved, entries := ctl.RebalanceStats()
			if int(migs) != cycles {
				t.Errorf("forced schedule migrated %d times over %d cycles", migs, cycles)
			}
			if moved == 0 {
				t.Error("forced full rotations moved no buckets")
			}
			if entries == 0 {
				t.Error("no entries crossed the wire despite resident state")
			}
			if im, ib, ie := inproc.RebalanceStats(); im != migs || ib != moved || ie != entries {
				t.Errorf("RebalanceStats: wire (%d, %d, %d), in-process (%d, %d, %d)", migs, moved, entries, im, ib, ie)
			}
			closeStar(t, ctl, werrs, workers)
		})
	}
}

// TestControlAdaptiveParity runs the online detector across worker
// processes: a pathologically bad initial assignment (every bucket on
// worker 0), per-bucket loads reported in turn frames, and the
// balancer migrating buckets over the wire — with the netted conflict
// sets identical to the sequential matcher throughout.
func TestControlAdaptiveParity(t *testing.T) {
	const (
		workers  = 3
		nbuckets = 64
	)
	src := `(p j (a ^x <v>) (b ^x <v>) --> (halt))`
	seq := rete.NewMatcher(compileProdsT(t, src), rete.MatcherOptions{NBuckets: nbuckets})
	ctl, werrs := startStar(t, compileProdsT(t, src), parallel.Options{
		Workers:   workers,
		NBuckets:  nbuckets,
		Partition: make(sched.Partition, nbuckets), // everything on worker 0
		Rebalance: sched.Rebalance{Threshold: 1.01, MinInterval: 1},
	})
	defer ctl.Close()

	seqCS, wireCS := map[string]bool{}, map[string]bool{}
	id := 1
	for cycle := 0; cycle < 8; cycle++ {
		var ch []rete.Change
		for x := 0; x < 8; x++ {
			for _, class := range []string{"a", "b"} {
				w := ops5.NewWME(class, "x", cycle*8+x)
				w.ID, w.TimeTag = id, id
				id++
				ch = append(ch, rete.Change{Tag: rete.Add, WME: w})
			}
		}
		foldInsts(seqCS, seq.Apply(ch))
		got, err := ctl.Cycle(ch)
		if err != nil {
			t.Fatal(err)
		}
		foldInsts(wireCS, got)
		if !sameSet(seqCS, wireCS) {
			t.Fatalf("divergence at cycle %d:\nseq:  %v\nwire: %v", cycle, seqCS, wireCS)
		}
	}
	migs, moved, _ := ctl.RebalanceStats()
	if migs == 0 {
		t.Fatal("detector never armed on an all-on-one-worker assignment")
	}
	if moved == 0 {
		t.Fatal("migration moved no buckets")
	}
	// The work spread out: more than one worker performed activations
	// in the cycles after the first migration.
	busy := 0
	for _, n := range ctl.Stats().Processed {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("work still on a single worker after %d migrations", migs)
	}
	closeStar(t, ctl, werrs, workers)
}
