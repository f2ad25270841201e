// Package parallel is a real (not simulated) implementation of the
// paper's distributed hash-table mapping: match processors are
// goroutines, messages are mailbox sends, and each worker owns a
// partition of the global left/right hash-bucket space. It realizes
// the Fig 3-3 variation — the control goroutine broadcasts each
// cycle's wme changes, every worker runs all constant tests and keeps
// the root activations whose buckets it owns, and successor (left)
// tokens travel to the worker owning their bucket. Options.RouteRoots
// selects the Fig 3-2 scheme instead: the control goroutine runs the
// constant tests once and hash-routes each root activation to its
// owner.
//
// The message plane is batched, because the paper's central finding is
// that per-message overhead is what makes or breaks MPC speedups:
// workers drain their whole mailbox under one lock per turn, coalesce
// outgoing activations into per-destination buffers flushed once per
// handled message, deliver conflict-set deltas in bulk, and account
// termination-detection counters per batch. Steady-state cycles reuse
// the same buffers, the shared cycle packet, and arena-carved tokens,
// so the per-message cost the paper prices at 0–32 µs stays far below
// a node activation's work here.
//
// Each match processor is a Core. The goroutine worker hosts one per
// goroutine; with a RemoteTransport each core runs in its own OS
// process (internal/transport), under the same control loop.
//
// This is the "real implementation" the paper planned as future work
// (on Nectar), transplanted to a shared-nothing goroutine machine. It
// includes the distributed termination detection the paper's simulator
// replaced with oracle knowledge: a counting detector by default, or
// Mattern's four-counter method (package termdet).
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpcrete/internal/obs"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/termdet"
)

// Detector selects the termination-detection scheme.
type Detector uint8

const (
	// CountingDetector uses an outstanding-work counter.
	CountingDetector Detector = iota
	// FourCounterDetector uses Mattern's four-counter polling method.
	FourCounterDetector
)

// Options configure a Runtime.
type Options struct {
	// Workers is the number of match workers — goroutines, or worker
	// processes on a RemoteTransport (default runtime.GOMAXPROCS(0)).
	Workers int
	// NBuckets sizes the hash-bucket space (default
	// rete.DefaultNBuckets).
	NBuckets int
	// Partition maps bucket -> worker (default round-robin).
	Partition sched.Partition
	// Rebalance, when enabled, turns on the online adaptive
	// repartitioner: workers count activations per bucket and report
	// the counts into a sched.Balancer at the end of every turn, and
	// when the detector arms (threshold, hysteresis, min-interval knobs
	// — see sched.Rebalance) hot buckets migrate to new owners at the
	// cycle boundary through the Repartition machinery. The netted conflict-set output is byte-identical to
	// the static run — migration moves state, never match semantics.
	// Requires a transport that can carry the migration protocol
	// (RefTransport or MigrationTransport).
	Rebalance sched.Rebalance
	// ForceMigrate, when non-nil, is consulted at every cycle boundary
	// (after the cycle's quiescence) with the 1-based number of the
	// cycle just completed; a non-nil returned partition is migrated to
	// before the next cycle. It is the migration-parity test hook: a
	// schedule can force migrations the detector would never choose.
	// When both ForceMigrate and Rebalance are set, a non-nil forced
	// partition wins that boundary and resets the detector.
	ForceMigrate func(cycle int) sched.Partition
	// Detector selects the termination-detection scheme.
	Detector Detector
	// RouteRoots selects the paper's Fig 3-2 scheme: the control
	// goroutine runs the constant tests once per cycle and hash-routes
	// each root activation to the worker owning its bucket, instead of
	// broadcasting the cycle's changes for every worker to filter (the
	// Fig 3-3 default). Routing eliminates the redundant all-workers
	// constant-test pass at the cost of serializing constant tests on
	// the control goroutine; the netted instantiation output is
	// identical either way.
	RouteRoots bool
	// Recorder, when non-nil, receives a wall-clock timeline of the
	// run: one span per drained mailbox batch on each worker (labelled
	// with per-kind message counts, so -timeline no longer pays one
	// span per message) and a quiescence-wait span (with the
	// termination-detection wave count) on the control track.
	// Timestamps are nanoseconds since New.
	Recorder *obs.Recorder
	// ChaosSeed, when non-zero, enables the chaos scheduling layer
	// (see chaos.go): workers randomly reorder drained activation runs
	// (preserving per-bucket FIFO order, the only ordering the match
	// relies on), defer coalesced flushes, split turns, and jitter
	// timing so -race stress explores interleavings a quiet machine
	// never produces. The netted conflict-set output must be unchanged
	// — the differential harness asserts exactly that. Zero (the
	// default) compiles to the unperturbed fast path.
	ChaosSeed int64
	// Metrics, when non-nil, receives runtime counters; currently
	// parallel.dropped_post_close, the number of messages dropped by
	// post-close mailbox sends (normal operation keeps it zero; soak
	// runs assert that).
	Metrics *obs.Registry
	// Transport supplies the message plane (nil: the in-process
	// double-buffer mailboxes, InProc). See the Transport contract in
	// transport.go. internal/transport provides a TCP loopback
	// implementation that validates wire framing against this reference
	// in-process, and the star transport whose workers are separate OS
	// processes (a RemoteTransport).
	Transport Transport
	// Causal, when non-nil, attaches the flight recorder: every worker
	// records sequence-stamped send/recv/handle/flush events (with
	// bucket, cycle, batch id, and dependency depth) into its own
	// lock-free bounded ring, and the control track brackets cycles and
	// commits per-cycle aggregates. The recorder must have exactly
	// Workers+1 tracks (workers first, control last) — build it with
	// NewFlightRecorder. Nil (the default) keeps the hot path at one
	// nil check per event and zero allocations.
	Causal *obs.CausalRecorder
}

// NewFlightRecorder builds a causal recorder sized for a runtime with
// the given worker count: Workers+1 tracks (control last). ringCap,
// retainCycles, and nbuckets follow obs.NewCausalRecorder (0 means the
// obs defaults; nbuckets should match Options.NBuckets to enable the
// per-bucket activation-load series).
func NewFlightRecorder(workers, ringCap, retainCycles, nbuckets int) *obs.CausalRecorder {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return obs.NewCausalRecorder(workers+1, ringCap, retainCycles, nbuckets)
}

// CyclePacket is the broadcast payload of one match phase. A single
// packet, owned by the Runtime and reused across cycles, is shared
// read-only by every worker — the control goroutine ships one pooled
// changes slice per cycle rather than per-worker copies.
type CyclePacket struct {
	Changes []rete.Change
}

// Message is the worker-mailbox protocol. All fields are the
// wire-visible protocol a Transport must carry; the migration fields
// (Partition, Inject) reference runtime state in-process, so a wire
// transport must serialize them at Push time (see MigrationTransport)
// — the synchronous-capture rule already requires that.
type Message struct {
	Kind   MsgKind
	Bucket int32           // MsgAct: the activation's hash bucket, computed by the sender for routing
	Depth  int32           // MsgAct: dependency depth within the cycle (roots are 1)
	Cycle  *CyclePacket    // MsgCycle: shared, read-only
	Act    rete.Activation // MsgAct
	// Partition is the new bucket-to-worker assignment
	// (MsgMigrateOut): the receiver switches its routing to it and
	// ships every bucket it loses to the new owner.
	Partition sched.Partition
	// Inject carries one extracted bucket pair to its new owner
	// (MsgMigrateIn). In-process the pointer is the live contents; a
	// wire transport decodes a fresh copy, which is safe because memory
	// removal matches by value (wme ID / Token.Same), not identity.
	Inject *rete.BucketContents
}

type MsgKind uint8

const (
	MsgCycle MsgKind = iota
	MsgAct
	MsgMigrateOut
	MsgMigrateIn
	numMsgKinds
)

// Stats reports per-worker work counts (snapshot).
type Stats struct {
	// Processed[w] counts activations performed by worker w.
	Processed []int64
	// MsgsSent[w] counts activation messages worker w sent to other
	// workers.
	MsgsSent []int64
	// Insts counts instantiation deltas delivered to the control
	// goroutine over all cycles (before netting).
	Insts int64
}

// Runtime is a parallel match engine over one compiled network. Cycle
// is the match phase of the MRA cycle; resolve and act remain the
// caller's job, as on the control processor of the paper's mapping.
// The workers are goroutines, or worker processes when the transport
// is a RemoteTransport; the control loop is the same for both.
type Runtime struct {
	net  *rete.Network
	opts Options

	eps      []Endpoint // worker inboxes, indexed by worker id
	workers  []*worker  // the goroutine workers (none on a RemoteTransport)
	cyclePkt *CyclePacket

	// transport owns the message plane; canMigrate records whether it
	// can carry the migration protocol (by reference or serialized —
	// see MigrationTransport).
	transport  Transport
	canMigrate bool

	// balancer is the online rebalance detector/planner (nil unless
	// Options.Rebalance is enabled); loadMu serializes the workers'
	// per-turn load reports into it. rebSeries is the obs series
	// migrations publish into, and the counters below aggregate
	// migration costs across the run (surfaced via RebalanceStats).
	// shipped and shippedEntries count every migrated bucket the cores
	// reported, so migrate can measure one migration's cost.
	balancer       *sched.Balancer
	loadMu         sync.Mutex
	rebSeries      *obs.Series
	migrations     atomic.Int64
	bucketsMoved   atomic.Int64
	entriesMoved   atomic.Int64
	shipped        atomic.Int64
	shippedEntries atomic.Int64

	// root-routing state (RouteRoots mode): the control goroutine's
	// constant-test processor plus reusable per-destination buffers.
	rootProc    *rete.Processor
	rootBufs    [][]Message
	rootScratch []rete.Activation

	counter *termdet.Counter
	counts  []*termdet.ChannelCounts // one per worker + control last
	four    *termdet.FourCounter

	// insts is the control goroutine's conflict-set intake; workers
	// append their buffered deltas in bulk at end of turn. netter holds
	// the netting scratch reused across cycles.
	instMu  sync.Mutex
	insts   []rete.InstChange
	netting netter

	processed []atomic.Int64
	msgsSent  []atomic.Int64
	instCount atomic.Int64

	rec   *obs.Recorder
	epoch time.Time

	// causal is the flight recorder (nil unless Options.Causal);
	// ctlTrack caches its control track, and curCycle publishes the
	// 1-based cycle number workers stamp on their events (workers are
	// quiescent between cycles, so a relaxed load per turn suffices).
	causal   *obs.CausalRecorder
	ctlTrack *obs.TrackRecorder
	curCycle atomic.Int32

	// ctlChaos perturbs the control goroutine's quiescence wait when
	// chaos is enabled (nil otherwise).
	ctlChaos *chaos

	closed bool
}

// nowNS is the recorder clock: wall-clock nanoseconds since New.
func (rt *Runtime) nowNS() int64 { return time.Since(rt.epoch).Nanoseconds() }

// controlTrack is the recorder track for the control goroutine (the
// workers occupy tracks 0..Workers-1).
func (rt *Runtime) controlTrack() int { return rt.opts.Workers }

// worker is the goroutine host of a Core: it drains the mailbox,
// applies chaos, ships the core's out buffers with credit counting,
// and records causal events.
type worker struct {
	*Core
	rt    *Runtime
	inbox Endpoint
	done  sync.WaitGroup

	// turn-local state, reused across turns: the drained batch, its
	// recv stamps, and the turn report.
	batch    []Message
	stampBuf []RecvStamp
	turn     Turn

	// chaos is the worker's scheduling perturbator (nil unless
	// Options.ChaosSeed is set).
	chaos *chaos
}

// New creates and starts a runtime. Close must be called to stop the
// workers.
func New(net *rete.Network, opts Options) (*Runtime, error) {
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers < 1 {
		return nil, fmt.Errorf("parallel: Workers = %d", opts.Workers)
	}
	if opts.NBuckets == 0 {
		opts.NBuckets = rete.DefaultNBuckets
	}
	if opts.Partition == nil {
		opts.Partition = sched.RoundRobin(opts.NBuckets, opts.Workers)
	}
	if len(opts.Partition) != opts.NBuckets {
		return nil, fmt.Errorf("parallel: partition covers %d buckets, want %d", len(opts.Partition), opts.NBuckets)
	}
	if err := opts.Partition.Validate(opts.Workers); err != nil {
		return nil, err
	}

	rt := &Runtime{
		net:       net,
		opts:      opts,
		cyclePkt:  &CyclePacket{},
		counter:   termdet.NewCounter(),
		processed: make([]atomic.Int64, opts.Workers),
		msgsSent:  make([]atomic.Int64, opts.Workers),
		rec:       opts.Recorder,
		epoch:     time.Now(),
	}
	if opts.Causal != nil {
		if got := opts.Causal.Tracks(); got != opts.Workers+1 {
			return nil, fmt.Errorf("parallel: causal recorder has %d tracks, want Workers+1 = %d (use NewFlightRecorder)", got, opts.Workers+1)
		}
		rt.causal = opts.Causal
		rt.ctlTrack = opts.Causal.Track(opts.Workers)
		for i := 0; i < opts.Workers; i++ {
			opts.Causal.SetTrackName(i, fmt.Sprintf("worker %d", i))
		}
		opts.Causal.SetTrackName(opts.Workers, "control")
	}
	if opts.RouteRoots {
		rt.rootProc = rete.NewProcessor(net, opts.NBuckets)
		rt.rootBufs = make([][]Message, opts.Workers)
	}
	dropped := opts.Metrics.Counter("parallel.dropped_post_close")
	if opts.ChaosSeed != 0 {
		rt.ctlChaos = newChaos(opts.ChaosSeed, opts.Workers)
	}
	rt.transport = opts.Transport
	if rt.transport == nil {
		rt.transport = InProc()
	}
	_, refDelivery := rt.transport.(RefTransport)
	_, wireMigration := rt.transport.(MigrationTransport)
	rt.canMigrate = refDelivery || wireMigration
	if opts.Rebalance.Enabled() || opts.ForceMigrate != nil {
		if !rt.canMigrate {
			return nil, fmt.Errorf("parallel: Rebalance/ForceMigrate require a transport that carries the migration protocol (RefTransport or MigrationTransport)")
		}
		if opts.Rebalance.Enabled() {
			rt.balancer = sched.NewBalancer(opts.Rebalance, opts.Partition, opts.Workers)
			rt.rebSeries = opts.Metrics.Series("parallel/rebalance",
				"cycle", "imbalance", "buckets_moved", "entries_moved", "messages")
		}
	}
	if rt.rec != nil {
		for i := 0; i < opts.Workers; i++ {
			rt.rec.SetTrack(i, fmt.Sprintf("worker %d", i))
		}
		rt.rec.SetTrack(rt.controlTrack(), "control")
	}
	for i := 0; i <= opts.Workers; i++ {
		rt.counts = append(rt.counts, &termdet.ChannelCounts{})
	}
	rt.four = termdet.NewFourCounter(rt.counts)

	remote, isRemote := rt.transport.(RemoteTransport)
	if isRemote {
		remote.AttachHub(&Hub{rt: rt})
	}
	eps, err := rt.transport.Open(opts.Workers, EndpointOptions{
		Dropped: dropped,
		Stamped: rt.causal != nil,
		OnError: func(err error) {
			rt.counter.Fail(fmt.Errorf("parallel: transport failed: %w", err))
		},
	})
	if err != nil {
		return nil, err
	}
	if len(eps) != opts.Workers {
		return nil, fmt.Errorf("parallel: transport opened %d endpoints, want %d", len(eps), opts.Workers)
	}
	rt.eps = eps
	if isRemote {
		return rt, nil
	}
	for i := 0; i < opts.Workers; i++ {
		w := &worker{
			Core:  NewCore(rt.topology(), i),
			rt:    rt,
			inbox: eps[i],
		}
		w.track = rt.causal.Track(i)
		if opts.ChaosSeed != 0 {
			w.chaos = newChaos(opts.ChaosSeed, i)
		}
		rt.workers = append(rt.workers, w)
		w.done.Add(1)
		go w.loop()
	}
	return rt, nil
}

// topology is the machine the worker cores are built for.
func (rt *Runtime) topology() Topology {
	return Topology{
		Net:        rt.net,
		Workers:    rt.opts.Workers,
		NBuckets:   rt.opts.NBuckets,
		Partition:  rt.opts.Partition,
		TrackLoads: rt.balancer != nil,
	}
}

// controlCounts returns the control goroutine's message counters.
func (rt *Runtime) controlCounts() *termdet.ChannelCounts {
	return rt.counts[len(rt.counts)-1]
}

// Cycle runs one parallel match phase and returns the conflict-set
// deltas, netted per instantiation and deterministically ordered
// (delivery order across workers is not deterministic; the netted set
// is). A transport failure (a lost message, a dead worker process) or a
// four-counter mismatch at quiescence returns an error instead of
// hanging; the error stays set, so every later Cycle fails too.
func (rt *Runtime) Cycle(changes []rete.Change) ([]rete.InstChange, error) {
	if rt.closed {
		return nil, errors.New("parallel: Cycle after Close")
	}
	if err := rt.counter.Err(); err != nil {
		return nil, err
	}
	rt.insts = rt.insts[:0] // quiescent: no worker holds instMu

	cycle := rt.curCycle.Add(1)
	if rt.causal != nil {
		rt.causal.BeginCycle(cycle, rt.nowNS())
	}

	if rt.opts.RouteRoots {
		rt.routeRoots(changes)
	} else {
		rt.broadcast(changes)
	}

	var waitStart int64
	if rt.rec != nil {
		waitStart = rt.nowNS()
	}
	waves, err := rt.quiesce()
	rt.cyclePkt.Changes = nil // release the caller's slice
	if err != nil {
		return nil, err
	}
	if rt.rec != nil {
		rt.rec.Span(rt.controlTrack(), "quiesce", waitStart, rt.nowNS(),
			obs.Label{Key: "waves", Value: strconv.Itoa(waves)})
	}

	if rt.causal != nil {
		// Quiescent again: every worker's events for this cycle are
		// recorded, so the aggregate commit observes them all.
		rt.causal.EndCycle(cycle, rt.nowNS())
	}

	if rt.balancer != nil || rt.opts.ForceMigrate != nil {
		if err := rt.maybeRebalance(cycle); err != nil {
			return nil, err
		}
	}
	return rt.netting.net(rt.insts), nil
}

// Apply implements engine.MatchApplier, whose contract has no error
// return: a failed Cycle panics.
func (rt *Runtime) Apply(changes []rete.Change) []rete.InstChange {
	insts, err := rt.Cycle(changes)
	if err != nil {
		panic(err)
	}
	return insts
}

// quiesce waits until every registered message has been handled, then
// cross-checks Mattern's four counters: at quiescence every message
// counted sent must have been counted received, or the accounting has
// diverged from the credit counter. It returns the number of
// four-counter waves polled (0 under the counting detector).
func (rt *Runtime) quiesce() (waves int, err error) {
	if rt.opts.Detector == FourCounterDetector {
		// A failed transport means the four-counter totals can never
		// balance once messages are lost, so the poll also watches the
		// credit counter's error.
		prevS, prevR := int64(-1), int64(-1)
		for rt.counter.Err() == nil {
			s, r, done := rt.four.Check(prevS, prevR)
			if done {
				break
			}
			prevS, prevR = s, r
			waves++
			if rt.ctlChaos != nil {
				// Jittered polling stretches the window between the two
				// four-counter passes, the interval the protocol must
				// tolerate in-flight messages across.
				rt.ctlChaos.yield()
			} else {
				runtime.Gosched()
			}
		}
	}
	rt.counter.Wait()
	if err := rt.counter.Err(); err != nil {
		return waves, err
	}
	if sent, recv := rt.four.Poll(); sent != recv {
		err := fmt.Errorf("parallel: channel counts diverged at quiescence: sent=%d recv=%d", sent, recv)
		rt.counter.Fail(err)
		return waves, err
	}
	return waves, nil
}

// maybeRebalance runs at the cycle boundary, on the quiescent runtime:
// ask the balancer (which the workers' turn reports fed) or the
// ForceMigrate test hook for a new assignment, and migrate. Migration
// happens strictly between cycles, so the match semantics of
// neighbouring cycles are untouched — only where state lives changes.
func (rt *Runtime) maybeRebalance(cycle int32) error {
	var newPart sched.Partition
	forced := false
	if rt.opts.ForceMigrate != nil {
		newPart = rt.opts.ForceMigrate(int(cycle))
		forced = newPart != nil
	}
	var imbalance float64
	if rt.balancer != nil && !forced {
		rt.loadMu.Lock()
		imbalance = rt.balancer.Imbalance()
		if np, ok := rt.balancer.EndCycle(); ok {
			newPart = np
		}
		rt.loadMu.Unlock()
	}
	if newPart == nil {
		return nil
	}
	var t0 int64
	if rt.rec != nil {
		t0 = rt.nowNS()
	}
	stats, err := rt.migrate(newPart)
	if err != nil {
		return err
	}
	if forced && rt.balancer != nil {
		// A forced move invalidates the balancer's notion of the
		// current assignment; restart it from the imposed partition.
		rt.loadMu.Lock()
		rt.balancer = sched.NewBalancer(rt.opts.Rebalance, newPart, rt.opts.Workers)
		rt.loadMu.Unlock()
	}
	rt.migrations.Add(1)
	rt.bucketsMoved.Add(int64(stats.BucketsMoved))
	rt.entriesMoved.Add(int64(stats.EntriesMoved))
	rt.rebSeries.Append(float64(cycle), imbalance,
		float64(stats.BucketsMoved), float64(stats.EntriesMoved), float64(stats.Messages))
	if rt.rec != nil {
		rt.rec.Span(rt.controlTrack(), "migrate", t0, rt.nowNS(),
			obs.Label{Key: "buckets", Value: strconv.Itoa(stats.BucketsMoved)},
			obs.Label{Key: "entries", Value: strconv.Itoa(stats.EntriesMoved)})
	}
	return nil
}

// RebalanceStats reports the adaptive repartitioner's cumulative cost:
// migration events, bucket pairs moved, and entries shipped.
func (rt *Runtime) RebalanceStats() (migrations, bucketsMoved, entriesMoved int64) {
	return rt.migrations.Load(), rt.bucketsMoved.Load(), rt.entriesMoved.Load()
}

// broadcast ships the cycle packet to every worker (Fig 3-3): one
// pooled packet shared read-only, one outstanding-work registration
// and one sent-counter update for the whole wave.
func (rt *Runtime) broadcast(changes []rete.Change) {
	if rt.rec != nil {
		rt.rec.Instant(rt.controlTrack(), "cycle-broadcast", rt.nowNS(),
			obs.Label{Key: "changes", Value: strconv.Itoa(len(changes))})
	}
	rt.cyclePkt.Changes = changes
	rt.counter.Add(len(rt.eps))
	rt.controlCounts().AddSent(len(rt.eps))
	// One broadcast send event covers the whole wave; every worker's
	// mailbox carries the same batch stamp, so each recv joins back to
	// this send.
	batch := rt.causal.NextBatch()
	if rt.ctlTrack != nil {
		rt.ctlTrack.Send(rt.nowNS(), rt.curCycle.Load(), batch, obs.BroadcastDst, int32(len(rt.eps)))
	}
	msg := Message{Kind: MsgCycle, Cycle: rt.cyclePkt}
	for _, ep := range rt.eps {
		ep.Push(msg, batch, int32(rt.opts.Workers))
	}
}

// routeRoots runs the constant tests once on the control goroutine and
// hash-routes each root activation to its owner (Fig 3-2), coalescing
// per destination so each worker's mailbox is locked at most once.
func (rt *Runtime) routeRoots(changes []rete.Change) {
	sent := 0
	for _, ch := range changes {
		rt.rootScratch = rt.rootProc.RootActivationsInto(ch, rt.rootScratch[:0])
		for _, act := range rt.rootScratch {
			b := rt.rootProc.Bucket(act)
			owner := rt.opts.Partition[b]
			rt.rootBufs[owner] = append(rt.rootBufs[owner], Message{Kind: MsgAct, Bucket: int32(b), Depth: 1, Act: act})
			sent++
		}
	}
	if rt.rec != nil {
		rt.rec.Instant(rt.controlTrack(), "cycle-route", rt.nowNS(),
			obs.Label{Key: "changes", Value: strconv.Itoa(len(changes))},
			obs.Label{Key: "roots", Value: strconv.Itoa(sent)})
	}
	if sent == 0 {
		return
	}
	rt.counter.Add(sent)
	rt.controlCounts().AddSent(sent)
	var ts int64
	if rt.ctlTrack != nil {
		ts = rt.nowNS()
	}
	for dst, buf := range rt.rootBufs {
		if len(buf) == 0 {
			continue
		}
		batch := rt.causal.NextBatch()
		rt.ctlTrack.Send(ts, rt.curCycle.Load(), batch, int32(dst), int32(len(buf)))
		rt.eps[dst].PushBatch(buf, batch, int32(rt.opts.Workers))
		rt.rootBufs[dst] = buf[:0]
	}
}

// endTurn folds worker w's finished turn into the runtime: conflict-set
// deltas, counters and bucket loads first, then the termination credit,
// so quiescence implies the control goroutine sees all of them.
func (rt *Runtime) endTurn(w int, t *Turn) {
	if len(t.Insts) > 0 {
		rt.instMu.Lock()
		rt.insts = append(rt.insts, t.Insts...)
		rt.instMu.Unlock()
		rt.instCount.Add(int64(len(t.Insts)))
	}
	if len(t.Loads) > 0 {
		rt.loadMu.Lock()
		if rt.balancer != nil {
			for _, l := range t.Loads {
				rt.balancer.Observe(int(l.Bucket), l.N)
			}
		}
		rt.loadMu.Unlock()
	}
	if t.Stats.Handles > 0 {
		rt.processed[w].Add(t.Stats.Handles)
	}
	if t.Stats.Sent > 0 {
		rt.msgsSent[w].Add(t.Stats.Sent)
	}
	if t.Stats.Shipped > 0 {
		rt.shipped.Add(t.Stats.Shipped)
		rt.shippedEntries.Add(t.Stats.Entries)
	}
	rt.counts[w].AddRecv(t.N)
	rt.counter.Add(-t.N)
}

// Stats snapshots per-worker counters.
func (rt *Runtime) Stats() Stats {
	s := Stats{
		Processed: make([]int64, len(rt.processed)),
		MsgsSent:  make([]int64, len(rt.msgsSent)),
		Insts:     rt.instCount.Load(),
	}
	for i := range rt.processed {
		s.Processed[i] = rt.processed[i].Load()
		s.MsgsSent[i] = rt.msgsSent[i].Load()
	}
	return s
}

// FlightDump snapshots the attached flight recorder: the last-N causal
// events per track plus the retained per-cycle aggregates. Nil when no
// recorder is attached. Only legal at quiescence — between cycles or
// after Close — which is when post-mortem analysis runs.
func (rt *Runtime) FlightDump() *obs.FlightDump {
	return rt.causal.Dump()
}

// Close stops the workers and releases the transport. The runtime
// cannot be reused. Any message a straggler flushes at a closed
// mailbox is dropped silently (Close is only legal on a quiescent
// runtime, so no dropped message carries live work).
func (rt *Runtime) Close() {
	if rt.closed {
		return
	}
	rt.closed = true
	for _, ep := range rt.eps {
		ep.Close()
	}
	for _, w := range rt.workers {
		w.done.Wait()
	}
	rt.transport.Close()
}

// loop is the worker goroutine: one match processor of the mapping. It
// consumes its mailbox one drained batch at a time — one lock
// acquisition per turn, however many messages arrived — and flushes
// coalesced outgoing messages at the end of each handled message.
func (w *worker) loop() {
	defer w.done.Done()
	rt := w.rt
	for {
		var ok bool
		var stamps []RecvStamp
		if w.chaos == nil {
			w.batch, stamps, ok = w.inbox.Drain(w.batch, w.stampBuf)
		} else {
			w.batch, stamps, ok = w.chaos.nextBatch(w)
		}
		if !ok {
			return
		}
		var t0 int64
		if rt.rec != nil || w.track != nil {
			t0 = rt.nowNS()
		}
		if w.track != nil {
			// Cache the turn's timestamp and cycle once: handle events
			// reuse them instead of reading the clock per activation.
			w.ts = t0
			w.cycle = rt.curCycle.Load()
			for _, s := range stamps {
				w.track.Recv(t0, w.cycle, s.Batch, s.Src, s.Count)
			}
		}
		w.stampBuf = stamps // donate the stamp buffer back next drain
		var kinds [numMsgKinds]int
		for i := range w.batch {
			kinds[w.batch[i].Kind]++
			w.Handle(&w.batch[i])
			w.flush(false)
		}
		// Force out anything a chaotic flush deferral held back; a
		// no-op on the plain path (per-message flushes left nothing).
		w.flush(true)
		if rt.rec != nil {
			rt.rec.Span(w.id, "batch", t0, rt.nowNS(), batchLabels(len(w.batch), &kinds)...)
		}
		w.EndTurn(&w.turn)
		w.turn.N = len(w.batch)
		rt.endTurn(w.id, &w.turn)
	}
}

// batchLabels annotates a drained-batch span with its total and
// per-kind message counts.
func batchLabels(n int, kinds *[numMsgKinds]int) []obs.Label {
	labels := make([]obs.Label, 0, 1+int(numMsgKinds))
	labels = append(labels, obs.Label{Key: "msgs", Value: strconv.Itoa(n)})
	names := [numMsgKinds]string{"cycles", "acts", "migrates-out", "migrates-in"}
	for k, c := range kinds {
		if c > 0 {
			labels = append(labels, obs.Label{Key: names[k], Value: strconv.Itoa(c)})
		}
	}
	return labels
}

// flush ships the core's out buffers: outstanding work and sent
// counters are accounted for the whole flush before any message
// becomes visible, then each destination mailbox is locked once.
// Under chaos a non-forced flush may be randomly deferred — the
// pending messages simply coalesce into a later flush of the same
// turn, which the end-of-turn forced call guarantees. Deferral is safe
// because the turn's batch stays registered with the termination
// detector until after the forced flush.
func (w *worker) flush(force bool) {
	if w.Pending == 0 {
		return
	}
	if !force && w.chaos != nil && w.chaos.deferFlush() {
		return
	}
	rt := w.rt
	rt.counter.Add(w.Pending)
	rt.counts[w.id].AddSent(w.Pending)
	total := w.Pending
	w.Pending = 0
	var ts int64
	if w.track != nil {
		ts = rt.nowNS()
	}
	for dst, buf := range w.Out {
		if len(buf) == 0 {
			continue
		}
		batch := rt.causal.NextBatch()
		w.track.Send(ts, w.cycle, batch, int32(dst), int32(len(buf)))
		rt.eps[dst].PushBatch(buf, batch, int32(w.id))
		w.Out[dst] = buf[:0]
	}
	w.track.Flush(ts, w.cycle, int32(total))
}

// netter nets raw deltas per instantiation key: within one match
// phase an instantiation may be added and deleted several times (e.g.
// through negative-node transients whose interleaving is
// order-dependent); only the net effect is meaningful, and netting
// makes the result independent of worker scheduling. The index map and
// accumulator slices are scratch reused across cycles; the returned
// slice is freshly allocated (callers may retain it).
type netter struct {
	idx  map[string]int
	accs []netAcc
	keys []string
}

type netAcc struct {
	net  int
	last rete.InstChange
}

func (n *netter) net(raw []rete.InstChange) []rete.InstChange {
	if len(raw) == 0 {
		return nil
	}
	if n.idx == nil {
		n.idx = make(map[string]int)
	} else {
		clear(n.idx)
	}
	n.accs = n.accs[:0]
	n.keys = n.keys[:0]
	for _, ic := range raw {
		k := ic.Key()
		i, ok := n.idx[k]
		if !ok {
			i = len(n.accs)
			n.idx[k] = i
			n.accs = append(n.accs, netAcc{})
			n.keys = append(n.keys, k)
		}
		a := &n.accs[i]
		if ic.Tag == rete.Add {
			a.net++
		} else {
			a.net--
		}
		a.last = ic
	}
	sort.Strings(n.keys)
	var out []rete.InstChange
	for _, k := range n.keys {
		a := &n.accs[n.idx[k]]
		switch {
		case a.net > 0:
			ic := a.last
			ic.Tag = rete.Add
			out = append(out, ic)
		case a.net < 0:
			ic := a.last
			ic.Tag = rete.Delete
			out = append(out, ic)
		}
	}
	return out
}
