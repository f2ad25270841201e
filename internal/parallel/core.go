package parallel

import (
	"mpcrete/internal/obs"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// Topology is what a worker core knows of the machine: the compiled
// network, the worker count, the bucket space with its current
// partition, and whether to count per-bucket loads for the rebalancer.
type Topology struct {
	Net        *rete.Network
	Workers    int
	NBuckets   int
	Partition  sched.Partition
	TrackLoads bool
}

// Core is one match processor of the mapping: the Rete processor for
// the buckets a worker owns, its view of the partition, the
// breadth-first local queue, per-destination out buffers, the
// instantiation buffer, the dirty bucket loads and the turn aggregate.
// Two hosts run it: the goroutine worker (worker.loop) and the worker
// process of the multi-process runtime (internal/transport). A host
// feeds it messages with Handle, ships Out, and closes each turn with
// EndTurn.
type Core struct {
	id   int
	proc *rete.Processor
	part sched.Partition

	// localQ is the FIFO of locally-owned activations, drained
	// breadth-first (see drainLocal).
	localQ      []localAct
	rootScratch []rete.Activation

	// Out buffers outgoing messages per destination worker and Pending
	// counts them; the host ships each buffer and truncates it.
	Out     [][]Message
	Pending int

	insts []rete.InstChange
	stats TurnStats
	// loads counts the turn's activations per bucket, one entry per
	// bucket touched, and loadIdx maps a bucket to 1 + its entry's
	// index (0: untouched). Both are sized once for the bucket space
	// (nil unless the topology tracks loads), so counting never
	// allocates and EndTurn never scans the whole bucket space.
	loads   []BucketLoad
	loadIdx []int32

	// track receives the causal handle events, stamped with ts and
	// cycle, which the host caches once per turn (nil when no flight
	// recorder is attached or the core runs in another process).
	track *obs.TrackRecorder
	ts    int64
	cycle int32
}

// localAct is one queued unit of locally-owned match work: an
// activation, its hash bucket, and its dependency depth within the
// current cycle.
type localAct struct {
	act    rete.Activation
	bucket int32
	depth  int32
}

// TurnStats counts one turn's work on a core.
type TurnStats struct {
	Handles int64 // node activations performed
	Sent    int64 // activations sent to other workers
	Shipped int64 // migrated buckets sent to their new owners
	Entries int64 // memory entries those buckets held
	// Flushes counts coalesced flushes; the host that ships Out sets it.
	Flushes  int64
	MaxDepth int32 // deepest activation in the cycle's dependency chain
}

// Turn is a core's report at the end of a turn. The host fills N and
// Stamp; EndTurn fills the rest, with slices that alias the core's
// buffers and stay valid until its next Handle.
type Turn struct {
	N     int       // messages handled, deregistered from termination detection
	Stamp RecvStamp // provenance of those messages (remote hosts report it)
	Stats TurnStats
	Insts []rete.InstChange
	Loads []BucketLoad
}

// BucketLoad is one bucket's activation count within a turn.
type BucketLoad struct {
	Bucket int32
	N      int64
}

// NewCore builds worker id's core for the topology.
func NewCore(t Topology, id int) *Core {
	c := &Core{
		id:   id,
		proc: rete.NewProcessor(t.Net, t.NBuckets),
		part: t.Partition,
		Out:  make([][]Message, t.Workers),
	}
	if t.TrackLoads {
		c.loads = make([]BucketLoad, 0, t.NBuckets)
		c.loadIdx = make([]int32, t.NBuckets)
	}
	return c
}

// Handle performs one message: a cycle's changes, a routed activation,
// a migration order, or a migrated bucket.
func (c *Core) Handle(m *Message) {
	switch m.Kind {
	case MsgCycle:
		// Constant tests run on every worker (duplicated work, the
		// coarse granularity of Section 3.2); only locally-owned roots
		// are processed. Every root of the message is enqueued before
		// any is expanded so storage precedes discovery (see drainLocal).
		for _, ch := range m.Cycle.Changes {
			c.rootScratch = c.proc.RootActivationsInto(ch, c.rootScratch[:0])
			for _, act := range c.rootScratch {
				if b := c.proc.Bucket(act); c.part[b] == c.id {
					c.localQ = append(c.localQ, localAct{act: act, bucket: int32(b), depth: 1})
				}
			}
		}
		c.drainLocal()
	case MsgAct:
		c.localQ = append(c.localQ, localAct{act: m.Act, bucket: m.Bucket, depth: m.Depth})
		c.drainLocal()
	case MsgMigrateOut:
		// Switch routing to the new partition, then extract every
		// bucket this core loses (ascending, for reproducible message
		// counts) and ship its contents to the new owner.
		old := c.part
		c.part = m.Partition
		for b, owner := range m.Partition {
			if old[b] != c.id || owner == c.id {
				continue
			}
			bc := c.proc.ExtractBucket(b)
			if bc.Entries() == 0 {
				continue // nothing stored; ownership transfer is free
			}
			c.stats.Shipped++
			c.stats.Entries += int64(bc.Entries())
			c.send(owner, Message{Kind: MsgMigrateIn, Inject: bc})
		}
	case MsgMigrateIn:
		c.proc.InjectBucket(m.Inject)
	}
}

// EndTurn hands the turn's conflict-set deltas, counters and bucket
// loads to t and resets them on the core.
func (c *Core) EndTurn(t *Turn) {
	t.Insts, c.insts = c.insts, c.insts[:0]
	t.Stats, c.stats = c.stats, TurnStats{}
	for _, l := range c.loads {
		c.loadIdx[l.Bucket] = 0
	}
	t.Loads, c.loads = c.loads, c.loads[:0]
}

func (c *Core) send(dst int, m Message) {
	c.Out[dst] = append(c.Out[dst], m)
	c.Pending++
}

// drainLocal performs queued activations in FIFO order, appending
// locally-owned successors to the same queue. Breadth-first order
// matches the sequential matcher's queue discipline, which keeps the
// measured depth attribution of join discovery comparable to the
// recorded trace: a depth-first expansion could walk a chain into a
// join node before the sibling roots feeding the join's other side
// have been stored, so the join would later fire from the shallow
// side and the measured activation forest would flatten.
func (c *Core) drainLocal() {
	for qi := 0; qi < len(c.localQ); qi++ {
		la := c.localQ[qi]
		c.processOne(la.act, int(la.bucket), la.depth)
	}
	c.localQ = c.localQ[:0]
}

// processOne performs a single activation, routing successors to the
// workers owning their buckets: locally-owned ones join localQ, remote
// ones coalesce in Out. bucket is the activation's hash bucket, already
// computed by whoever routed it here; depth is its position in the
// cycle's dependency chain (roots are 1), carried so the flight
// recorder can measure the cycle's critical path.
//
// Production-node activations become instantiation deltas, not handle
// events, and contribute neither depth nor fan-out — mirroring the
// sequential matcher, whose trace listener records Instantiation, not
// Activation, for them. The measured per-cycle MaxDepth therefore
// walks the same activation forest as analysis.CriticalPath.
func (c *Core) processOne(act rete.Activation, bucket int, depth int32) {
	if act.Node.Kind == rete.KindProduction {
		// A root activation of a single-CE production.
		c.insts = append(c.insts, c.proc.BuildInst(act))
		return
	}
	c.stats.Handles++
	if depth > c.stats.MaxDepth {
		c.stats.MaxDepth = depth
	}
	if c.loadIdx != nil {
		if i := c.loadIdx[bucket]; i > 0 {
			c.loads[i-1].N++
		} else {
			c.loads = append(c.loads, BucketLoad{Bucket: int32(bucket), N: 1})
			c.loadIdx[bucket] = int32(len(c.loads))
		}
	}

	fanout := int32(0)
	c.proc.ProcessAt(act, bucket,
		func(child rete.Activation) {
			if child.Node.Kind == rete.KindProduction {
				c.insts = append(c.insts, c.proc.BuildInst(child))
				return
			}
			fanout++
			b := c.proc.Bucket(child)
			owner := c.part[b]
			if owner == c.id {
				c.localQ = append(c.localQ, localAct{act: child, bucket: int32(b), depth: depth + 1})
				return
			}
			c.stats.Sent++
			c.send(owner, Message{Kind: MsgAct, Bucket: int32(b), Depth: depth + 1, Act: child})
		},
		func(rete.InstChange) {
			panic("parallel: unexpected instantiation emission")
		})
	c.track.Handle(c.ts, c.cycle, int32(bucket), depth, fanout)
}
