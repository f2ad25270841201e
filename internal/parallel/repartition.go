package parallel

import (
	"fmt"

	"mpcrete/internal/sched"
)

// MigrationStats reports the cost of one migration — the quantity the
// paper declined to pay ("moving hash-buckets around to change the
// token distribution is too costly", Section 5.2.2). The runtime
// implements migration so the cost can be measured instead of assumed.
type MigrationStats struct {
	// BucketsMoved is the number of bucket pairs that changed owner.
	BucketsMoved int
	// EntriesMoved is the number of stored tokens (left + right)
	// shipped between workers.
	EntriesMoved int
	// Messages is the number of migration messages exchanged.
	Messages int
}

// Repartition changes the bucket-to-worker assignment of a quiescent
// runtime, migrating stored tokens to their new owners, and returns
// the measured cost. It must be called between cycles. The same
// machinery runs automatically at cycle boundaries when
// Options.Rebalance or Options.ForceMigrate is set.
func (rt *Runtime) Repartition(newPart sched.Partition) (MigrationStats, error) {
	if rt.closed {
		return MigrationStats{}, fmt.Errorf("parallel: Repartition after Close")
	}
	return rt.migrate(newPart)
}

// migrate executes a bucket migration on the quiescent runtime: every
// worker gets the new partition, switches its routing to it, and ships
// the buckets it loses to their new owners; the work counter provides
// the barrier. The control goroutine's routing switches when
// rt.opts.Partition is replaced at the end.
func (rt *Runtime) migrate(newPart sched.Partition) (MigrationStats, error) {
	if !rt.canMigrate {
		// Migration messages carry *rete.BucketContents; they travel by
		// pointer on a RefTransport and serialized on a
		// MigrationTransport. Anything else cannot deliver them.
		return MigrationStats{}, fmt.Errorf("parallel: migration requires a transport that carries the migration protocol (RefTransport or MigrationTransport)")
	}
	if len(newPart) != rt.opts.NBuckets {
		return MigrationStats{}, fmt.Errorf("parallel: partition covers %d buckets, want %d", len(newPart), rt.opts.NBuckets)
	}
	if err := newPart.Validate(rt.opts.Workers); err != nil {
		return MigrationStats{}, err
	}
	var stats MigrationStats
	for b, owner := range newPart {
		if rt.opts.Partition[b] != owner {
			stats.BucketsMoved++
		}
	}
	if stats.BucketsMoved == 0 {
		rt.opts.Partition = newPart
		return stats, nil
	}

	shipped, entries := rt.shipped.Load(), rt.shippedEntries.Load()
	rt.counter.Add(len(rt.eps))
	rt.controlCounts().AddSent(len(rt.eps))
	msg := Message{Kind: MsgMigrateOut, Partition: newPart}
	for w, ep := range rt.eps {
		batch := rt.causal.NextBatch()
		if rt.ctlTrack != nil {
			rt.ctlTrack.Send(rt.nowNS(), rt.curCycle.Load(), batch, int32(w), 1)
		}
		ep.Push(msg, batch, int32(rt.opts.Workers))
	}
	if _, err := rt.quiesce(); err != nil {
		return MigrationStats{}, err
	}
	stats.Messages = int(rt.shipped.Load() - shipped)
	stats.EntriesMoved = int(rt.shippedEntries.Load() - entries)
	rt.opts.Partition = newPart
	return stats, nil
}
