package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"time"

	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// The worker half of the multi-process star topology: one match
// process hosting a parallel.Core. It dials the hub, receives the
// compiled network and its topology in the hello handshake, and then
// treats each incoming ftBatch frame as one turn: the core handles the
// frame's messages, each destination's out buffer leaves as one ftRelay
// frame, and a closing ftTurn frame carries the core's turn report.
//
// Frame order is the termination-detection argument: relays precede
// the turn frame on the same TCP stream, so the hub registers relayed
// work (Hub.Relay) before it deregisters the turn's handled messages
// (Hub.EndTurn) — the Add-before-visible / Done-after-processed
// discipline the goroutine worker keeps with function-call ordering.

// protoVersion is the handshake protocol version; a mismatch aborts
// the handshake rather than mis-decoding frames. Version 3 carries
// parallel.Message batches both ways (ftBatch, ftRelay) and the
// parallel.Turn report in ftTurn.
const protoVersion = 3

// hello is the decoded handshake: the worker's id and the topology its
// core is built for.
type hello struct {
	id int
	parallel.Topology
}

func encodeHello(buf []byte, h hello) ([]byte, error) {
	e := enc{buf: buf}
	e.u64(protoVersion)
	e.int(h.id)
	e.int(h.Workers)
	e.int(h.NBuckets)
	e.bool(h.TrackLoads)
	e.count(len(h.Partition))
	for _, owner := range h.Partition {
		e.int(owner)
	}
	var nb bytes.Buffer
	if err := rete.EncodeNetwork(&nb, h.Net); err != nil {
		return nil, fmt.Errorf("transport: encoding network for handshake: %w", err)
	}
	e.count(nb.Len())
	e.buf = append(e.buf, nb.Bytes()...)
	return e.buf, nil
}

func decodeHello(payload []byte) (hello, error) {
	var h hello
	d := dec{b: payload}
	ver, err := d.u64()
	if err != nil {
		return h, err
	}
	if ver != protoVersion {
		return h, fmt.Errorf("%w: protocol version %d, want %d", ErrBadPayload, ver, protoVersion)
	}
	if h.id, err = d.int(); err != nil {
		return h, err
	}
	if h.Workers, err = d.int(); err != nil {
		return h, err
	}
	if h.NBuckets, err = d.int(); err != nil {
		return h, err
	}
	if h.TrackLoads, err = d.bool(); err != nil {
		return h, err
	}
	if h.id < 0 || h.Workers < 1 || h.id >= h.Workers || h.NBuckets < 1 {
		return h, fmt.Errorf("%w: topology id=%d workers=%d nbuckets=%d", ErrBadPayload, h.id, h.Workers, h.NBuckets)
	}
	if h.Partition, err = d.partition(); err != nil {
		return h, err
	}
	if err := h.checkPartition(h.Partition); err != nil {
		return h, err
	}
	nb, err := d.count(1 << 26)
	if err != nil {
		return h, err
	}
	if len(d.b) < nb {
		return h, d.fail("network bytes")
	}
	if h.Net, err = rete.DecodeNetwork(bytes.NewReader(d.b[:nb])); err != nil {
		return h, fmt.Errorf("%w: decoding network: %v", ErrBadPayload, err)
	}
	return h, nil
}

// checkPartition rejects a partition from the wire that does not cover
// the bucket space with valid worker ids.
func (h *hello) checkPartition(p sched.Partition) error {
	if len(p) != h.NBuckets {
		return fmt.Errorf("%w: partition covers %d buckets, want %d", ErrBadPayload, len(p), h.NBuckets)
	}
	if err := p.Validate(h.Workers); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return nil
}

// check rejects a message from the wire that would index outside the
// topology.
func (h *hello) check(m *parallel.Message) error {
	switch m.Kind {
	case parallel.MsgAct:
		if m.Bucket < 0 || int(m.Bucket) >= h.NBuckets {
			return fmt.Errorf("%w: activation bucket %d of %d", ErrBadPayload, m.Bucket, h.NBuckets)
		}
	case parallel.MsgMigrateOut:
		return h.checkPartition(m.Partition)
	}
	return nil
}

// Serve dials the hub address, retrying until the timeout (worker
// processes typically race the hub's Listen), and runs the worker
// protocol until shutdown (nil) or a fatal error.
func Serve(addr string, dialTimeout time.Duration) error {
	deadline := time.Now().Add(dialTimeout)
	var conn net.Conn
	var err error
	for {
		conn, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: dialing control at %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return ServeConn(conn)
}

// ServeConn runs the worker protocol on an established hub connection.
// It returns nil on a clean shutdown frame.
func ServeConn(conn net.Conn) error {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	ft, payload, err := readFrame(br, nil)
	if err != nil {
		return fmt.Errorf("transport: worker handshake: %w", err)
	}
	if ft != ftHello {
		return fmt.Errorf("%w: worker expected hello, got %s", ErrBadPayload, ft)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return fmt.Errorf("transport: worker handshake: %w", err)
	}
	core := parallel.NewCore(h.Topology, h.id)

	var ready enc
	ready.int(h.id)
	if err := writeFrame(bw, ftReady, ready.buf); err != nil {
		return fmt.Errorf("transport: worker ready: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("transport: worker ready: %w", err)
	}

	var fbuf, ebuf []byte
	var ms []parallel.Message
	var turn parallel.Turn
	for {
		ft, payload, err := readFrame(br, fbuf)
		if err != nil {
			return fmt.Errorf("transport: worker %d read: %w", h.id, err)
		}
		fbuf = payload[:0]
		switch ft {
		case ftShutdown:
			return nil
		case ftBatch:
		default:
			return fmt.Errorf("%w: worker got unexpected %s frame", ErrBadPayload, ft)
		}
		var batch, src int32
		if ms, batch, src, err = decodeBatch(h.Net, payload, ms); err != nil {
			return fmt.Errorf("transport: worker %d: %w", h.id, err)
		}
		for i := range ms {
			if err := h.check(&ms[i]); err != nil {
				return fmt.Errorf("transport: worker %d: %w", h.id, err)
			}
			core.Handle(&ms[i])
		}
		var flushes int64
		if core.Pending > 0 {
			flushes = 1
			for dst, buf := range core.Out {
				if len(buf) == 0 {
					continue
				}
				e := enc{buf: ebuf[:0]}
				e.i32(int32(dst))
				if ebuf, err = appendMsgs(e.buf, buf); err != nil {
					return err
				}
				if err := writeFrame(bw, ftRelay, ebuf); err != nil {
					return fmt.Errorf("transport: worker %d write: %w", h.id, err)
				}
				core.Out[dst] = buf[:0]
			}
			core.Pending = 0
		}
		core.EndTurn(&turn)
		turn.N = len(ms)
		turn.Stamp = parallel.RecvStamp{Batch: batch, Src: src, Count: int32(len(ms))}
		turn.Stats.Flushes = flushes
		ebuf = appendTurn(ebuf[:0], &turn)
		if err := writeFrame(bw, ftTurn, ebuf); err != nil {
			return fmt.Errorf("transport: worker %d write: %w", h.id, err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("transport: worker %d write: %w", h.id, err)
		}
	}
}
