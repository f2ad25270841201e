// Package transport carries the parallel runtime's message plane over
// TCP: length-prefixed frames with coalesced per-batch payloads, the
// wire realization of the paper's message-passing machine. It provides
// two parallel.Transports:
//
//   - Loopback ships every mailbox message through a real localhost TCP
//     connection pair per worker, used to validate the wire codec and
//     framing against the in-process reference (difftest plugs it into
//     the differential oracle).
//   - Star is the multi-process runtime's transport: a star topology
//     with parallel.Runtime as the hub and N worker processes (Serve,
//     cmd/ops5worker) as the points, each hosting a parallel.Core. The
//     hub relays worker-to-worker messages and keeps exact
//     termination-detection accounting across the wire (see star.go).
//
// The frame format is the QCDSP-style minimum: a 4-byte big-endian
// length, a 1-byte frame type, and a varint-encoded payload. The
// length covers the type byte, so a frame occupies 4+length bytes on
// the wire and a reader can skip unknown payloads without decoding
// them.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"mpcrete/internal/obs"
	"mpcrete/internal/parallel"
)

// MaxFrame bounds a frame's length field (type byte + payload). A
// cycle's coalesced changes and a worker's relayed activation batches
// stay far below this; anything larger is a corrupt or hostile stream.
const MaxFrame = 16 << 20

// frameType tags a frame's payload.
type frameType uint8

const (
	// ftHello is the control→worker handshake: protocol version,
	// topology (worker id, worker count, nbuckets, partition, flags),
	// and the compiled network (rete.EncodeNetwork bytes).
	ftHello frameType = iota + 1
	// ftReady is the worker→control handshake reply.
	ftReady
	// ftBatch is one pushed message batch with its causal stamp
	// (batch, src): the Loopback transport's unit, and the hub's
	// delivery to a worker process.
	ftBatch
	// ftRelay is a worker→hub batch of messages destined for another
	// worker; the hub forwards it as ftBatch.
	ftRelay
	// ftTurn ends a worker process's turn with its parallel.Turn
	// report: how many messages it handled, their recv stamp, the turn
	// aggregate, the conflict-set deltas and the per-bucket loads.
	ftTurn
	// ftShutdown asks a worker to exit cleanly.
	ftShutdown

	maxFrameType = ftShutdown
)

var frameTypeNames = [...]string{
	ftHello: "hello", ftReady: "ready", ftBatch: "batch",
	ftRelay: "relay", ftTurn: "turn", ftShutdown: "shutdown",
}

func (t frameType) String() string {
	if int(t) < len(frameTypeNames) && frameTypeNames[t] != "" {
		return frameTypeNames[t]
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Typed frame errors. Fault tests assert on these with errors.Is; the
// runtime surfaces them through EndpointOptions.OnError as an error
// from parallel.Runtime.Cycle rather than hanging.
var (
	// ErrFrameTooLarge reports a length field exceeding MaxFrame (or a
	// payload too large to encode).
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrTruncated reports a stream that ended mid-frame.
	ErrTruncated = errors.New("transport: truncated frame")
	// ErrUnknownFrameType reports an unrecognized frame type byte.
	ErrUnknownFrameType = errors.New("transport: unknown frame type")
	// ErrBadPayload reports a payload that fails to decode.
	ErrBadPayload = errors.New("transport: malformed payload")
)

// writeFrame writes one frame. The caller serializes concurrent writers
// (per-connection write mutexes in loopback.go / star.go).
func writeFrame(w io.Writer, ft frameType, payload []byte) error {
	n := 1 + len(payload)
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = byte(ft)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// sender frames pushed message batches onto one connection: the
// Endpoint push half shared by Loopback and Star. It encodes each
// batch synchronously under its mutex (the capture contract), drops
// and counts pushes after close, and reports a failed send through
// onError, since an accepted message is then lost.
type sender struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	ebuf    []byte
	closed  bool
	dropped *obs.Counter
	onError func(error)
}

func (s *sender) Push(m parallel.Message, batch, src int32) {
	one := [1]parallel.Message{m}
	s.PushBatch(one[:], batch, src)
}

func (s *sender) PushBatch(ms []parallel.Message, batch, src int32) {
	if len(ms) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.dropped.Add(int64(len(ms)))
		return
	}
	buf, err := appendBatch(s.ebuf[:0], ms, batch, src)
	if err == nil {
		s.ebuf = buf[:0] // keep the grown capacity
		err = s.writeLocked(ftBatch, buf)
	}
	if err != nil {
		s.report(fmt.Errorf("transport: send: %w", err))
	}
}

// write frames and flushes one payload, closed or not.
func (s *sender) write(ft frameType, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeLocked(ft, payload)
}

func (s *sender) writeLocked(ft frameType, payload []byte) error {
	if err := writeFrame(s.bw, ft, payload); err != nil {
		return err
	}
	return s.bw.Flush()
}

// close stops accepting pushes and reports whether it was open.
func (s *sender) close() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	was := !s.closed
	s.closed = true
	return was
}

func (s *sender) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// report passes a lost-message error to the runtime; onError must
// tolerate concurrent calls.
func (s *sender) report(err error) {
	if s.onError != nil {
		s.onError(err)
	}
}

// readFrame reads one frame, reusing buf for the payload when it fits.
// A clean EOF before any header byte returns io.EOF; an EOF anywhere
// inside a frame returns ErrTruncated. An oversized length field or an
// unknown type byte returns the matching typed error without consuming
// the payload.
func readFrame(r io.Reader, buf []byte) (frameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading length: %v", ErrTruncated, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 {
		return 0, nil, fmt.Errorf("%w: zero-length frame", ErrBadPayload)
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: length field %d", ErrFrameTooLarge, n)
	}
	var tb [1]byte
	if _, err := io.ReadFull(r, tb[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: reading type: %v", ErrTruncated, err)
	}
	ft := frameType(tb[0])
	if ft < ftHello || ft > maxFrameType {
		return 0, nil, fmt.Errorf("%w: %d", ErrUnknownFrameType, tb[0])
	}
	plen := int(n) - 1
	if cap(buf) < plen {
		buf = make([]byte, plen)
	}
	buf = buf[:plen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: reading %s payload (%d bytes): %v", ErrTruncated, ft, plen, err)
	}
	return ft, buf, nil
}
