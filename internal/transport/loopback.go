package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
)

// Loopback is a parallel.Transport that carries every mailbox message
// over a real localhost TCP connection: each endpoint owns a
// writer/reader connection pair through one 127.0.0.1 listener, with
// every Push serialized into an ftBatch frame and a per-endpoint
// reader goroutine decoding frames into an in-process receive buffer
// (parallel.NewEndpoint) the worker drains as usual.
//
// Sends are encoded synchronously under the endpoint's write mutex, so
// the transport honors the capture contract (the runtime may reuse the
// cycle packet the moment Push returns) and preserves per-sender FIFO
// order (TCP keeps frame order; the mutex keeps frames whole). The
// receive buffer is unbounded, so socket backpressure can never
// deadlock two workers exchanging cross-product bursts: the reader
// goroutine always drains the socket.
//
// Loopback implements parallel.MigrationTransport: the batch codec
// serializes migration messages (bucket moves and extracted bucket
// contents) like any other kind, so Repartition and the online
// rebalancer work over it — the receiver injects fresh value copies,
// which is safe because memory removal matches by value.
//
// The point of Loopback is validation, not deployment: it runs the
// exact wire codec and framing of the multi-process runtime inside one
// process, where the difftest oracle can hold it against the
// sequential engine and the in-process transport, cycle by cycle.
type Loopback struct {
	net *rete.Network

	mu  sync.Mutex
	lns []net.Listener
	eps []*loopEndpoint
}

// NewLoopback creates a loopback TCP transport decoding against the
// given compiled network (the decoder resolves node ids and production
// names into it).
func NewLoopback(network *rete.Network) *Loopback {
	return &Loopback{net: network}
}

// CarriesMigration implements parallel.MigrationTransport: the wire
// codec serializes the migration protocol by value.
func (*Loopback) CarriesMigration() {}

// Open implements parallel.Transport.
func (l *Loopback) Open(workers int, opts parallel.EndpointOptions) ([]parallel.Endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: loopback listen: %w", err)
	}
	l.mu.Lock()
	l.lns = append(l.lns, ln)
	l.mu.Unlock()

	eps := make([]parallel.Endpoint, workers)
	for i := 0; i < workers; i++ {
		// Sequential dial-then-accept pairs the connections
		// deterministically.
		wc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("transport: loopback dial: %w", err)
		}
		rc, err := ln.Accept()
		if err != nil {
			wc.Close()
			l.Close()
			return nil, fmt.Errorf("transport: loopback accept: %w", err)
		}
		ep := &loopEndpoint{
			sender: sender{bw: bufio.NewWriter(wc), dropped: opts.Dropped, onError: opts.OnError},
			net:    l.net,
			wconn:  wc,
			rconn:  rc,
			inner:  parallel.NewEndpoint(opts),
		}
		go ep.readLoop()
		l.mu.Lock()
		l.eps = append(l.eps, ep)
		l.mu.Unlock()
		eps[i] = ep
	}
	return eps, nil
}

// Close implements parallel.Transport: it tears down the listener and
// any connections still open.
func (l *Loopback) Close() error {
	l.mu.Lock()
	lns, eps := l.lns, l.eps
	l.lns, l.eps = nil, nil
	l.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// loopEndpoint is one worker's inbox: writers frame messages onto
// wconn; the reader goroutine decodes rconn into inner.
type loopEndpoint struct {
	sender
	net   *rete.Network
	inner parallel.Endpoint
	rconn net.Conn
	wconn net.Conn
}

func (ep *loopEndpoint) readLoop() {
	// Deliver everything the socket holds into the unbounded inner
	// buffer; on clean EOF (writer side closed) close the inner
	// endpoint so the draining worker sees closed-and-empty.
	var fbuf []byte
	var ms []parallel.Message
	for {
		ft, payload, err := readFrame(ep.rconn, fbuf)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !ep.isClosed() {
				ep.report(fmt.Errorf("transport: loopback recv: %w", err))
			}
			ep.inner.Close()
			ep.rconn.Close()
			return
		}
		fbuf = payload[:0]
		if ft != ftBatch {
			ep.report(fmt.Errorf("%w: unexpected %s frame on loopback", ErrBadPayload, ft))
			ep.inner.Close()
			ep.rconn.Close()
			return
		}
		var batch, src int32
		ms, batch, src, err = decodeBatch(ep.net, payload, ms)
		if err != nil {
			ep.report(fmt.Errorf("transport: loopback decode: %w", err))
			ep.inner.Close()
			ep.rconn.Close()
			return
		}
		ep.inner.PushBatch(ms, batch, src)
	}
}

func (ep *loopEndpoint) Drain(buf []parallel.Message, sbuf []parallel.RecvStamp) ([]parallel.Message, []parallel.RecvStamp, bool) {
	return ep.inner.Drain(buf, sbuf)
}

func (ep *loopEndpoint) TryDrain(buf []parallel.Message, sbuf []parallel.RecvStamp) ([]parallel.Message, []parallel.RecvStamp, bool) {
	return ep.inner.TryDrain(buf, sbuf)
}

// Close stops accepting sends and closes the write side; frames
// already on the wire are still decoded and delivered before the
// reader closes the inner endpoint (TCP delivers buffered data ahead
// of the FIN), matching the mailbox's pending-after-close semantics.
func (ep *loopEndpoint) Close() {
	if ep.close() {
		ep.wconn.Close()
	}
}
