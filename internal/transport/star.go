package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
)

// Star is the multi-process runtime's transport: the paper's control
// processor as the hub of a star topology, N worker processes (Serve)
// as its points. Pass it as parallel.Options.Transport; parallel.New
// then accepts and handshakes the workers (worker ids in accept order)
// and runs its one control loop over them.
//
// Endpoint i is the hub's connection to worker i: each push leaves as
// one ftBatch frame. A reader goroutine per connection forwards the
// worker's ftRelay frames to their destination (registering the
// relayed work through parallel.Hub.Relay first) and folds its ftTurn
// frames through parallel.Hub.EndTurn. A worker disconnect or a
// malformed frame fails the runtime's termination counter through
// EndpointOptions.OnError, so Cycle returns an error instead of
// hanging.
type Star struct {
	ln      net.Listener
	timeout time.Duration
	hub     *parallel.Hub
	net     *rete.Network

	conns   []*starConn
	closed  atomic.Bool
	readers sync.WaitGroup
}

// Listen starts a hub on addr ("127.0.0.1:0" for an ephemeral port).
// handshakeTimeout bounds how long Open waits for the workers to dial
// in and handshake.
func Listen(addr string, handshakeTimeout time.Duration) (*Star, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: control listen: %w", err)
	}
	return &Star{ln: ln, timeout: handshakeTimeout}, nil
}

// Addr returns the listener's address for worker processes to dial.
func (s *Star) Addr() string { return s.ln.Addr().String() }

// AttachHub implements parallel.RemoteTransport.
func (s *Star) AttachHub(h *parallel.Hub) { s.hub = h }

// CarriesMigration implements parallel.MigrationTransport: migration
// orders and bucket contents cross the wire in ftBatch and ftRelay.
func (*Star) CarriesMigration() {}

// Open implements parallel.Transport: it accepts and handshakes the
// workers, then starts the connection readers.
func (s *Star) Open(workers int, opts parallel.EndpointOptions) ([]parallel.Endpoint, error) {
	topo := s.hub.Topology()
	s.net = topo.Net
	deadline := time.Now().Add(s.timeout)
	if tl, ok := s.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	eps := make([]parallel.Endpoint, workers)
	for id := range eps {
		sc, err := s.accept(hello{id: id, Topology: topo}, deadline)
		if err != nil {
			for _, sc := range s.conns {
				sc.c.Close()
			}
			s.conns = nil
			return nil, err
		}
		sc.dropped, sc.onError = opts.Dropped, opts.OnError
		s.conns = append(s.conns, sc)
		eps[id] = sc
	}
	for _, sc := range s.conns {
		s.readers.Add(1)
		go s.readLoop(sc)
	}
	return eps, nil
}

// accept takes one worker connection and runs the hello/ready
// handshake with it.
func (s *Star) accept(h hello, deadline time.Time) (*starConn, error) {
	conn, err := s.ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accepting worker %d/%d: %w", h.id, h.Workers, err)
	}
	sc := &starConn{
		sender: sender{bw: bufio.NewWriterSize(conn, 1<<16)},
		id:     h.id,
		c:      conn,
		br:     bufio.NewReaderSize(conn, 1<<16),
	}
	payload, err := encodeHello(nil, h)
	if err == nil {
		err = sc.write(ftHello, payload)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: hello to worker %d: %w", h.id, err)
	}
	conn.SetReadDeadline(deadline)
	ft, rp, err := readFrame(sc.br, nil)
	if err == nil && ft != ftReady {
		err = fmt.Errorf("%w: expected ready, got %s", ErrBadPayload, ft)
	}
	if err == nil {
		d := dec{b: rp}
		if gotID, derr := d.int(); derr != nil || gotID != h.id {
			err = fmt.Errorf("%w: echoed id %d", ErrBadPayload, gotID)
		}
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: ready from worker %d: %w", h.id, err)
	}
	conn.SetReadDeadline(time.Time{})
	return sc, nil
}

// readLoop consumes one worker's frames: relays are forwarded to their
// destination connection, turns are folded into the runtime.
func (s *Star) readLoop(sc *starConn) {
	defer s.readers.Done()
	var fbuf, ebuf []byte
	var turn parallel.Turn
	for {
		ft, payload, err := readFrame(sc.br, fbuf)
		if err != nil {
			if !s.closed.Load() {
				sc.report(fmt.Errorf("transport: worker %d connection: %w", sc.id, err))
			}
			return
		}
		fbuf = payload[:0]
		switch ft {
		case ftRelay:
			d := dec{b: payload}
			dst, err := d.i32()
			if err != nil {
				sc.report(err)
				return
			}
			if dst < 0 || int(dst) >= len(s.conns) || int(dst) == sc.id {
				sc.report(fmt.Errorf("%w: worker %d relayed to %d", ErrBadPayload, sc.id, dst))
				return
			}
			// Forward the messages verbatim under a fresh stamp; the
			// destination worker decodes (and validates) them.
			msgs := d.b
			n, err := d.count(1 << 24)
			if err != nil {
				sc.report(err)
				return
			}
			batch := s.hub.Relay(sc.id, int(dst), n)
			e := enc{buf: ebuf[:0]}
			e.i32(batch)
			e.i32(int32(sc.id))
			ebuf = append(e.buf, msgs...)
			if err := s.conns[dst].write(ftBatch, ebuf); err != nil {
				sc.report(fmt.Errorf("transport: forwarding to worker %d: %w", dst, err))
				return
			}
		case ftTurn:
			if err := decodeTurn(s.net, payload, &turn); err != nil {
				sc.report(fmt.Errorf("transport: worker %d turn: %w", sc.id, err))
				return
			}
			s.hub.EndTurn(sc.id, &turn)
		default:
			sc.report(fmt.Errorf("%w: control got unexpected %s frame from worker %d", ErrBadPayload, ft, sc.id))
			return
		}
	}
}

// Close implements parallel.Transport: a shutdown frame to every
// worker, then the connections and listener. Safe to call more than
// once.
func (s *Star) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, sc := range s.conns {
		sc.write(ftShutdown, nil)
	}
	// Give readers their EOF: workers close their end on shutdown; the
	// read deadline unblocks any reader whose worker won't.
	for _, sc := range s.conns {
		sc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	}
	s.readers.Wait()
	for _, sc := range s.conns {
		sc.c.Close()
	}
	return s.ln.Close()
}

// starConn is one worker's connection and the hub's endpoint for it.
// Its reader goroutine is the single consumer of the worker's frames;
// writers (the control loop's pushes and other readers' relay
// forwarding) serialize on the sender's mutex.
type starConn struct {
	sender
	id int
	c  net.Conn
	br *bufio.Reader
}

// Drain and TryDrain report a closed, empty inbox: the worker process
// drains it on the far side of the connection.
func (sc *starConn) Drain(buf []parallel.Message, sbuf []parallel.RecvStamp) ([]parallel.Message, []parallel.RecvStamp, bool) {
	return buf[:0], sbuf, false
}

func (sc *starConn) TryDrain(buf []parallel.Message, sbuf []parallel.RecvStamp) ([]parallel.Message, []parallel.RecvStamp, bool) {
	return buf[:0], sbuf, false
}

// Close stops accepting pushes; later ones are dropped and counted.
func (sc *starConn) Close() { sc.close() }
