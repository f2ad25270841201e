package transport

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// startStar starts a Star hub, launches opts.Workers worker protocol
// loops against it (each on its own real TCP connection, as separate
// processes would), and builds the runtime over them. The channel
// yields each worker's exit error.
func startStar(t *testing.T, net *rete.Network, opts parallel.Options) (*parallel.Runtime, chan error) {
	t.Helper()
	star, err := Listen("127.0.0.1:0", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go func() {
			errs <- Serve(star.Addr(), 5*time.Second)
		}()
	}
	opts.Transport = star
	rt, err := parallel.New(net, opts)
	if err != nil {
		star.Close()
		t.Fatal(err)
	}
	return rt, errs
}

// closeStar closes the runtime and requires every worker to exit
// cleanly on the hub's shutdown frame.
func closeStar(t *testing.T, rt *parallel.Runtime, werrs chan error, workers int) {
	t.Helper()
	rt.Close()
	for i := 0; i < workers; i++ {
		select {
		case err := <-werrs:
			if err != nil {
				t.Fatalf("worker exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit")
		}
	}
}

// TestControlParity holds the multi-process star topology against the
// in-process runtime: same network, same changes, identical netted
// conflict sets across add and delete cycles, in both broadcast and
// routed-roots modes, with stamp accounting verified at quiescence.
func TestControlParity(t *testing.T) {
	for _, wl := range []string{"blocks", "rubik-like"} {
		for _, routed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/routed=%v", wl, routed), func(t *testing.T) {
				const workers = 4
				net, changes := compileWorkload(t, wl)
				ref, err := parallel.New(net, parallel.Options{Workers: workers, RouteRoots: routed})
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()

				ctl, werrs := startStar(t, net, parallel.Options{
					Workers:    workers,
					RouteRoots: routed,
					Causal:     parallel.NewFlightRecorder(workers, 0, 0, rete.DefaultNBuckets),
				})
				defer ctl.Close()

				want := instKeys(ref.Apply(changes))
				got, err := ctl.Cycle(changes)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatalf("workload %s produced no instantiations; vacuous test", wl)
				}
				if fmt.Sprint(instKeys(got)) != fmt.Sprint(want) {
					t.Fatalf("conflict sets diverge\n ctl: %v\n ref: %v", instKeys(got), want)
				}

				del := []rete.Change{{Tag: rete.Delete, WME: changes[0].WME}}
				want = instKeys(ref.Apply(del))
				got, err = ctl.Cycle(del)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(instKeys(got)) != fmt.Sprint(want) {
					t.Fatalf("deletion cycle diverges\n ctl: %v\n ref: %v", instKeys(got), want)
				}

				// Flight accounting: every message sent across the wire
				// was received, per the cycle aggregates.
				dump := ctl.FlightDump()
				if len(dump.Cycles) != 2 {
					t.Fatalf("got %d cycle records, want 2", len(dump.Cycles))
				}
				for i, cy := range dump.Cycles {
					tot := cy.Total()
					if tot.Sends != tot.Recvs {
						t.Fatalf("cycle %d: sends=%d recvs=%d; want equal", i, tot.Sends, tot.Recvs)
					}
					if i == 0 && tot.Sends == 0 {
						t.Fatal("first cycle recorded no sends")
					}
				}

				stats := ctl.Stats()
				var processed int64
				for _, p := range stats.Processed {
					processed += p
				}
				if processed == 0 {
					t.Fatal("no worker-side activations reported through turn aggregates")
				}

				closeStar(t, ctl, werrs, workers)
			})
		}
	}
}

// TestControlWorkerDisconnect kills one worker at three points — between
// cycles, after reading its cycle batch but before its turn frame, and
// after reading a migration order — and checks Cycle surfaces a
// runtime error instead of hanging on the termination counter, the
// error stays set, and Close still returns.
func TestControlWorkerDisconnect(t *testing.T) {
	cases := []struct {
		name    string
		migrate bool
		// dies reports whether the fake worker drops its link on
		// receiving ms; it acknowledges every other batch with an empty
		// turn. A nil dies drops the link right after the handshake.
		dies func(ms []parallel.Message) bool
	}{
		{name: "between-cycles"},
		{name: "mid-cycle", dies: func([]parallel.Message) bool { return true }},
		{name: "mid-migration", migrate: true, dies: func(ms []parallel.Message) bool {
			for _, m := range ms {
				if m.Kind == parallel.MsgMigrateOut {
					return true
				}
			}
			return false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const workers = 2
			netw, changes := compileWorkload(t, "blocks")
			star, err := Listen("127.0.0.1:0", 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer star.Close()

			// One real worker, one fake that handshakes and then drops
			// the link at the case's point.
			go Serve(star.Addr(), 5*time.Second)
			linked := make(chan net.Conn, 1)
			go fakeWorker(t, star.Addr(), linked, tc.dies)
			opts := parallel.Options{Workers: workers, Transport: star}
			if tc.migrate {
				opts.ForceMigrate = func(cycle int) sched.Partition {
					return rotated(rete.DefaultNBuckets, workers, cycle)
				}
			}
			rt, err := parallel.New(netw, opts)
			if err != nil {
				t.Fatal(err)
			}
			conn := <-linked
			if tc.dies == nil {
				conn.Close()
			}

			cycle := func() error {
				done := make(chan error, 1)
				go func() {
					_, err := rt.Cycle(changes)
					done <- err
				}()
				select {
				case err := <-done:
					return err
				case <-time.After(10 * time.Second):
					t.Fatal("Cycle hung on a dead worker")
					return nil
				}
			}
			err = cycle()
			if err == nil {
				t.Fatal("Cycle succeeded with a dead worker; want a transport error")
			}
			t.Logf("Cycle: %v", err)
			// The failure is sticky: later cycles fail fast too.
			if err := cycle(); err == nil {
				t.Fatal("Cycle after failure succeeded; want sticky error")
			}
			closed := make(chan struct{})
			go func() {
				rt.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close hung after a worker died")
			}
		})
	}
}

// fakeWorker handshakes with the hub like Serve, hands its connection
// to linked, and acknowledges each batch with an empty turn until dies
// reports true for one; then it closes the connection without a turn.
func fakeWorker(t *testing.T, addr string, linked chan<- net.Conn, dies func([]parallel.Message) bool) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	ft, payload, err := readFrame(br, nil)
	if err != nil || ft != ftHello {
		t.Errorf("fake worker handshake: ft=%v err=%v", ft, err)
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		t.Error(err)
		return
	}
	var ready enc
	ready.int(h.id)
	if err := writeFrame(conn, ftReady, ready.buf); err != nil {
		t.Error(err)
		return
	}
	linked <- conn
	if dies == nil {
		return
	}
	for {
		ft, payload, err := readFrame(br, nil)
		if err != nil || ft != ftBatch {
			return
		}
		ms, batch, src, err := decodeBatch(h.Net, payload, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if dies(ms) {
			return
		}
		turn := parallel.Turn{N: len(ms), Stamp: parallel.RecvStamp{Batch: batch, Src: src, Count: int32(len(ms))}}
		if err := writeFrame(conn, ftTurn, appendTurn(nil, &turn)); err != nil {
			return
		}
	}
}
