package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// Payload codec: varint-encoded values over the frame payloads, in the
// style of rete's compiled-network codec. Unlike the in-process
// transport, which moves pointers, the wire codec ships full content —
// decoded wmes are fresh copies with the same ID/TimeTag/Class/Attrs,
// which is safe because tokens compare by wme ID and joins read
// values, never pointer identity. Attributes are encoded in sorted
// order so the encoding of a message is canonical (byte-identical for
// equal messages), which the fuzz round-trip target relies on.
//
// Decoding resolves graph references against the receiver's compiled
// network: node ids are bounds-checked into net.Nodes and production
// names looked up in net.Prods, so a frame cross-wired from a
// different program fails with ErrBadPayload instead of corrupting the
// match state.

// enc is an append-only payload encoder.
type enc struct {
	buf []byte
}

func (e *enc) u64(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i64(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) byte(b byte)   { e.buf = append(e.buf, b) }
func (e *enc) str(s string)  { e.u64(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *enc) i32(v int32)   { e.i64(int64(v)) }
func (e *enc) bool(b bool)   { e.byte(boolByte(b)) }
func (e *enc) int(v int)     { e.i64(int64(v)) }
func (e *enc) count(n int)   { e.u64(uint64(n)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// dec is a bounds-checked payload decoder; every failure wraps
// ErrBadPayload.
type dec struct {
	b   []byte
	off int // consumed bytes, for error context
}

func (d *dec) fail(what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrBadPayload, what, d.off)
}

func (d *dec) u64() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, d.fail("uvarint")
	}
	d.b = d.b[n:]
	d.off += n
	return v, nil
}

func (d *dec) i64() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, d.fail("varint")
	}
	d.b = d.b[n:]
	d.off += n
	return v, nil
}

func (d *dec) byte() (byte, error) {
	if len(d.b) == 0 {
		return 0, d.fail("byte")
	}
	b := d.b[0]
	d.b = d.b[1:]
	d.off++
	return b, nil
}

func (d *dec) bool() (bool, error) {
	b, err := d.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, d.fail("bool")
	}
	return b == 1, nil
}

func (d *dec) i32() (int32, error) {
	v, err := d.i64()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, d.fail("int32 range")
	}
	return int32(v), nil
}

func (d *dec) int() (int, error) {
	v, err := d.i64()
	if err != nil {
		return 0, err
	}
	return int(v), nil
}

// count decodes a collection length, bounded both by an explicit limit
// and by the bytes remaining (each element costs at least one byte), so
// a hostile length cannot trigger a huge allocation.
func (d *dec) count(limit int) (int, error) {
	v, err := d.u64()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) || v > uint64(len(d.b)) {
		return 0, d.fail(fmt.Sprintf("count %d exceeds limit", v))
	}
	return int(v), nil
}

func (d *dec) str() (string, error) {
	n, err := d.count(1 << 20)
	if err != nil {
		return "", err
	}
	if len(d.b) < n {
		return "", d.fail("string bytes")
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	d.off += n
	return s, nil
}

func (d *dec) f64() (float64, error) {
	v, err := d.u64()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(v), nil
}

func (d *dec) done() error {
	if len(d.b) != 0 {
		return d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	return nil
}

// --- values and wmes ---

func (e *enc) value(v ops5.Value) {
	e.byte(byte(v.Kind))
	switch v.Kind {
	case ops5.KindSym:
		e.str(v.Sym)
	case ops5.KindNum:
		e.f64(v.Num)
	}
}

func (d *dec) value() (ops5.Value, error) {
	kind, err := d.byte()
	if err != nil {
		return ops5.Value{}, err
	}
	switch ops5.Kind(kind) {
	case ops5.KindNil:
		return ops5.Value{}, nil
	case ops5.KindSym:
		s, err := d.str()
		return ops5.S(s), err
	case ops5.KindNum:
		f, err := d.f64()
		return ops5.N(f), err
	}
	return ops5.Value{}, d.fail(fmt.Sprintf("value kind %d", kind))
}

func (e *enc) wme(w *ops5.WME) {
	e.int(w.ID)
	e.int(w.TimeTag)
	e.str(w.Class)
	attrs := make([]string, 0, len(w.Attrs))
	for a := range w.Attrs {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	e.count(len(attrs))
	for _, a := range attrs {
		e.str(a)
		e.value(w.Attrs[a])
	}
}

func (d *dec) wme() (*ops5.WME, error) {
	w := &ops5.WME{}
	var err error
	if w.ID, err = d.int(); err != nil {
		return nil, err
	}
	if w.TimeTag, err = d.int(); err != nil {
		return nil, err
	}
	if w.Class, err = d.str(); err != nil {
		return nil, err
	}
	n, err := d.count(1 << 16)
	if err != nil {
		return nil, err
	}
	w.Attrs = make(map[string]ops5.Value, n)
	for i := 0; i < n; i++ {
		a, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		w.Attrs[a] = v
	}
	return w, nil
}

// optWME encodes a possibly-nil wme (InstChange entries for negated
// CEs are nil).
func (e *enc) optWME(w *ops5.WME) {
	if w == nil {
		e.byte(0)
		return
	}
	e.byte(1)
	e.wme(w)
}

func (d *dec) optWME() (*ops5.WME, error) {
	present, err := d.bool()
	if err != nil || !present {
		return nil, err
	}
	return d.wme()
}

// --- changes, activations, instantiations ---

func (e *enc) change(ch rete.Change) {
	e.byte(byte(ch.Tag))
	e.wme(ch.WME)
}

func (d *dec) change() (rete.Change, error) {
	tag, err := d.tag()
	if err != nil {
		return rete.Change{}, err
	}
	w, err := d.wme()
	if err != nil {
		return rete.Change{}, err
	}
	return rete.Change{Tag: tag, WME: w}, nil
}

func (d *dec) tag() (rete.Tag, error) {
	b, err := d.byte()
	if err != nil {
		return 0, err
	}
	if t := rete.Tag(b); t == rete.Add || t == rete.Delete {
		return t, nil
	}
	return 0, d.fail(fmt.Sprintf("tag %d", b))
}

func (e *enc) activation(a rete.Activation) {
	e.int(a.Node.ID)
	e.byte(byte(a.Side))
	e.byte(byte(a.Tag))
	if a.Token != nil {
		e.byte(1)
		e.count(len(a.Token.WMEs))
		for _, w := range a.Token.WMEs {
			e.wme(w)
		}
	} else {
		e.byte(0)
	}
	e.optWME(a.WME)
}

func (d *dec) activation(net *rete.Network) (rete.Activation, error) {
	var a rete.Activation
	var err error
	if a.Node, err = d.node(net); err != nil {
		return a, err
	}
	side, err := d.byte()
	if err != nil {
		return a, err
	}
	if side != byte(rete.Left) && side != byte(rete.Right) {
		return a, d.fail(fmt.Sprintf("side %d", side))
	}
	a.Side = rete.Side(side)
	if a.Tag, err = d.tag(); err != nil {
		return a, err
	}
	hasToken, err := d.bool()
	if err != nil {
		return a, err
	}
	if hasToken {
		n, err := d.count(1 << 16)
		if err != nil {
			return a, err
		}
		tok := &rete.Token{WMEs: make([]*ops5.WME, n)}
		for i := range tok.WMEs {
			if tok.WMEs[i], err = d.wme(); err != nil {
				return a, err
			}
		}
		a.Token = tok
	}
	if a.WME, err = d.optWME(); err != nil {
		return a, err
	}
	return a, nil
}

func (e *enc) instChange(ic rete.InstChange) {
	e.byte(byte(ic.Tag))
	e.str(ic.Prod.Name)
	e.count(len(ic.WMEs))
	for _, w := range ic.WMEs {
		e.optWME(w)
	}
	e.count(len(ic.TimeTags))
	for _, t := range ic.TimeTags {
		e.int(t)
	}
}

func (d *dec) instChange(net *rete.Network) (rete.InstChange, error) {
	var ic rete.InstChange
	var err error
	if ic.Tag, err = d.tag(); err != nil {
		return ic, err
	}
	name, err := d.str()
	if err != nil {
		return ic, err
	}
	info, ok := net.Prods[name]
	if !ok {
		return ic, d.fail(fmt.Sprintf("unknown production %q", name))
	}
	ic.Prod = info.Prod
	n, err := d.count(1 << 16)
	if err != nil {
		return ic, err
	}
	ic.WMEs = make([]*ops5.WME, n)
	for i := range ic.WMEs {
		if ic.WMEs[i], err = d.optWME(); err != nil {
			return ic, err
		}
	}
	if n, err = d.count(1 << 16); err != nil {
		return ic, err
	}
	if n > 0 {
		ic.TimeTags = make([]int, n)
		for i := range ic.TimeTags {
			if ic.TimeTags[i], err = d.int(); err != nil {
				return ic, err
			}
		}
	}
	return ic, nil
}

// --- bucket contents (the migration protocol's payload) ---

// bucketContents encodes one extracted hash-bucket pair. Node
// references travel as compiled-network ids; tokens and wmes travel by
// value. The decoded copy is safe to inject on the receiver because
// memory removal matches by value (wme ID / Token.Same), never by
// pointer identity.
func (e *enc) bucketContents(bc *rete.BucketContents) {
	e.int(bc.Bucket)
	e.count(len(bc.LeftTokens))
	for i, tok := range bc.LeftTokens {
		e.int(bc.LeftNodes[i].ID)
		e.int(bc.LeftCounts[i])
		e.count(len(tok.WMEs))
		for _, w := range tok.WMEs {
			e.wme(w)
		}
	}
	e.count(len(bc.RightWMEs))
	for i, w := range bc.RightWMEs {
		e.int(bc.RightNodes[i].ID)
		e.wme(w)
	}
}

func (d *dec) node(net *rete.Network) (*rete.Node, error) {
	id, err := d.int()
	if err != nil {
		return nil, err
	}
	if id < 0 || id >= len(net.Nodes) {
		return nil, d.fail(fmt.Sprintf("node id %d out of range [0,%d)", id, len(net.Nodes)))
	}
	return net.Nodes[id], nil
}

func (d *dec) bucketContents(net *rete.Network) (*rete.BucketContents, error) {
	bc := &rete.BucketContents{}
	var err error
	if bc.Bucket, err = d.int(); err != nil {
		return nil, err
	}
	nl, err := d.count(1 << 24)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nl; i++ {
		n, err := d.node(net)
		if err != nil {
			return nil, err
		}
		cnt, err := d.int()
		if err != nil {
			return nil, err
		}
		nw, err := d.count(1 << 16)
		if err != nil {
			return nil, err
		}
		tok := &rete.Token{WMEs: make([]*ops5.WME, nw)}
		for j := range tok.WMEs {
			if tok.WMEs[j], err = d.wme(); err != nil {
				return nil, err
			}
		}
		bc.LeftNodes = append(bc.LeftNodes, n)
		bc.LeftTokens = append(bc.LeftTokens, tok)
		bc.LeftCounts = append(bc.LeftCounts, cnt)
	}
	nr, err := d.count(1 << 24)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nr; i++ {
		n, err := d.node(net)
		if err != nil {
			return nil, err
		}
		w, err := d.wme()
		if err != nil {
			return nil, err
		}
		bc.RightNodes = append(bc.RightNodes, n)
		bc.RightWMEs = append(bc.RightWMEs, w)
	}
	return bc, nil
}

// --- message batches (the ftBatch and ftRelay payloads) ---

// appendBatch encodes a pushed message batch with its causal stamp.
func appendBatch(buf []byte, ms []parallel.Message, batch, src int32) ([]byte, error) {
	e := enc{buf: buf}
	e.i32(batch)
	e.i32(src)
	return appendMsgs(e.buf, ms)
}

// appendMsgs encodes a message list. Migration messages ship by value:
// the new partition as owner ids, injected contents through the
// bucketContents codec.
func appendMsgs(buf []byte, ms []parallel.Message) ([]byte, error) {
	e := enc{buf: buf}
	e.count(len(ms))
	for i := range ms {
		m := &ms[i]
		e.byte(byte(m.Kind))
		switch m.Kind {
		case parallel.MsgCycle:
			e.count(len(m.Cycle.Changes))
			for _, ch := range m.Cycle.Changes {
				e.change(ch)
			}
		case parallel.MsgAct:
			e.i32(m.Bucket)
			e.i32(m.Depth)
			e.activation(m.Act)
		case parallel.MsgMigrateOut:
			e.count(len(m.Partition))
			for _, owner := range m.Partition {
				e.int(owner)
			}
		case parallel.MsgMigrateIn:
			e.bucketContents(m.Inject)
		default:
			return nil, fmt.Errorf("transport: message kind %d cannot cross the wire", m.Kind)
		}
	}
	return e.buf, nil
}

// decodeBatch decodes an ftBatch payload into messages backed by fresh
// wme copies.
func decodeBatch(net *rete.Network, payload []byte, ms []parallel.Message) ([]parallel.Message, int32, int32, error) {
	d := dec{b: payload}
	batch, err := d.i32()
	if err != nil {
		return nil, 0, 0, err
	}
	src, err := d.i32()
	if err != nil {
		return nil, 0, 0, err
	}
	if ms, err = d.msgs(net, ms); err != nil {
		return nil, 0, 0, err
	}
	if err := d.done(); err != nil {
		return nil, 0, 0, err
	}
	return ms, batch, src, nil
}

func (d *dec) msgs(net *rete.Network, ms []parallel.Message) ([]parallel.Message, error) {
	n, err := d.count(1 << 24)
	if err != nil {
		return nil, err
	}
	ms = ms[:0]
	for i := 0; i < n; i++ {
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		m := parallel.Message{Kind: parallel.MsgKind(kind)}
		switch m.Kind {
		case parallel.MsgCycle:
			nch, err := d.count(1 << 24)
			if err != nil {
				return nil, err
			}
			m.Cycle = &parallel.CyclePacket{Changes: make([]rete.Change, nch)}
			for j := range m.Cycle.Changes {
				if m.Cycle.Changes[j], err = d.change(); err != nil {
					return nil, err
				}
			}
		case parallel.MsgAct:
			if m.Bucket, err = d.i32(); err != nil {
				return nil, err
			}
			if m.Depth, err = d.i32(); err != nil {
				return nil, err
			}
			if m.Act, err = d.activation(net); err != nil {
				return nil, err
			}
		case parallel.MsgMigrateOut:
			if m.Partition, err = d.partition(); err != nil {
				return nil, err
			}
		case parallel.MsgMigrateIn:
			if m.Inject, err = d.bucketContents(net); err != nil {
				return nil, err
			}
		default:
			return nil, d.fail(fmt.Sprintf("message kind %d", kind))
		}
		ms = append(ms, m)
	}
	return ms, nil
}

func (d *dec) partition() (sched.Partition, error) {
	n, err := d.count(1 << 24)
	if err != nil {
		return nil, err
	}
	p := make(sched.Partition, n)
	for i := range p {
		if p[i], err = d.int(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// --- turn reports (the ftTurn payload) ---

func appendTurn(buf []byte, t *parallel.Turn) []byte {
	e := enc{buf: buf}
	e.int(t.N)
	e.i32(t.Stamp.Batch)
	e.i32(t.Stamp.Src)
	e.i32(t.Stamp.Count)
	e.i64(t.Stats.Handles)
	e.i64(t.Stats.Sent)
	e.i64(t.Stats.Shipped)
	e.i64(t.Stats.Entries)
	e.i64(t.Stats.Flushes)
	e.i32(t.Stats.MaxDepth)
	e.count(len(t.Insts))
	for i := range t.Insts {
		e.instChange(t.Insts[i])
	}
	e.count(len(t.Loads))
	for _, l := range t.Loads {
		e.i32(l.Bucket)
		e.i64(l.N)
	}
	return e.buf
}

// decodeTurn decodes an ftTurn payload into t, reusing its buffers.
func decodeTurn(net *rete.Network, payload []byte, t *parallel.Turn) error {
	d := dec{b: payload}
	var err error
	if t.N, err = d.int(); err != nil {
		return err
	}
	if t.N < 0 {
		return d.fail("negative turn message count")
	}
	for _, p := range [...]*int32{&t.Stamp.Batch, &t.Stamp.Src, &t.Stamp.Count} {
		if *p, err = d.i32(); err != nil {
			return err
		}
	}
	for _, p := range [...]*int64{&t.Stats.Handles, &t.Stats.Sent, &t.Stats.Shipped, &t.Stats.Entries, &t.Stats.Flushes} {
		if *p, err = d.i64(); err != nil {
			return err
		}
	}
	if t.Stats.MaxDepth, err = d.i32(); err != nil {
		return err
	}
	n, err := d.count(1 << 24)
	if err != nil {
		return err
	}
	t.Insts = t.Insts[:0]
	for i := 0; i < n; i++ {
		ic, err := d.instChange(net)
		if err != nil {
			return err
		}
		t.Insts = append(t.Insts, ic)
	}
	if n, err = d.count(1 << 24); err != nil {
		return err
	}
	t.Loads = t.Loads[:0]
	for i := 0; i < n; i++ {
		var l parallel.BucketLoad
		if l.Bucket, err = d.i32(); err != nil {
			return err
		}
		if l.N, err = d.i64(); err != nil {
			return err
		}
		t.Loads = append(t.Loads, l)
	}
	return d.done()
}
