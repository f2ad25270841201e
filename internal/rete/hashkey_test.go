package rete

import (
	"hash/fnv"
	"testing"

	"mpcrete/internal/ops5"
)

// refHashKey is the original hash/fnv-based implementation; the
// inlined HashKey must keep producing identical keys so bucket
// assignments (and with them traces, partition statistics, and the
// distributed runtime's routing) are stable across the optimization.
func refHashKey(n *Node, side Side, t *Token, w *ops5.WME) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	id := uint64(n.ID)
	for i := 0; i < 8; i++ {
		buf[i] = byte(id >> (8 * i))
	}
	h.Write(buf[:])
	for _, jt := range n.EqTests {
		var v ops5.Value
		if side == Left {
			v = t.WMEs[jt.LeftPos].Get(jt.LeftAttr)
		} else {
			v = w.Get(jt.RightAttr)
		}
		h.Write([]byte(v.Key()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func TestHashKeyMatchesFNVReference(t *testing.T) {
	var prods []*ops5.Production
	for _, src := range []string{
		`(p join (a ^x <v> ^y <u>) (b ^x <v> ^z <u>) --> (halt))`,
		`(p nums (c ^n <m>) (d ^n <m>) --> (halt))`,
		`(p cross (a ^x <v>) (d ^q <r>) --> (halt))`,
	} {
		p, err := ops5.ParseProduction(src)
		if err != nil {
			t.Fatal(err)
		}
		prods = append(prods, p)
	}
	net, err := Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	proc := NewProcessor(net, 64)
	wmes := []*ops5.WME{
		ops5.NewWME("a", "x", "red", "y", 3),
		ops5.NewWME("a", "x", 2.5, "y", "blue"),
		ops5.NewWME("b", "x", "red", "z", 3),
		ops5.NewWME("c", "n", -17),
		ops5.NewWME("d", "n", -17, "q", "deep"),
	}
	checked := 0
	for i, w := range wmes {
		w.ID, w.TimeTag = i+1, i+1
		for _, act := range proc.RootActivationsInto(Change{Tag: Add, WME: w}, nil) {
			if got, want := act.HashKey(), refHashKey(act.Node, act.Side, act.Token, act.WME); got != want {
				t.Errorf("HashKey(%v %v) = %#x, reference %#x", act.Node.ID, act.Side, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no root activations generated")
	}
}
