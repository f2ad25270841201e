package rete

import (
	"sort"

	"mpcrete/internal/ops5"
)

// Activation is one unit of match work: a token arriving at a node's
// left or right input. It is the currency both of the sequential
// Matcher and of the distributed runtime, whose workers exchange
// Activations as messages.
type Activation struct {
	Node  *Node
	Side  Side
	Tag   Tag
	Token *Token    // set for left activations
	WME   *ops5.WME // set for right activations
}

// HashKey returns the distributed-hash-table key of the activation.
func (a Activation) HashKey() uint64 { return HashKey(a.Node, a.Side, a.Token, a.WME) }

// Processor owns a pair of hashed token memories and knows how to
// perform single node activations against them. It has no queue and no
// policy: callers decide where emitted successor activations go (the
// sequential matcher enqueues them; a distributed worker routes them to
// the owner of their hash bucket).
type Processor struct {
	net   *Network
	left  *Memory
	right *Memory
	arena tokenArena
	// bstack is the bounded enumerator's reusable DFS stack of candidate
	// wmes, one slot per positive collector of the group being
	// enumerated (see bounded.go).
	bstack []*ops5.WME
	// bmem is the enumerator's per-activation partition of the group's
	// bucket: one wme list per collector, rebuilt in a single bucket
	// pass so the DFS scans only its own position's candidates instead
	// of re-filtering the whole shared bucket at every level.
	bmem [][]*ops5.WME
}

// NewProcessor creates a processor with the given bucket count
// (DefaultNBuckets when 0; 1 degenerates to linear memories).
func NewProcessor(net *Network, nbuckets int) *Processor {
	if nbuckets == 0 {
		nbuckets = DefaultNBuckets
	}
	return &Processor{
		net:   net,
		left:  NewMemory(Left, nbuckets),
		right: NewMemory(Right, nbuckets),
	}
}

// Network returns the compiled network.
func (p *Processor) Network() *Network { return p.net }

// NBuckets returns the memory bucket count.
func (p *Processor) NBuckets() int { return p.left.NBuckets() }

// Memories exposes the left and right hash tables.
func (p *Processor) Memories() (left, right *Memory) { return p.left, p.right }

// Bucket maps an activation to its hash-bucket index.
func (p *Processor) Bucket(a Activation) int { return p.left.Bucket(a.HashKey()) }

// Reset empties both memories (keeping their bucket storage) and drops
// the arena's references to consumed chunks, returning the processor
// to its freshly-constructed state over the same network — the
// session-pool reuse hook. Only legal at quiescence.
func (p *Processor) Reset() {
	p.left.Reset()
	p.right.Reset()
	p.arena.reset()
}

// RootActivationsInto runs the constant tests for one wme change and
// appends the resulting activations (the paper's "tokens generated
// directly by wmes") to out — a reusable buffer for hot-path callers
// (the parallel runtime's per-cycle constant-test pass, and the
// control processor when it hash-routes root activations to their
// owners instead of broadcasting). Copy-and-constraint node copies
// filter right tokens here. Left root tokens are carved from the
// processor's arena.
func (p *Processor) RootActivationsInto(ch Change, out []Activation) []Activation {
	for _, a := range p.net.AlphasForClass(ch.WME.Class) {
		if !a.Matches(ch.WME) {
			continue
		}
		for _, r := range a.Routes {
			if r.Side == Right && !r.Node.AcceptsRight(ch.WME) {
				continue
			}
			act := Activation{Node: r.Node, Side: r.Side, Tag: ch.Tag, WME: ch.WME}
			if r.Side == Left {
				t := p.arena.newToken(1)
				t.WMEs[0] = ch.WME
				act.Token = t
				act.WME = nil
			}
			out = append(out, act)
		}
	}
	return out
}

// ProcessAt performs one activation, whose hash bucket the caller
// supplies: production-node activations invoke inst; dummy nodes
// forward; join and negative nodes update this processor's memories
// and emit successor (left) activations via emit. The caller must
// route every activation for a given bucket to the same Processor, or
// memory state will be inconsistent. Both the sequential matcher and
// the parallel runtime already compute the bucket to route the
// activation (for the trace event and for worker ownership
// respectively), so taking it here halves the HashKey work on the hot
// path. bucket is ignored for production and dummy nodes, which touch
// no memory.
func (p *Processor) ProcessAt(a Activation, bucket int, emit func(Activation), inst func(InstChange)) {
	switch a.Node.Kind {
	case KindProduction:
		inst(p.BuildInst(a))
	case KindDummy:
		p.emitTo(a.Node, a.Token, a.Tag, emit)
	case KindJoin:
		p.processJoin(a, bucket, emit)
	case KindNegative:
		p.processNegative(a, bucket, emit)
	case KindBounded:
		p.processBounded(a, bucket, emit)
	}
}

// BucketContents is the extracted state of one hash-bucket pair,
// the unit a distributed implementation migrates when re-partitioning.
// The paper judged this "too costly" to do dynamically; the parallel
// runtime implements it so the cost can be measured rather than
// assumed.
type BucketContents struct {
	Bucket int
	// LeftNodes/LeftTokens/LeftCounts are parallel slices describing
	// the left-memory entries (counts matter for negative nodes).
	LeftNodes  []*Node
	LeftTokens []*Token
	LeftCounts []int
	// RightNodes/RightWMEs describe the right-memory entries.
	RightNodes []*Node
	RightWMEs  []*ops5.WME
}

// Entries returns the number of stored tokens in the pair.
func (bc *BucketContents) Entries() int { return len(bc.LeftTokens) + len(bc.RightWMEs) }

// ExtractBucket removes and returns the contents of bucket b in both
// memories. The caller must be quiescent (no activation in flight for
// this bucket).
func (p *Processor) ExtractBucket(b int) *BucketContents {
	bc := &BucketContents{Bucket: b}
	for _, e := range p.left.extract(b) {
		bc.LeftNodes = append(bc.LeftNodes, e.node)
		bc.LeftTokens = append(bc.LeftTokens, e.token)
		bc.LeftCounts = append(bc.LeftCounts, e.count)
	}
	for _, e := range p.right.extract(b) {
		bc.RightNodes = append(bc.RightNodes, e.node)
		bc.RightWMEs = append(bc.RightWMEs, e.wme)
	}
	return bc
}

// InjectBucket installs previously extracted contents into this
// processor's memories. Bucket indices are global, so the receiving
// processor stores them at the same index.
func (p *Processor) InjectBucket(bc *BucketContents) {
	var lefts, rights []*memEntry
	for i := range bc.LeftTokens {
		lefts = append(lefts, &memEntry{node: bc.LeftNodes[i], token: bc.LeftTokens[i], count: bc.LeftCounts[i]})
	}
	for i := range bc.RightWMEs {
		rights = append(rights, &memEntry{node: bc.RightNodes[i], wme: bc.RightWMEs[i]})
	}
	p.left.inject(bc.Bucket, lefts)
	p.right.inject(bc.Bucket, rights)
}

// emitTo fans a token out to every successor of n as left activations.
func (p *Processor) emitTo(n *Node, t *Token, tag Tag, emit func(Activation)) {
	for _, s := range n.Succs {
		emit(Activation{Node: s, Side: Left, Tag: tag, Token: t})
	}
}

func (p *Processor) processJoin(a Activation, b int, emit func(Activation)) {
	n := a.Node
	if a.Side == Left {
		if a.Tag == Add {
			p.left.addLeft(b, n, a.Token)
		} else if p.left.removeLeft(b, n, a.Token) == nil {
			// Duplicate delete: the token's join effects were already
			// unwound when it was first removed. Scanning again would
			// emit a second wave of successor deletes.
			return
		}
		p.right.scan(b, n, func(e *memEntry) {
			if p.testsPass(n, a.Token, e.wme) {
				p.emitTo(n, p.extend(a.Token, e.wme), a.Tag, emit)
			}
		})
		return
	}
	if a.Tag == Add {
		p.right.addRight(b, n, a.WME)
	} else if p.right.removeRight(b, n, a.WME.ID) == nil {
		// Duplicate delete of a wme already out of right memory.
		return
	}
	p.left.scan(b, n, func(e *memEntry) {
		if p.testsPass(n, e.token, a.WME) {
			p.emitTo(n, p.extend(e.token, a.WME), a.Tag, emit)
		}
	})
}

func (p *Processor) processNegative(a Activation, b int, emit func(Activation)) {
	n := a.Node
	if a.Side == Left {
		if a.Tag == Add {
			count := 0
			p.right.scan(b, n, func(e *memEntry) {
				if p.testsPass(n, a.Token, e.wme) {
					count++
				}
			})
			entry := p.left.addLeft(b, n, a.Token)
			entry.count = count
			if count == 0 {
				p.emitTo(n, a.Token, Add, emit)
			}
			return
		}
		if e := p.left.removeLeft(b, n, a.Token); e != nil && e.count == 0 {
			p.emitTo(n, a.Token, Delete, emit)
		}
		return
	}
	if a.Tag == Add {
		p.right.addRight(b, n, a.WME)
		p.left.scan(b, n, func(e *memEntry) {
			if p.testsPass(n, e.token, a.WME) {
				e.count++
				if e.count == 1 {
					p.emitTo(n, e.token, Delete, emit)
				}
			}
		})
		return
	}
	if p.right.removeRight(b, n, a.WME.ID) == nil {
		// Duplicate delete: the counts were already decremented when
		// the wme was first removed; decrementing again would drive
		// them negative and break the next add's 0 -> 1 transition,
		// leaking a stale instantiation.
		return
	}
	p.left.scan(b, n, func(e *memEntry) {
		if p.testsPass(n, e.token, a.WME) {
			e.count--
			if e.count == 0 {
				p.emitTo(n, e.token, Add, emit)
			}
		}
	})
}

func (p *Processor) testsPass(n *Node, t *Token, w *ops5.WME) bool {
	for _, jt := range n.Tests {
		if !jt.Eval(t, w) {
			return false
		}
	}
	return true
}

// BuildInst converts a production-node activation into a conflict-set
// delta, mapping the compiled token back to original CE positions.
func (p *Processor) BuildInst(a Activation) InstChange {
	info := p.net.Prods[a.Node.Prod.Name]
	wmes := make([]*ops5.WME, len(info.Prod.LHS))
	var tags []int
	for i, pos := range info.TokenPos {
		if pos >= 0 {
			wmes[i] = a.Token.WMEs[pos]
			tags = append(tags, wmes[i].TimeTag)
		}
	}
	sort.Ints(tags)
	return InstChange{
		Tag:      a.Tag,
		Prod:     info.Prod,
		WMEs:     wmes,
		TimeTags: tags,
	}
}
