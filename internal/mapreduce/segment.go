package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"ntga/internal/codec"
	"ntga/internal/hdfs"
)

// Segment is the one shuffle format: a run of (key, value)-sorted pairs,
// each framed as its key then its value behind uvarint lengths. A sealed map
// attempt holds one per reduce partition in a single slab, a spill run's
// partition is one on node-local disk, and the cluster's Fetch ships one as
// it lies, so map output moves to a reducer with no per-pair encode or
// decode anywhere.
type Segment struct {
	// Pairs is the number of pairs framed in Data.
	Pairs int
	// Data is the framed pairs, back to back.
	Data []byte
}

// Each calls fn with the segment's pairs in order, until fn returns false.
// Each key and value aliases the segment's bytes, capped at its own length,
// so appending to one never overwrites the next. It returns an error at a
// malformed frame; a segment the shuffle sealed, or one a decoder has
// checked, has none.
func (s Segment) Each(fn func(KV) bool) error {
	pos := 0
	for range s.Pairs {
		at, err := readPair(s.Data, pos)
		if err != nil {
			return err
		}
		if !fn(at.kv(s.Data)) {
			return nil
		}
		pos = at.end
	}
	return nil
}

// Check reports an error unless the segment's bytes frame exactly its
// pairs, with nothing after the last. A segment that arrives from outside
// the process (the cluster's Fetch) is checked once on arrival, by the same
// reader the merge uses, so the merge never meets a frame it would reject.
func (s Segment) Check() error {
	pos := 0
	for range s.Pairs {
		at, err := readPair(s.Data, pos)
		if err != nil {
			return err
		}
		pos = at.end
	}
	if pos != len(s.Data) {
		return fmt.Errorf("%w: %d trailing bytes", codec.ErrCorrupt, len(s.Data)-pos)
	}
	return nil
}

// pairAt locates one framed pair in a segment's bytes: the frame runs from
// start to end, the key from key to keyEnd, the value from val to end. It
// holds no pointer, so storing one costs no write barrier.
type pairAt struct {
	start, key, keyEnd, val, end int
}

// kv returns the pair in data, each key and value capped at its own length;
// an empty one is nil, as gob decodes it.
func (p pairAt) kv(data []byte) KV {
	var kv KV
	if p.keyEnd > p.key {
		kv.Key = data[p.key:p.keyEnd:p.keyEnd]
	}
	if p.end > p.val {
		kv.Value = data[p.val:p.end:p.end]
	}
	return kv
}

// readPair reads the framed pair that starts at data[pos].
func readPair(data []byte, pos int) (pairAt, error) {
	at := pairAt{start: pos}
	var err error
	if at.key, at.keyEnd, err = readItem(data, pos); err != nil {
		return at, err
	}
	if at.val, at.end, err = readItem(data, at.keyEnd); err != nil {
		return at, err
	}
	return at, nil
}

// readItem reads the length prefix of the item at data[pos] and returns
// where the item's bytes start and end.
func readItem(data []byte, pos int) (start, end int, err error) {
	n, w := binary.Uvarint(data[pos:])
	if w <= 0 || n > uint64(len(data)-pos-w) {
		return 0, 0, codec.ErrCorrupt
	}
	return pos + w, pos + w + int(n), nil
}

// segSource reads one segment pair by pair for the reduce-side merge. A
// spill run's segment names its spill: every pair read is charged to the
// spill's read accounting, and reading fails once the run's node has died.
type segSource struct {
	seg   Segment
	spill *hdfs.Spill // nil for a segment held in memory
	left  int         // pairs not read yet
	head  pairAt      // the pair last read
}

func memSegSource(seg Segment) segSource { return segSource{seg: seg, left: seg.Pairs} }

func runSegSource(spill *hdfs.Spill, seg Segment) segSource {
	return segSource{seg: seg, spill: spill, left: seg.Pairs}
}

// next reads the next pair into head, reporting false at the segment's end.
func (s *segSource) next() (bool, error) {
	if s.left == 0 {
		return false, nil
	}
	if s.spill != nil && s.spill.Lost() {
		return false, fmt.Errorf("mapreduce: spill run read: %w", hdfs.ErrNodeLost)
	}
	at, err := readPair(s.seg.Data, s.head.end)
	if err != nil {
		return false, fmt.Errorf("mapreduce: corrupt shuffle segment: %w", err)
	}
	if s.spill != nil {
		s.spill.ChargeRead(int64(at.end - at.start))
	}
	s.head = at
	s.left--
	return true, nil
}

// key returns the head pair's key.
func (s *segSource) key() []byte { return s.seg.Data[s.head.key:s.head.keyEnd] }

// mergeIter is a binary-heap merge of segment sources. A heap item holds no
// pointer, only its source's index and the key prefix of the source's head
// pair, which decides most comparisons without reading the key; moving one
// costs no write barrier, and neither does the head pair a source keeps.
type mergeIter struct {
	srcs []segSource
	h    []mergeItem
}

type mergeItem struct {
	prefix uint64
	src    int
}

// pairRef is a pair the merge returned: its source and where it lies there.
type pairRef struct {
	src int
	pairAt
}

// kv returns the pair ref names.
func (m *mergeIter) kv(ref pairRef) KV { return ref.kv(m.srcs[ref.src].seg.Data) }

// framed returns the pair ref names as its source frames it.
func (m *mergeIter) framed(ref pairRef) []byte {
	return m.srcs[ref.src].seg.Data[ref.start:ref.end]
}

// start reads every source's first pair and builds the heap.
func (m *mergeIter) start() error {
	m.h = m.h[:0]
	for i := range m.srcs {
		ok, err := m.srcs[i].next()
		if err != nil {
			return err
		}
		if ok {
			m.h = append(m.h, mergeItem{keyPrefix(m.srcs[i].key()), i})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return nil
}

func (m *mergeIter) less(a, b int) bool {
	x, y := m.h[a], m.h[b]
	if x.prefix != y.prefix {
		return x.prefix < y.prefix
	}
	sx, sy := &m.srcs[x.src], &m.srcs[y.src]
	kx, ky := sx.head.kv(sx.seg.Data), sy.head.kv(sy.seg.Data)
	return compareTied(x.prefix, &kx, &ky) < 0
}

func (m *mergeIter) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(m.h) && m.less(l, least) {
			least = l
		}
		if r < len(m.h) && m.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		m.h[i], m.h[least] = m.h[least], m.h[i]
		i = least
	}
}

// next pops the least pair. Its bytes stay where they are, so the ref stays
// good after its source moves on.
func (m *mergeIter) next() (pairRef, bool, error) {
	if len(m.h) == 0 {
		return pairRef{}, false, nil
	}
	i := m.h[0].src
	s := &m.srcs[i]
	top := pairRef{i, s.head}
	ok, err := s.next()
	if err != nil {
		return pairRef{}, false, err
	}
	if ok {
		m.h[0].prefix = keyPrefix(s.key())
	} else {
		m.h[0] = m.h[len(m.h)-1]
		m.h = m.h[:len(m.h)-1]
	}
	if len(m.h) > 1 {
		m.down(0)
	}
	return top, true, nil
}

// groupIter slices the merged stream of one reduce attempt's segments into
// reduce groups. It holds the attempt's whole merge state, and is taken from
// groupPool and put back when the attempt ends, so a steady stream of reduce
// attempts allocates none of it.
type groupIter struct {
	m   mergeIter
	cur pairRef
	ok  bool
	// pairs counts every pair consumed from the merge (the partition's
	// post-combine record count, for the skew metric); bytes sums their
	// key+value sizes (for the byte-skew metric and reduce-span IO).
	pairs int64
	bytes int64
	vals  groupValues
}

var groupPool = sync.Pool{New: func() any {
	g := new(groupIter)
	g.vals.g = g
	return g
}}

// newGroupIter takes a groupIter with no sources from the pool.
func newGroupIter() *groupIter { return groupPool.Get().(*groupIter) }

// add appends a source to merge.
func (g *groupIter) add(s segSource) { g.m.srcs = append(g.m.srcs, s) }

// start begins the merge of the added sources at their first pair.
func (g *groupIter) start() error {
	if err := g.m.start(); err != nil {
		return err
	}
	var err error
	g.cur, g.ok, err = g.m.next()
	if g.ok {
		g.count(g.cur)
	}
	return err
}

// count adds a pair consumed from the merge to the group statistics.
func (g *groupIter) count(ref pairRef) {
	g.pairs++
	g.bytes += int64(ref.keyEnd - ref.key + ref.end - ref.val)
}

// key returns the current pair's key.
func (g *groupIter) key() []byte { return g.m.kv(g.cur).Key }

// release drops every reference to the merged segments and returns g to the
// pool. It clears the source list up to its capacity: an intermediate merge
// pass shrinks the list in place, and the sources left past its length
// still name spill runs.
func (g *groupIter) release() {
	clear(g.m.srcs[:cap(g.m.srcs)])
	g.m.srcs, g.m.h = g.m.srcs[:0], g.m.h[:0]
	g.cur, g.ok, g.pairs, g.bytes = pairRef{}, false, 0, 0
	g.vals = groupValues{g: g}
	groupPool.Put(g)
}

// groupValues is the ValueIter for the current group. The engine drains it
// after the reducer returns, so a reducer may stop early.
type groupValues struct {
	g    *groupIter
	key  []byte
	head bool // g.cur is this group's next unconsumed value
	done bool
}

func (v *groupValues) Next() ([]byte, bool, error) {
	if v.done {
		return nil, false, nil
	}
	g := v.g
	if v.head {
		v.head = false
		return g.m.kv(g.cur).Value, true, nil
	}
	ref, ok, err := g.m.next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		g.ok = false
		v.done = true
		return nil, false, nil
	}
	g.cur = ref
	g.count(ref)
	p := g.m.kv(ref)
	if !bytes.Equal(p.Key, v.key) {
		v.done = true
		return nil, false, nil
	}
	return p.Value, true, nil
}

func (v *groupValues) drain() error {
	for {
		_, ok, err := v.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}
