package ntgamr

import (
	"encoding/binary"
	"fmt"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

const (
	tagLeft  byte = 0
	tagRight byte = 1
)

// joinMode selects how a triplegroup join cycle is keyed.
type joinMode int

const (
	// directMode keys the shuffle by the join value itself: TG_Join, and
	// TG_UnbJoin when a map-side full β-unnest pins the joining slot.
	directMode joinMode = iota
	// bucketedMode keys the shuffle by φ_m(join value): TG_OptUnbJoin. The
	// joining slot stays nested through the shuffle inside partial
	// triplegroups; the reduce files each under its in-bucket candidates
	// and unnests a candidate only when a right record matches it
	// (Algorithm 3, deferred to the probe).
	bucketedMode
)

// tgJoinMapper is the map side of a triplegroup join cycle.
type tgJoinMapper struct {
	q        *query.Query
	join     query.Join
	mode     joinMode
	phiM     int
	leftFile string // "" when both sides come from the single input file
}

func (m *tgJoinMapper) Map(input string, record []byte, out mapreduce.Emitter) error {
	s := core.GetScratch()
	defer s.Release()
	comps, err := s.DecodeJoined(record)
	if err != nil {
		return err
	}
	if m.leftFile == "" {
		// First join: both sides live in Job1's output; route by EC.
		if len(comps) != 1 {
			return fmt.Errorf("ntgamr: expected singleton record in grouping output, got %d components", len(comps))
		}
		switch comps[0].EC {
		case m.join.Left.Star:
			return m.emitSide(s, comps, m.join.Left, tagLeft, out)
		case m.join.Right.Star:
			return m.emitSide(s, comps, m.join.Right, tagRight, out)
		default:
			return nil // a later join's star
		}
	}
	if input == m.leftFile {
		return m.emitSide(s, comps, m.join.Left, tagLeft, out)
	}
	// Every other input is the grouping output, which holds every EC; this
	// join wants one.
	if len(comps) != 1 || comps[0].EC != m.join.Right.Star {
		return nil
	}
	return m.emitSide(s, comps, m.join.Right, tagRight, out)
}

// emitTagged frames one map output pair in s.Buf: the uvarint key, then the side
// tag and the joined-components encoding as the value.
func emitTagged(s *core.Scratch, out mapreduce.Emitter, key uint64, tag byte, comps []core.AnnTG) error {
	b := binary.AppendUvarint(s.Buf[:0], key)
	k := len(b)
	b = core.AppendJoined(append(b, tag), comps)
	s.Buf = b
	return out.Emit(b[:k], b[k:])
}

// compOf finds the component of a record that belongs to the given star.
func compOf(comps []core.AnnTG, star int) (int, error) {
	for i, c := range comps {
		if c.EC == star {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ntgamr: record lacks component for star %d", star)
}

// emitSide produces the map output for one record on one side of the join,
// pinning or partially unnesting the join position as the strategy demands.
func (m *tgJoinMapper) emitSide(s *core.Scratch, comps []core.AnnTG, pos query.Pos, tag byte, out mapreduce.Emitter) error {
	if m.mode == bucketedMode && pos.Role == query.RoleSlotObj {
		ci, err := compOf(comps, pos.Star)
		if err != nil {
			return err
		}
		if comp := comps[ci]; comp.SlotSel[pos.Idx] == core.Nested {
			// TG_OptUnbJoin: partial β-unnest, keyed by bucket.
			for _, pt := range s.PartialBetaUnnest(m.q.Stars[pos.Star], comp, pos.Idx, m.phiM) {
				out.Inc(CounterPartialTGs, 1)
				comps[ci] = pt.TG
				if err := emitTagged(s, out, uint64(pt.Bucket), tag, comps); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return resolveJoinSide(s, m.q, comps, pos, out, func(v rdf.ID, comps []core.AnnTG) error {
		key := uint64(v)
		if m.mode == bucketedMode {
			key = uint64(core.Phi(v, m.phiM))
		}
		return emitTagged(s, out, key, tag, comps)
	})
}

// resolveJoinSide hands yield one joinable (value, record) per concrete join
// value of a record at the given join position, map-side: a subject or pinned
// position as it is, a nested bound position pinned per candidate, a nested
// slot fully β-unnested (TG_UnbJoin; never partially — that is emitSide's).
// The record passed to yield is comps itself, its joining component replaced
// for the duration of the call: yield encodes it or copies what it keeps.
// Unnested triplegroups are counted on cnt.
func resolveJoinSide(s *core.Scratch, q *query.Query, comps []core.AnnTG, pos query.Pos,
	cnt mapreduce.Counter, yield func(rdf.ID, []core.AnnTG) error) error {
	ci, err := compOf(comps, pos.Star)
	if err != nil {
		return err
	}
	st, comp := q.Stars[pos.Star], comps[ci]
	var split []core.AnnTG
	unnested := false
	switch {
	case pos.Role == query.RoleBoundObj && comp.BoundSel[pos.Idx] == core.Nested:
		split = s.PinBound(st, comp, pos.Idx)
	case pos.Role == query.RoleSlotObj && comp.SlotSel[pos.Idx] == core.Nested:
		split, unnested = s.UnnestSlot(st, comp, pos.Idx), true
	default:
		v, err := core.JoinValue(st, comp, pos)
		if err != nil {
			return err
		}
		return yield(v, comps)
	}
	for _, c := range split {
		if unnested {
			cnt.Inc(CounterMapUnnest, 1)
		}
		comps[ci] = c
		v, err := core.JoinValue(st, c, pos)
		if err != nil {
			return err
		}
		if err := yield(v, comps); err != nil {
			return err
		}
	}
	comps[ci] = comp
	return nil
}

// tgJoinReducer joins the two sides of a group.
type tgJoinReducer struct {
	q    *query.Query
	join query.Join
	mode joinMode
	phiM int
}

// NewTaskReducer implements mapreduce.TaskReducerFactory: a task attempt's
// reducer keeps its joinIndex and both Scratches from one group to the next,
// so once they have grown to the task's largest group a group costs no
// allocation. It takes them from their pools on its first group and gives
// them back when the attempt is done, so the tasks of a process share them.
func (r *tgJoinReducer) NewTaskReducer(int) mapreduce.TaskReducer {
	return &joinReduceTask{r: r}
}

// Reduce joins one group on its own; the engine reduces through
// NewTaskReducer's per-attempt reducer instead.
func (r *tgJoinReducer) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	t := r.NewTaskReducer(0)
	defer t.Done()
	return t.Reduce(key, values, out)
}

// joinReduceTask is one task attempt's tgJoinReducer: the left side's index
// and Scratch (ls), and the Scratch each right is decoded and joined in (rs);
// nil until the first group.
type joinReduceTask struct {
	r      *tgJoinReducer
	x      *joinIndex
	ls, rs *core.Scratch
}

// Reduce streams the group. The side tag leads every value and the engine
// delivers values in sorted order, so every left (tag 0) arrives before the
// first right (tag 1): only the left side is buffered — decoded into ls and
// filed in the index — and each right record probes the index and is
// emitted as it streams past, through rs, reset per record.
func (t *joinReduceTask) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	if t.x == nil {
		t.x, t.ls, t.rs = getJoinIndex(), core.GetScratch(), core.GetScratch()
	} else {
		t.x.reset()
		t.ls.Reset()
	}
	return t.r.reduce(key, values, t.x, t.ls, t.rs, out)
}

// Done implements mapreduce.TaskReducer: the index and the Scratches go
// back to their pools.
func (t *joinReduceTask) Done() {
	if t.x != nil {
		t.x.release()
		t.ls.Release()
		t.rs.Release()
		t.x, t.ls, t.rs = nil, nil, nil
	}
}

// reduce is one group's join over the given empty index and left Scratch,
// which it leaves filled.
func (r *tgJoinReducer) reduce(key []byte, values mapreduce.ValueIter, x *joinIndex, ls, rs *core.Scratch,
	out mapreduce.Collector) error {
	bucket, m := 0, 0
	if r.mode == bucketedMode {
		b, err := codec.NewReader(key).Uvarint()
		if err != nil {
			return err
		}
		bucket, m = int(b), r.phiM
	}
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if len(v) == 0 {
			return fmt.Errorf("ntgamr: empty join value")
		}
		switch v[0] {
		case tagLeft:
			// TG_OptUnbJoin's deferred β-unnest: a left still nested at
			// its joining slot counts as unnested once per candidate in
			// the bucket, but is pinned only when a right matches one.
			comps, err := ls.DecodeJoined(v[1:])
			if err != nil {
				return err
			}
			n, err := x.addLeft(r.q, r.join.Left, comps, core.Phi, m, bucket)
			if err != nil {
				return err
			}
			if n > 0 {
				out.Inc(CounterReduceUnnest, int64(n))
			}
		case tagRight:
			rs.Reset()
			comps, err := rs.DecodeJoined(v[1:])
			if err == nil {
				err = r.probe(x, ls, rs, comps, m, bucket, out)
			}
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("ntgamr: unknown join tag %d", v[0])
		}
	}
}

// probe joins one right record with the lefts filed under its join value,
// collecting each joined record in the order the lefts were filed; a
// matched left still unpinned is pinned in ls, once. A right whose joining
// slot is still nested counts as unnested once per candidate in the bucket,
// and is pinned in rs only for a candidate the index holds, in candidate
// order.
func (r *tgJoinReducer) probe(x *joinIndex, ls, rs *core.Scratch, comps []core.AnnTG, m, bucket int,
	out mapreduce.Collector) error {
	pos := r.join.Right
	ci, err := compOf(comps, pos.Star)
	if err != nil {
		return err
	}
	st, c := r.q.Stars[pos.Star], comps[ci]
	if !nestedSlot(c, pos) {
		v, err := core.JoinValue(st, c, pos)
		if err != nil {
			return err
		}
		return r.collect(x, x.first(v), ls, rs, comps, out)
	}
	if m == 0 {
		return fmt.Errorf("ntgamr: nested slot reached a direct-mode join")
	}
	x.cands = c.SlotCandidates(x.cands[:0], st, pos.Idx)
	for _, k := range x.cands {
		v := c.Triples[k].O
		if core.Phi(v, m) != bucket {
			continue
		}
		out.Inc(CounterReduceUnnest, 1)
		i := x.first(v)
		if i < 0 {
			continue
		}
		comps[ci] = rs.PinSlot(st, c, pos.Idx, k)
		if err := r.collect(x, i, ls, rs, comps, out); err != nil {
			return err
		}
	}
	comps[ci] = c
	return nil
}

// collect emits the chain of lefts from entry i on, each joined with right
// in rs's one reused join buffer.
func (r *tgJoinReducer) collect(x *joinIndex, i int32, ls, rs *core.Scratch, right []core.AnnTG,
	out mapreduce.Collector) error {
	lst, si := r.q.Stars[r.join.Left.Star], r.join.Left.Idx
	for ; i >= 0; i = x.entries[i].next {
		l := x.resolve(i, ls, lst, si)
		if err := collectJoined(out, rs.Join(l.comps, right), &rs.Buf); err != nil {
			return err
		}
	}
	return nil
}

// tgJoinJob builds one triplegroup join cycle whose right side is the
// grouping output. When the left file is that output too (the first join),
// the job scans it once and the mapper routes records by equivalence class.
func tgJoinJob(q *query.Query, name string, j query.Join, mode joinMode, phiM int,
	leftFile, rightFile, output string) *mapreduce.Job {
	inputs := []string{leftFile, rightFile}
	mLeft := leftFile
	if leftFile == rightFile {
		inputs = inputs[1:]
		mLeft = ""
	}
	return &mapreduce.Job{
		Name:          name,
		Inputs:        inputs,
		Output:        output,
		Mapper:        &tgJoinMapper{q: q, join: j, mode: mode, phiM: phiM, leftFile: mLeft},
		StreamReducer: &tgJoinReducer{q: q, join: j, mode: mode, phiM: phiM},
	}
}
