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
	// triplegroups and is unnested per-bucket in the reduce (Algorithm 3).
	bucketedMode
)

// tgJoinMapper is the map side of a triplegroup join cycle.
type tgJoinMapper struct {
	q         *query.Query
	join      query.Join
	mode      joinMode
	phiM      int
	leftFile  string // "" when both sides come from the single input file
	rightFile string
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
	switch input {
	case m.leftFile:
		return m.emitSide(s, comps, m.join.Left, tagLeft, out)
	case m.rightFile:
		// The grouping output holds every EC; this join wants one.
		if len(comps) != 1 || comps[0].EC != m.join.Right.Star {
			return nil
		}
		return m.emitSide(s, comps, m.join.Right, tagRight, out)
	default:
		return fmt.Errorf("ntgamr: join mapper got unexpected input %q", input)
	}
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

// resolveSide is resolveJoinSide on the reduce side: the map side left a
// position unresolved only under TG_OptUnbJoin, whose deferred β-unnest it
// finishes within the reduce bucket, counting the unnested triplegroups on cnt.
func (r *tgJoinReducer) resolveSide(s *core.Scratch, comps []core.AnnTG, pos query.Pos, bucket int,
	cnt mapreduce.Counter, yield func(rdf.ID, []core.AnnTG) error) error {
	ci, err := compOf(comps, pos.Star)
	if err != nil {
		return err
	}
	st, comp := r.q.Stars[pos.Star], comps[ci]
	if pos.Role != query.RoleSlotObj || comp.SlotSel[pos.Idx] != core.Nested {
		v, err := core.JoinValue(st, comp, pos)
		if err != nil {
			return err
		}
		return yield(v, comps)
	}
	if r.mode != bucketedMode {
		return fmt.Errorf("ntgamr: nested slot reached a direct-mode reducer")
	}
	for _, u := range s.UnnestSlotInBucket(st, comp, pos.Idx, r.phiM, bucket) {
		cnt.Inc(CounterReduceUnnest, 1)
		comps[ci] = u
		if err := yield(u.Triples[u.SlotSel[pos.Idx]].O, comps); err != nil {
			return err
		}
	}
	comps[ci] = comp
	return nil
}

// Reduce streams the group. The side tag leads every value and the engine
// delivers values in sorted order, so every left (tag 0) arrives before the
// first right (tag 1): only the left side — indexed by join value, held in
// the group's own Scratch — is buffered, and each right record joins and is
// emitted as it streams past through a second Scratch reset per record.
func (r *tgJoinReducer) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	bucket := 0
	if r.mode == bucketedMode {
		b, err := codec.NewReader(key).Uvarint()
		if err != nil {
			return err
		}
		bucket = int(b)
	}
	ls, rs := core.GetScratch(), core.GetScratch()
	defer ls.Release()
	defer rs.Release()
	lefts := make(map[rdf.ID][][]core.AnnTG)
	keepLeft := func(v rdf.ID, comps []core.AnnTG) error {
		lefts[v] = append(lefts[v], ls.Concat(comps, nil))
		return nil
	}
	joinRight := func(v rdf.ID, comps []core.AnnTG) error {
		for _, l := range lefts[v] {
			rs.Buf = core.AppendJoined(rs.Buf[:0], rs.Concat(l, comps))
			if err := out.Collect(rs.Buf); err != nil {
				return err
			}
		}
		return nil
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
			comps, err := ls.DecodeJoined(v[1:])
			if err == nil {
				err = r.resolveSide(ls, comps, r.join.Left, bucket, out, keepLeft)
			}
			if err != nil {
				return err
			}
		case tagRight:
			rs.Reset()
			comps, err := rs.DecodeJoined(v[1:])
			if err == nil {
				err = r.resolveSide(rs, comps, r.join.Right, bucket, out, joinRight)
			}
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("ntgamr: unknown join tag %d", v[0])
		}
	}
}

// tgJoinJob builds one triplegroup join cycle. When leftFile equals
// rightFile (the first join), the job scans that file once and the mapper
// routes records by equivalence class.
func tgJoinJob(q *query.Query, name string, j query.Join, mode joinMode, phiM int,
	leftFile, rightFile, output string) *mapreduce.Job {
	inputs := []string{leftFile, rightFile}
	mLeft := leftFile
	if leftFile == rightFile {
		inputs = []string{rightFile}
		mLeft = ""
	}
	return &mapreduce.Job{
		Name:   name,
		Inputs: inputs,
		Output: output,
		Mapper: &tgJoinMapper{q: q, join: j, mode: mode, phiM: phiM,
			leftFile: mLeft, rightFile: rightFile},
		StreamReducer: &tgJoinReducer{q: q, join: j, mode: mode, phiM: phiM},
	}
}
