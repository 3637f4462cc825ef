package ntgamr

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// pinAllReducer is the shuffled join's reducer as it was before the
// joinIndex: it unnests every left's in-bucket candidates as the left
// arrives (UnnestSlotInBucket), copies each result into a map of slices by
// join value, and joins each right against that map. It is kept as the
// oracle the probe-then-pin reducer must match byte for byte.
type pinAllReducer struct{ *tgJoinReducer }

func (r pinAllReducer) resolveSide(s *core.Scratch, comps []core.AnnTG, pos query.Pos, bucket int,
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

func (r pinAllReducer) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
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

// OracleTally counts what TeeJoinReducers compared.
type OracleTally struct {
	Groups, Bucketed, Records, LeftsOnly atomic.Int64
}

// TeeJoinReducers replaces the reducer of every shuffled triplegroup join in
// p with one that runs each reduce group through both the reducer and the
// pin-everything oracle, reports on fail any difference in the collected
// records (bytes and order) or the counters, and passes the reducer's output
// on, so the workflow runs as it would have.
func TeeJoinReducers(p *plan.Physical, fail func(format string, args ...any)) *OracleTally {
	tally := new(OracleTally)
	for _, node := range p.Nodes() {
		if r, ok := node.Job.StreamReducer.(*tgJoinReducer); ok {
			node.Job.StreamReducer = &joinTee{r: r, name: node.Name, fail: fail, tally: tally}
		}
	}
	return tally
}

type joinTee struct {
	r     *tgJoinReducer
	name  string
	fail  func(format string, args ...any)
	tally *OracleTally
}

func (tee *joinTee) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	var vals [][]byte
	rights := 0
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if len(v) > 0 && v[0] == tagRight {
			rights++
		}
		vals = append(vals, bytes.Clone(v))
	}
	got, want := &pairSink{keep: true}, &pairSink{keep: true}
	if err := tee.r.Reduce(key, &sliceValues{vals: vals}, got); err != nil {
		return err
	}
	if err := (pinAllReducer{tee.r}).Reduce(key, &sliceValues{vals: vals}, want); err != nil {
		return err
	}
	if !slices.EqualFunc(got.vals, want.vals, bytes.Equal) {
		tee.fail("%s group %x: %d records differ from the oracle's %d", tee.name, key, len(got.vals), len(want.vals))
	}
	if !maps.Equal(got.counts, want.counts) {
		tee.fail("%s group %x: counters %v, the oracle's %v", tee.name, key, got.counts, want.counts)
	}
	tee.tally.Groups.Add(1)
	tee.tally.Records.Add(int64(len(got.vals)))
	if tee.r.mode == bucketedMode {
		tee.tally.Bucketed.Add(1)
	}
	if rights == 0 {
		tee.tally.LeftsOnly.Add(1)
	}
	for _, rec := range got.vals {
		if err := out.Collect(rec); err != nil {
			return err
		}
	}
	for name, n := range got.counts {
		out.Inc(name, n)
	}
	return nil
}

// TestJoinReducerLeftsWithoutRight feeds the reducer a bucket group with
// its lefts and no right: it collects nothing and pins nothing — every
// entry still holds its unpinned candidate — and still counts each in-bucket
// candidate as unnested, as the oracle does.
func TestJoinReducerLeftsWithoutRight(t *testing.T) {
	_, r, _, key, group := joinAllocFixture(t)
	var lefts [][]byte
	for _, v := range group {
		if v[0] == tagLeft {
			lefts = append(lefts, v)
		}
	}
	if len(lefts) == 0 || len(lefts) == len(group) {
		t.Fatalf("fixture: %d of %d values are lefts", len(lefts), len(group))
	}
	got, want := &pairSink{keep: true}, &pairSink{keep: true}
	task := r.NewTaskReducer(0).(*joinReduceTask)
	defer task.Done()
	if err := task.Reduce(key, &sliceValues{vals: lefts}, got); err != nil {
		t.Fatal(err)
	}
	x := task.x
	if err := (pinAllReducer{r}).Reduce(key, &sliceValues{vals: lefts}, want); err != nil {
		t.Fatal(err)
	}
	if len(got.vals) != 0 {
		t.Errorf("collected %d records from a group without a right", len(got.vals))
	}
	n := got.counts[CounterReduceUnnest]
	if n == 0 || n != want.counts[CounterReduceUnnest] {
		t.Errorf("%s = %d, the oracle's %d (want > 0)", CounterReduceUnnest, n, want.counts[CounterReduceUnnest])
	}
	if int64(len(x.entries)) != n {
		t.Errorf("index holds %d entries for %d in-bucket candidates", len(x.entries), n)
	}
	for i, e := range x.entries {
		if e.pair < 0 {
			t.Errorf("entry %d was pinned with no right in the group", i)
		}
	}
}

// JoinGroup is the largest reduce group one shuffled join saw in a run
// (RecordLargestJoinGroup), kept to be reduced again by one task reducer,
// as a reduce task attempt reduces its groups one after another.
type JoinGroup struct {
	r    *tgJoinReducer
	task mapreduce.TaskReducer
	mu   sync.Mutex
	key  []byte
	vals [][]byte
}

// RecordLargestJoinGroup makes the join node of p named name record its
// largest reduce group, by value count, as the plan runs.
func RecordLargestJoinGroup(p *plan.Physical, name string) (*JoinGroup, error) {
	for _, node := range p.Nodes() {
		if r, ok := node.Job.StreamReducer.(*tgJoinReducer); ok && node.Name == name {
			g := &JoinGroup{r: r, task: r.NewTaskReducer(0)}
			node.Job.StreamReducer = g
			return g, nil
		}
	}
	return nil, fmt.Errorf("no shuffled join named %s", name)
}

func (g *JoinGroup) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	var vals [][]byte
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		vals = append(vals, bytes.Clone(v))
	}
	g.mu.Lock()
	if len(vals) > len(g.vals) {
		g.key, g.vals = bytes.Clone(key), vals
	}
	g.mu.Unlock()
	return g.r.Reduce(key, &sliceValues{vals: vals}, out)
}

// Values returns how many values the recorded group holds.
func (g *JoinGroup) Values() int { return len(g.vals) }

// ReduceAgain reduces the recorded group once more, through the group's one
// task reducer, into a sink that keeps nothing, and returns how many records
// it collected.
func (g *JoinGroup) ReduceAgain() (int64, error) {
	var sink countingSink
	err := g.task.Reduce(g.key, &sliceValues{vals: g.vals}, &sink)
	return sink.records, err
}

type countingSink struct{ records int64 }

func (*countingSink) Inc(string, int64)          {}
func (c *countingSink) Collect(rec []byte) error { c.records++; return nil }
