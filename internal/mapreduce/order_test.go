package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ntga/internal/codec"
	"ntga/internal/hdfs"
)

// refSorted returns a copy of kvs in the reference shuffle order: a stable
// sort by bytes.Compare on key, then value.
func refSorted(kvs []KV) []KV {
	out := append([]KV(nil), kvs...)
	sort.SliceStable(out, func(i, j int) bool { return compareKV(&out[i], &out[j]) < 0 })
	return out
}

func TestKeyPrefixOrder(t *testing.T) {
	// Property: a lower prefix means a lower slice, and equal exact prefixes
	// mean equal slices, on slices around the 8-byte boundary.
	f := func(seed int64) bool {
		kvs := boundaryKVs(rand.New(rand.NewSource(seed)), 60)
		for _, x := range kvs {
			for _, y := range kvs {
				px, py := keyPrefix(x.Key), keyPrefix(y.Key)
				c := bytes.Compare(x.Key, y.Key)
				if px < py && c >= 0 || px == py && byte(px) < 8 && c != 0 {
					t.Logf("%q (%016x) vs %q (%016x): bytes.Compare = %d", x.Key, px, y.Key, py, c)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMergeGroupsProperties(t *testing.T) {
	// Property: merging k sorted segments, a mix of in-memory segments and
	// spilled runs, and slicing the stream into groups yields the reference
	// order of their union, one group per distinct key.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := hdfs.New(hdfs.Config{Nodes: 2})
		var all []KV
		g := newGroupIter()
		defer g.release()
		for k := 1 + rng.Intn(6); k > 0; k-- {
			pairs := boundaryKVs(rng, 80)
			if rng.Intn(5) == 0 {
				pairs = nil
			}
			all = append(all, pairs...)
			seg := segmentOf(refSorted(pairs))
			if rng.Intn(2) == 0 {
				g.add(memSegSource(seg))
				continue
			}
			w := d.CreateSpillOn(rng.Intn(2))
			if _, err := w.Write(seg.Data); err != nil {
				t.Fatal(err)
			}
			spill := w.Close()
			g.add(runSegSource(spill, Segment{Pairs: seg.Pairs, Data: spill.Slice(0, len(seg.Data))}))
		}
		want := refSorted(all)
		if err := g.start(); err != nil {
			t.Fatal(err)
		}
		var got []KV
		groups, distinct := 0, 0
		for i := range want {
			if i == 0 || !bytes.Equal(want[i].Key, want[i-1].Key) {
				distinct++
			}
		}
		vals := &g.vals
		for g.ok {
			key := g.key()
			vals.key, vals.head, vals.done = key, true, false
			groups++
			for {
				v, ok, err := vals.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got = append(got, KV{key, v})
			}
		}
		return sameKVs(got, want) && groups == distinct && g.pairs == int64(len(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// segmentOf frames pairs, in the order given, as one segment.
func segmentOf(kvs []KV) Segment {
	var data []byte
	for _, kv := range kvs {
		data = appendPair(data, kv.Key, kv.Value)
	}
	return Segment{Pairs: len(kvs), Data: data}
}

// fuzzPairs reads pairs from data as a length byte (mod 21) and that many
// bytes for the key, then the same for the value, until data runs out or
// there are 256 pairs. The cap keeps one input fast: under a merge factor
// of 2 the reduce side re-merges its runs in a chain, in time quadratic in
// their number.
func fuzzPairs(data []byte) []KV {
	var kvs []KV
	field := func() []byte {
		n := min(int(data[0])%21, len(data)-1)
		b := data[1 : 1+n]
		data = data[1+n:]
		return b
	}
	for len(data) > 0 && len(kvs) < 256 {
		k := field()
		var v []byte
		if len(data) > 0 {
			v = field()
		}
		kvs = append(kvs, KV{k, v})
	}
	return kvs
}

// pairRecord frames a pair as one record.
func pairRecord(key, value []byte) []byte {
	var enc codec.Buffer
	enc.PutBytes(key)
	enc.PutBytes(value)
	return enc.Bytes()
}

// fuzzBudget maps a fuzzed byte to a sort buffer budget: mostly 1–64 bytes,
// so that map tasks spill often; 0 (unbounded), so that every pair stays in
// the sealed segments; or 1 MiB, more than any input holds.
func fuzzBudget(b uint8) int64 {
	switch {
	case b < 128:
		return 1 + int64(b%64)
	case b < 192:
		return 0
	default:
		return 1 << 20
	}
}

// weight is the count a pair stands for under the fuzzed combiner: one more
// than the sum of its value's bytes.
func weight(v []byte) uint64 {
	w := uint64(1)
	for _, c := range v {
		w += uint64(c)
	}
	return w
}

// splitSum is the fuzzed combiner: it sums a key's uvarint counts and hands
// the total back as two counts, the bytewise larger first, so the engine
// must re-sort what a combiner returns.
var splitSum = CombinerFunc(func(_ []byte, values [][]byte) ([][]byte, error) {
	var total uint64
	for _, v := range values {
		n, k := binary.Uvarint(v)
		if k <= 0 {
			return nil, errors.New("bad count")
		}
		total += n
	}
	if total < 2 {
		return [][]byte{binary.AppendUvarint(nil, total)}, nil
	}
	a, b := binary.AppendUvarint(nil, total-total/2), binary.AppendUvarint(nil, total/2)
	if bytes.Compare(a, b) < 0 {
		a, b = b, a
	}
	return [][]byte{a, b}, nil
})

// FuzzShuffleOrder runs arbitrary pairs through a whole job, with a sort
// buffer that is tiny (so that map tasks spill often and reduce tasks merge
// in several passes under a merge factor of 2), unbounded or larger than
// the input, and checks that each reducer sees exactly its partition's pairs
// in the reference order. The same job then runs the way a cluster worker
// runs it — RunMapTask per split, RunReduceTask over the sealed segments —
// and must give the same bytes. Bit 2 of the reducers byte adds a summing
// combiner: the mapper then emits each pair's weight, and each reducer must
// see every key once, its values in order, summing to the key's total.
func FuzzShuffleOrder(f *testing.F) {
	stems := []byte("\x02ab\x01v\x03ab\x00\x01v\x00\x00\x08abcdefgh\x00\x09abcdefghi\x01z")
	subjects := []byte("\x01\x05\x02\x01\x07\x01\x05\x02\x01\x06\x02\x85\x01\x02\x01\x07")
	f.Add(uint8(0), uint8(2), stems)
	f.Add(uint8(40), uint8(0), subjects)
	f.Add(uint8(128), uint8(2), stems)    // unbounded
	f.Add(uint8(192), uint8(1), subjects) // larger than the input
	f.Add(uint8(3), uint8(5), subjects)   // combiner, spilling
	f.Add(uint8(130), uint8(7), stems)    // combiner, unbounded
	f.Fuzz(func(t *testing.T, budget, reducers uint8, data []byte) {
		pairs := fuzzPairs(data)
		nReducers := 1 + int(reducers%4)
		combine := reducers&4 != 0
		recs := make([][]byte, len(pairs))
		parts := make([][]KV, nReducers)
		for i, p := range pairs {
			recs[i] = pairRecord(p.Key, p.Value)
			r := HashPartitioner(p.Key, nReducers)
			parts[r] = append(parts[r], p)
		}
		var want [][]byte
		for _, part := range parts {
			sorted := refSorted(part)
			for i, p := range sorted {
				if !combine {
					want = append(want, pairRecord(p.Key, p.Value))
					continue
				}
				if i > 0 && bytes.Equal(p.Key, sorted[i-1].Key) {
					continue
				}
				var total uint64
				for _, q := range sorted[i:] {
					if !bytes.Equal(q.Key, p.Key) {
						break
					}
					total += weight(q.Value)
				}
				want = append(want, pairRecord(p.Key, binary.AppendUvarint(nil, total)))
			}
		}
		e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{
			SplitRecords: 3, DefaultReducers: nReducers,
			SortBufferBytes: fuzzBudget(budget), MergeFactor: 2,
		})
		if err := e.DFS().WriteFile("in", recs); err != nil {
			t.Fatal(err)
		}
		job := &Job{
			Name: "order", Inputs: []string{"in"}, Output: "out",
			Mapper: MapperFunc(func(_ string, rec []byte, out Emitter) error {
				r := codec.NewReader(rec)
				k, err := r.Bytes()
				if err != nil {
					return err
				}
				v, err := r.Bytes()
				if err != nil {
					return err
				}
				if combine {
					v = binary.AppendUvarint(nil, weight(v))
				}
				return out.Emit(k, v)
			}),
			StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
				var total uint64
				var prev []byte
				for {
					v, ok, err := values.Next()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					if !combine {
						if err := out.Collect(pairRecord(key, v)); err != nil {
							return err
						}
						continue
					}
					if prev != nil && bytes.Compare(prev, v) > 0 {
						return fmt.Errorf("key %x: value %x follows %x", key, v, prev)
					}
					prev = v
					n, _ := binary.Uvarint(v)
					total += n
				}
				if combine {
					return out.Collect(pairRecord(key, binary.AppendUvarint(nil, total)))
				}
				return nil
			}),
		}
		if combine {
			job.Combiner = splitSum
		}
		if _, err := e.Run(job); err != nil {
			t.Fatal(err)
		}
		out, err := e.DFS().ReadAll("out")
		if err != nil {
			t.Fatal(err)
		}
		checkPairs(t, "engine", out, want)
		if used := e.DFS().SpillUsed(); used != 0 {
			t.Fatalf("SpillUsed after job = %d, want 0", used)
		}

		var maps [][]Segment
		for off := 0; off < len(recs) || off == 0; off += 3 {
			mo, err := RunMapTask(job, len(maps), "in", nReducers, NewSliceSource(recs[off:min(off+3, len(recs))]), TaskHooks{})
			if err != nil {
				t.Fatal(err)
			}
			maps = append(maps, mo.Parts)
		}
		out = out[:0]
		for p := 0; p < nReducers; p++ {
			segs := make([]Segment, len(maps))
			for i := range maps {
				segs[i] = maps[i][p]
			}
			col := NewMemCollector(job)
			if _, err := RunReduceTask(job, p, segs, col, TaskHooks{}); err != nil {
				t.Fatal(err)
			}
			out = append(out, col.Outputs[0]...)
		}
		checkPairs(t, "worker bodies", out, want)
	})
}

// checkPairs fails the test unless the records reducers wrote are want.
func checkPairs(t *testing.T, path string, out, want [][]byte) {
	t.Helper()
	if len(out) != len(want) {
		t.Fatalf("%s: reducers wrote %d records, want %d", path, len(out), len(want))
	}
	for i := range want {
		if !bytes.Equal(out[i], want[i]) {
			t.Fatalf("%s: record %d: reducers wrote %x, want %x", path, i, out[i], want[i])
		}
	}
}

func TestSpillRunCrossingDiskCapFails(t *testing.T) {
	// A spill run whose partition segments each fit the node's local disk
	// but together cross LocalSpillPerNode fails the job with ErrDiskFull,
	// and every spill byte is released.
	d := hdfs.New(hdfs.Config{Nodes: 4, LocalSpillPerNode: 150})
	e := NewEngine(d, EngineConfig{SplitRecords: 8, DefaultReducers: 4, SortBufferBytes: 200})
	if err := d.WriteFile("in", [][]byte{[]byte("seed")}); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name: "crossing", Inputs: []string{"in"}, Output: "out",
		// One 53-byte framed pair per partition; the fourth fills the 200-byte
		// buffer, and the run's third segment crosses the 150-byte disk.
		Mapper: MapperFunc(func(_ string, _ []byte, out Emitter) error {
			for k := byte(0); k < 4; k++ {
				if err := out.Emit([]byte{k}, bytes.Repeat([]byte("x"), 50)); err != nil {
					return err
				}
			}
			return nil
		}),
		StreamReducer: StreamReducerFunc(func(key []byte, _ ValueIter, out Collector) error {
			return out.Collect(key)
		}),
		Partitioner: func(key []byte, n int) int { return int(key[0]) % n },
	}
	_, err := e.Run(job)
	if !errors.Is(err, hdfs.ErrDiskFull) {
		t.Fatalf("err = %v, want ErrDiskFull", err)
	}
	if used := d.SpillUsed(); used != 0 {
		t.Errorf("SpillUsed after failed job = %d, want 0", used)
	}
	if m := d.Metrics(); m.SpillFilesCreated != m.SpillFilesReleased {
		t.Errorf("spill files created %d != released %d", m.SpillFilesCreated, m.SpillFilesReleased)
	}
	if d.Exists("out") {
		t.Error("failed job left output")
	}
}
