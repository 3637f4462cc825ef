package mapreduce

import (
	"bytes"
	"errors"
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
	// Property: merging k sorted sources, a mix of in-memory segments and
	// spilled runs, and slicing the stream into groups yields the reference
	// order of their union, one group per distinct key.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := hdfs.New(hdfs.Config{Nodes: 2})
		var (
			sources []kvSource
			all     []KV
			s       kvSorter
		)
		for k := 1 + rng.Intn(6); k > 0; k-- {
			seg := boundaryKVs(rng, 80)
			if rng.Intn(5) == 0 {
				seg = nil
			}
			s.sort(seg)
			all = append(all, seg...)
			if rng.Intn(2) == 0 {
				sources = append(sources, &memSource{kvs: seg})
				continue
			}
			var enc codec.Buffer
			for _, p := range seg {
				enc.PutBytes(p.Key)
				enc.PutBytes(p.Value)
			}
			w := d.CreateSpillOn(rng.Intn(2))
			if _, err := w.Write(enc.Bytes()); err != nil {
				t.Fatal(err)
			}
			sources = append(sources, newRunSource(w.Close(), runSeg{len: len(enc.Bytes()), records: len(seg)}))
		}
		want := refSorted(all)
		mi, err := newMergeIter(sources)
		if err != nil {
			t.Fatal(err)
		}
		g, err := newGroupIter(mi)
		if err != nil {
			t.Fatal(err)
		}
		var got []KV
		groups, distinct := 0, 0
		for i := range want {
			if i == 0 || !bytes.Equal(want[i].Key, want[i-1].Key) {
				distinct++
			}
		}
		vals := &groupValues{g: g}
		for g.ok {
			key := g.cur.Key
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

// FuzzShuffleOrder runs arbitrary pairs through a whole job with a sort
// buffer of at most 64 bytes and a merge factor of 2, so that map tasks
// spill often and reduce tasks merge in several passes, and checks that
// each reducer sees exactly its partition's pairs in the reference order.
func FuzzShuffleOrder(f *testing.F) {
	f.Add(uint8(0), uint8(2), []byte("\x02ab\x01v\x03ab\x00\x01v\x00\x00\x08abcdefgh\x00\x09abcdefghi\x01z"))
	f.Add(uint8(40), uint8(0), []byte("\x01\x05\x02\x01\x07\x01\x05\x02\x01\x06\x02\x85\x01\x02\x01\x07"))
	f.Fuzz(func(t *testing.T, budget, reducers uint8, data []byte) {
		pairs := fuzzPairs(data)
		nReducers := 1 + int(reducers%4)
		recs := make([][]byte, len(pairs))
		parts := make([][]KV, nReducers)
		for i, p := range pairs {
			recs[i] = pairRecord(p.Key, p.Value)
			r := HashPartitioner(p.Key, nReducers)
			parts[r] = append(parts[r], p)
		}
		var want [][]byte
		for _, part := range parts {
			for _, p := range refSorted(part) {
				want = append(want, pairRecord(p.Key, p.Value))
			}
		}
		e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{
			SplitRecords: 3, DefaultReducers: nReducers,
			SortBufferBytes: 1 + int64(budget%64), MergeFactor: 2,
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
				return out.Emit(k, v)
			}),
			StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
				for {
					v, ok, err := values.Next()
					if err != nil || !ok {
						return err
					}
					if err := out.Collect(pairRecord(key, v)); err != nil {
						return err
					}
				}
			}),
		}
		if _, err := e.Run(job); err != nil {
			t.Fatal(err)
		}
		out, err := e.DFS().ReadAll("out")
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(want) {
			t.Fatalf("reducers saw %d pairs, want %d", len(out), len(want))
		}
		for i := range want {
			if !bytes.Equal(out[i], want[i]) {
				t.Fatalf("pair %d: reducers saw %x, want %x", i, out[i], want[i])
			}
		}
		if used := e.DFS().SpillUsed(); used != 0 {
			t.Fatalf("SpillUsed after job = %d, want 0", used)
		}
	})
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
