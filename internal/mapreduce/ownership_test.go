package mapreduce

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"ntga/internal/chunk"
	"ntga/internal/hdfs"
)

// raceEnabled is set by race_test.go: allocation ceilings mean nothing under
// the race detector, whose instrumentation allocates.
var raceEnabled bool

// TestHashPartitionerMatchesFNV pins the inlined loop to hash/fnv's 32-bit
// FNV-1a, so partition assignment — and with it every part file, the byte-skew
// metrics and the EXPLAIN goldens — stays bit-identical.
func TestHashPartitionerMatchesFNV(t *testing.T) {
	keys := [][]byte{nil, {}, []byte("n"), bytes.Repeat([]byte{0xff}, 1<<10)}
	for n := 1; n <= binary.MaxVarintLen64; n++ {
		keys = append(keys, binary.AppendUvarint(nil, 1<<(7*uint(n)-1)-uint64(n)))
	}
	for i := uint64(0); i < 300; i++ {
		keys = append(keys, binary.AppendUvarint(nil, i*i*2654435761))
	}
	for _, key := range keys {
		h := fnv.New32a()
		h.Write(key)
		for _, n := range []int{1, 2, 3, 4, 7, 64, 1 << 20} {
			if got, want := HashPartitioner(key, n), int(h.Sum32()%uint32(n)); got != want {
				t.Fatalf("HashPartitioner(%x, %d) = %d, hash/fnv says %d", key, n, got, want)
			}
		}
	}
}

// TestEmitAmortisedAllocs: Emit copies both buffers into the attempt's sort
// buffer, so a pair costs only the buffer's amortised growth (and nothing
// once a pooled buffer has grown). Before slabs: 2.01 allocations per pair
// (one copy each of key and value); with slabs and per-partition pair
// slices: 0.012.
func TestEmitAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	job := &Job{Name: "j", Inputs: []string{"in"}, Output: "out"}
	const pairs = 64 * 64
	var kb, vb [binary.MaxVarintLen64]byte
	perPair := testing.AllocsPerRun(10, func() {
		te := newTaskEmitter(nil, job, 4, 0, 0, TaskHooks{})
		for i := 0; i < pairs; i++ {
			k := binary.AppendUvarint(kb[:0], uint64(i))
			v := binary.AppendUvarint(vb[:0], uint64(i*7))
			if err := te.Emit(k, v); err != nil {
				t.Fatal(err)
			}
		}
	}) / pairs
	if perPair > 1.0/64 {
		t.Errorf("Emit costs %.3f allocations per pair, want at most 1 per 64 pairs", perPair)
	}
}

// TestMemCollectorAllocsWithinChunks: MemCollector copies records into
// chunked slabs sized by chunk.Next, so collecting 10k records costs the
// chunks those bytes fill plus the growth of the record list — not one
// allocation per record.
func TestMemCollectorAllocsWithinChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	job := &Job{Name: "j", Inputs: []string{"in"}, Output: "out"}
	const records, size = 10_000, 24
	rec := bytes.Repeat([]byte("r"), size)
	chunks, free := 0, 0
	for c, i := 0, 0; i < records; i++ {
		if free < size {
			c = chunk.Next(c, size)
			chunks, free = chunks+1, c
		}
		free -= size
	}
	var list [][]byte
	growth := 0
	for i := 0; i < records; i++ {
		if len(list) == cap(list) {
			growth++
		}
		list = append(list, nil)
	}
	allocs := testing.AllocsPerRun(10, func() {
		col := NewMemCollector(job)
		for i := 0; i < records; i++ {
			if err := col.Collect(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	// NewMemCollector itself allocates the collector, its output list and
	// its slot map.
	if bound := float64(chunks + growth + 3); allocs > bound {
		t.Errorf("collecting %d records costs %.0f allocations, want at most %.0f (%d chunks, %d list growths)", records, allocs, bound, chunks, growth)
	}
}

// TestEmitCopiesAndValuesOutliveGroup is the ownership contract from both
// ends: a mapper that scribbles over its key and value buffers the moment
// Emit returns (with a sort buffer small enough to spill mid-task, and
// without one), and a reducer that holds on to every ValueIter value until
// its group ends. The output must be what an independent computation says,
// and byte-identical to what the engine wrote before the emitter moved to
// slabs (the pinned digest was generated at commit 39acfa2).
func TestEmitCopiesAndValuesOutliveGroup(t *testing.T) {
	const n, nKeys = 500, 7
	input := make([][]byte, n)
	for i := range input {
		input[i] = binary.AppendUvarint(nil, uint64(i))
	}
	job := func() *Job {
		var kb, vb []byte // shared by every map call of a task: tasks run one at a time below
		return &Job{
			Name: "ownership", Inputs: []string{"in"}, Output: "out", NumReducers: 3,
			Mapper: MapperFunc(func(_ string, rec []byte, out Emitter) error {
				i, _ := binary.Uvarint(rec)
				kb = fmt.Appendf(kb[:0], "key-%d", i%nKeys)
				vb = fmt.Appendf(vb[:0], "value-%04d-%s", i, bytes.Repeat([]byte("x"), int(i%11)))
				err := out.Emit(kb, vb)
				for j := range kb {
					kb[j] = '!'
				}
				for j := range vb {
					vb[j] = '?'
				}
				return err
			}),
			StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
				var held [][]byte
				for {
					v, ok, err := values.Next()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					held = append(held, v)
				}
				return out.Collect(append(append([]byte(nil), key...), bytes.Join(held, []byte("|"))...))
			}),
		}
	}
	want := map[string]bool{}
	for k := 0; k < nKeys; k++ {
		var vals [][]byte
		for i := k; i < n; i += nKeys {
			vals = append(vals, []byte(fmt.Sprintf("value-%04d-%s", i, bytes.Repeat([]byte("x"), i%11))))
		}
		want[fmt.Sprintf("key-%d", k)+string(bytes.Join(vals, []byte("|")))] = true
	}
	for _, sortBuffer := range []int64{0, 256} {
		e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{
			SplitRecords: 100, DefaultReducers: 3, Slots: newCountingPool(1), SortBufferBytes: sortBuffer, MergeFactor: 3,
		})
		if err := e.DFS().WriteFile("in", input); err != nil {
			t.Fatal(err)
		}
		m, err := e.Run(job())
		if err != nil {
			t.Fatal(err)
		}
		if spilled := m.SpilledBytes > 0; spilled != (sortBuffer > 0) {
			t.Errorf("sort buffer %d: spilled %d bytes", sortBuffer, m.SpilledBytes)
		}
		recs, err := e.DFS().ReadAll("out")
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != nKeys {
			t.Fatalf("sort buffer %d: %d output records, want %d", sortBuffer, len(recs), nKeys)
		}
		for _, r := range recs {
			if !want[string(r)] {
				t.Fatalf("sort buffer %d: unexpected output record %.60q…", sortBuffer, r)
			}
		}
		const pinned = "f5b67426f95cf3c6b047775b6f9ffe3450e09930a9ca3504fb664310667bd492"
		if got := fmt.Sprintf("%x", sha256.Sum256(bytes.Join(recs, []byte("\n")))); got != pinned {
			t.Errorf("sort buffer %d: output digest %s, pinned %s", sortBuffer, got, pinned)
		}
	}
}
