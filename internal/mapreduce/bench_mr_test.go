package mapreduce

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"ntga/internal/hdfs"
)

func benchInput(b *testing.B, records, width int) *Engine {
	b.Helper()
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 8}), EngineConfig{SplitRecords: 4096})
	rng := rand.New(rand.NewSource(7))
	recs := make([][]byte, records)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("key%d value-%0*d", rng.Intn(records/10+1), width, i))
	}
	if err := e.DFS().WriteFile("in", recs); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkShuffleThroughput measures a full map-shuffle-reduce cycle over
// 100k small records (identity mapper keyed on the first token, counting
// reducer).
func BenchmarkShuffleThroughput(b *testing.B) {
	e := benchInput(b, 100000, 8)
	job := func(out string) *Job {
		return &Job{
			Name: "bench", Inputs: []string{"in"}, Output: out,
			Mapper: MapperFunc(func(_ string, r []byte, out Emitter) error {
				for i, c := range r {
					if c == ' ' {
						return out.Emit(r[:i], r[i+1:])
					}
				}
				return out.Emit(r, nil)
			}),
			StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
				n, err := countValues(values)
				if err != nil {
					return err
				}
				return out.Collect([]byte(fmt.Sprintf("%s=%d", key, n)))
			}),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("out%d", i)
		m, err := e.Run(job(out))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(m.MapOutputBytes)
		e.DFS().DeleteIfExists(out)
	}
}

// BenchmarkMapOnlyThroughput measures a filter-style map-only pass.
func BenchmarkMapOnlyThroughput(b *testing.B) {
	e := benchInput(b, 100000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("out%d", i)
		m, err := e.Run(&Job{
			Name: "filter", Inputs: []string{"in"}, Output: out,
			MapOnly: MapOnlyFunc(func(_ string, r []byte, c Collector) error {
				if len(r) > 0 && r[len(r)-1]%2 == 0 {
					return c.Collect(r)
				}
				return nil
			}),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(m.MapInputBytes)
		e.DFS().DeleteIfExists(out)
	}
}

// benchmarkSpill runs the shuffle benchmark job under a fixed map sort-buffer
// budget, reporting how much of the map output spilled to local disk and how
// many merge passes the bounded buffer forced.
func benchmarkSpill(b *testing.B, sortBufferBytes int64) {
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 8}), EngineConfig{
		SplitRecords:    4096,
		SortBufferBytes: sortBufferBytes,
	})
	rng := rand.New(rand.NewSource(7))
	recs := make([][]byte, 100000)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("key%d value-%08d", rng.Intn(len(recs)/10+1), i))
	}
	if err := e.DFS().WriteFile("in", recs); err != nil {
		b.Fatal(err)
	}
	job := func(out string) *Job {
		return &Job{
			Name: "bench-spill", Inputs: []string{"in"}, Output: out,
			Mapper: MapperFunc(func(_ string, r []byte, out Emitter) error {
				for i, c := range r {
					if c == ' ' {
						return out.Emit(r[:i], r[i+1:])
					}
				}
				return out.Emit(r, nil)
			}),
			StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
				n := 0
				for {
					_, ok, err := values.Next()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					n++
				}
				return out.Collect([]byte(fmt.Sprintf("%s=%d", key, n)))
			}),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var spilled, merges int64
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("out%d", i)
		m, err := e.Run(job(out))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(m.MapOutputBytes)
		spilled, merges = m.SpilledBytes, m.MergePasses
		e.DFS().DeleteIfExists(out)
	}
	b.ReportMetric(float64(spilled), "spilledB/op")
	b.ReportMetric(float64(merges), "mergePasses/op")
}

// BenchmarkSpill_* sweep the sort-buffer budget from unbounded down to a few
// KB over the same 100k-record shuffle, exposing the cost of spilling and
// external merging.
func BenchmarkSpill_Unbounded(b *testing.B) { benchmarkSpill(b, 0) }
func BenchmarkSpill_256KB(b *testing.B)     { benchmarkSpill(b, 256<<10) }
func BenchmarkSpill_64KB(b *testing.B)      { benchmarkSpill(b, 64<<10) }
func BenchmarkSpill_16KB(b *testing.B)      { benchmarkSpill(b, 16<<10) }
func BenchmarkSpill_4KB(b *testing.B)       { benchmarkSpill(b, 4<<10) }

// BenchmarkSortKVs isolates the shuffle sort over 200k distinct random
// 8-byte keys: buffering the pairs and sorting them.
func BenchmarkSortKVs(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	base := make([]KV, 200000)
	for i := range base {
		k := make([]byte, 8)
		v := make([]byte, 16)
		rng.Read(k)
		rng.Read(v)
		base[i] = KV{k, v}
	}
	var s sortBuffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bufferAndSort(b, &s, base)
	}
}

// BenchmarkSortKVsShuffleShaped sorts segments shaped like the NTGA
// grouping shuffle: uvarint subject keys of 1–3 bytes with about eight
// (property, object) values each, in arrival order. 600 pairs is about one
// partition's share of a spill, 5,000 a large final segment.
func BenchmarkSortKVsShuffleShaped(b *testing.B) {
	for _, n := range []int{600, 5000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			base := shuffleShapedKVs(n)
			var s sortBuffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bufferAndSort(b, &s, base)
			}
		})
	}
}

// bufferAndSort empties s, buffers kvs in it under 8 partitions, as a map
// task's emitter would, and sorts them.
func bufferAndSort(b *testing.B, s *sortBuffer, kvs []KV) {
	s.reset()
	for _, kv := range kvs {
		if err := s.add(HashPartitioner(kv.Key, 8), kv.Key, kv.Value); err != nil {
			b.Fatal(err)
		}
	}
	s.sort()
}

// shuffleShapedKVs builds n pairs over about n/8 subjects whose IDs encode
// as 1-, 2- or 3-byte uvarints; each value is a uvarint property from a
// small vocabulary followed by a uvarint object.
func shuffleShapedKVs(n int) []KV {
	rng := rand.New(rand.NewSource(5))
	subjects := make([][]byte, max(1, n/8))
	for i := range subjects {
		width := 7 * (1 + rng.Intn(3))
		subjects[i] = binary.AppendUvarint(nil, uint64(1<<(width-7)+rng.Intn(1<<width-1<<(width-7))))
	}
	kvs := make([]KV, n)
	for i := range kvs {
		v := binary.AppendUvarint(nil, uint64(rng.Intn(40)))
		v = binary.AppendUvarint(v, uint64(rng.Intn(1<<20)))
		kvs[i] = KV{subjects[rng.Intn(len(subjects))], v}
	}
	return kvs
}
