package mapreduce

import (
	"encoding/binary"
	"testing"

	"ntga/internal/hdfs"
)

// discardCollector drops every record.
type discardCollector struct{ Counters }

func (discardCollector) Collect([]byte) error { return nil }

// TestShuffleAllocationCeilings gates the shuffle's allocations per task
// attempt: a warm map attempt emitting pairs over 8 partitions and sealing
// them, and a reduce attempt merging 4 in-memory and 4 spilled segments.
// Each must cost the same at 1k pairs as at 10k; the ceilings carry the
// counts of the []KV shuffle before segments and now.
func TestShuffleAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	job := &Job{
		Name: "alloc", Inputs: []string{"in"}, Output: "out",
		StreamReducer: StreamReducerFunc(func(_ []byte, values ValueIter, _ Collector) error {
			_, err := countValues(values)
			return err
		}),
	}
	var kb, vb [2 * binary.MaxVarintLen64]byte
	emit := func(te *taskEmitter, i int) {
		k := binary.AppendUvarint(kb[:0], uint64(i*7919%(1+i/8)))
		v := binary.AppendUvarint(binary.AppendUvarint(vb[:0], uint64(i%40)), uint64(i))
		if err := te.Emit(k, v); err != nil {
			t.Fatal(err)
		}
	}
	mapAttempt := func(pairs int) float64 {
		return testing.AllocsPerRun(20, func() {
			te := newTaskEmitter(nil, job, 8, 0, 0, TaskHooks{})
			for i := 0; i < pairs; i++ {
				emit(te, i)
			}
			if err := te.seal(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 69 at 1k pairs and 104 at 10k → 3: the emitter, its segment list and
	// the one slab; the pairs were KVs in per-partition slices grown by
	// doubling and slab chunks, and are now framed in the pooled scratch.
	for _, pairs := range []int{1_000, 10_000} {
		got := mapAttempt(pairs)
		t.Logf("map attempt of %d pairs: %.0f allocations", pairs, got)
		if got > 3 {
			t.Errorf("map attempt of %d pairs: %.0f allocations, ceiling 3", pairs, got)
		}
	}

	// Four sealed in-memory segments and four spill runs of one partition.
	d := hdfs.New(hdfs.Config{Nodes: 2})
	var spills []*hdfs.Spill
	defer func() {
		for _, s := range spills {
			s.Release()
		}
	}()
	segments := func(pairs int) (mem, runs []Segment) {
		for k := 0; k < 8; k++ {
			te := newTaskEmitter(nil, job, 1, 0, 0, TaskHooks{})
			for i := k; i < pairs; i += 8 {
				emit(te, i)
			}
			if err := te.seal(); err != nil {
				t.Fatal(err)
			}
			if k < 4 {
				mem = append(mem, te.segs[0])
				continue
			}
			w := d.CreateSpillOn(k % 2)
			if _, err := w.Write(te.segs[0].Data); err != nil {
				t.Fatal(err)
			}
			spill := w.Close()
			spills = append(spills, spill)
			runs = append(runs, Segment{Pairs: te.segs[0].Pairs, Data: spill.Slice(0, int(spill.Size()))})
		}
		return mem, runs
	}
	col := &discardCollector{}
	reduceAttempt := func(pairs int) float64 {
		mem, runs := segments(pairs)
		return testing.AllocsPerRun(20, func() {
			g := newGroupIter()
			defer g.release()
			for _, seg := range mem {
				g.add(memSegSource(seg))
			}
			for i, seg := range runs {
				g.add(runSegSource(spills[len(spills)-len(runs)+i], seg))
			}
			st, err := runReduceTask(job, 0, g, col, TaskHooks{})
			if err != nil {
				t.Fatal(err)
			}
			if st.InPairs != int64(pairs) {
				t.Fatalf("reduce attempt merged %d pairs, want %d", st.InPairs, pairs)
			}
		})
	}
	// 20 → 0: a memSource per in-memory segment, a runSource and a
	// codec.Reader per spilled one, the source list, the merge heap and the
	// group iterator; the sources are now values in one pooled groupIter.
	for _, pairs := range []int{1_000, 10_000} {
		got := reduceAttempt(pairs)
		t.Logf("reduce attempt over 8 segments of %d pairs: %.0f allocations", pairs, got)
		if got > 0 {
			t.Errorf("reduce attempt over 8 segments of %d pairs: %.0f allocations, ceiling 0", pairs, got)
		}
	}
}
