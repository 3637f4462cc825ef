package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"ntga/internal/chunk"
)

func TestCreateWriteRead(t *testing.T) {
	d := New(Config{Nodes: 3, BlockSize: 64, Replication: 2})
	recs := [][]byte{[]byte("hello"), []byte("world"), {}}
	if err := d.WriteFile("f", recs); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := d.ReadAll("f")
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 3 || !bytes.Equal(got[0], recs[0]) || !bytes.Equal(got[1], recs[1]) || len(got[2]) != 0 {
		t.Errorf("ReadAll = %q", got)
	}
	size, err := d.FileSize("f")
	if err != nil || size != 10 {
		t.Errorf("FileSize = %d, %v; want 10", size, err)
	}
	n, err := d.RecordCount("f")
	if err != nil || n != 3 {
		t.Errorf("RecordCount = %d, %v; want 3", n, err)
	}
}

func TestWriterCopiesRecords(t *testing.T) {
	d := New(Config{Nodes: 1})
	w, err := d.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("abc")
	if err := w.Append(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // mutate caller's buffer after append
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadAll("f")
	if string(got[0]) != "abc" {
		t.Errorf("record = %q, want %q (writer must copy)", got[0], "abc")
	}
}

// raceEnabled is set by race_test.go: allocation counts mean nothing under
// the race detector.
var raceEnabled bool

// TestWriterRecordsDoNotShareGrowth: records are copied into shared chunks,
// each clipped to its own length, so appending to one record a reader got
// reallocates instead of writing into the record after it.
func TestWriterRecordsDoNotShareGrowth(t *testing.T) {
	d := New(Config{Nodes: 1})
	var recs [][]byte
	for i := 0; i < 3000; i++ { // crosses several chunk boundaries
		recs = append(recs, []byte(fmt.Sprintf("record-%d", i)))
	}
	recs = append(recs, bytes.Repeat([]byte("x"), 3*chunk.Max), []byte("after"))
	if err := d.WriteFile("f", recs); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadAll("f")
	for i := range got[:len(got)-1] {
		_ = append(got[i], '!')
	}
	for i, rec := range got {
		if !bytes.Equal(rec, recs[i]) || cap(rec) != len(rec) {
			t.Fatalf("record %d = %.20q (cap %d), want %.20q", i, rec, cap(rec), recs[i])
		}
	}
}

// TestWriterAppendAmortisedAllocs: Append copies into chunks, so a record
// costs a small fraction of an allocation (it was one allocation per record).
func TestWriterAppendAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := New(Config{Nodes: 2, BlockSize: 1 << 20})
	w, err := d.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	rec := []byte("a sixteen-byte r")
	if got := testing.AllocsPerRun(20000, func() { _ = w.Append(rec) }); got > 1.0/64 {
		t.Errorf("%.4f allocations per appended record, ceiling 1/64", got)
	}
}

func TestMetricsAndReplicationAccounting(t *testing.T) {
	d := New(Config{Nodes: 3, BlockSize: 8, Replication: 3})
	if err := d.WriteFile("f", [][]byte{make([]byte, 20)}); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.BytesWritten != 20 {
		t.Errorf("BytesWritten = %d, want 20", m.BytesWritten)
	}
	if m.PhysicalBytesWritten != 60 {
		t.Errorf("PhysicalBytesWritten = %d, want 60", m.PhysicalBytesWritten)
	}
	if d.Used() != 60 {
		t.Errorf("Used = %d, want 60", d.Used())
	}
	if _, err := d.ReadAll("f"); err != nil {
		t.Fatal(err)
	}
	m = d.Metrics()
	if m.BytesRead != 20 {
		t.Errorf("BytesRead = %d, want 20", m.BytesRead)
	}
	if m.RecordsRead != 1 || m.RecordsWritten != 1 {
		t.Errorf("records read/written = %d/%d, want 1/1", m.RecordsRead, m.RecordsWritten)
	}
	d.ResetMetrics()
	if d.Metrics() != (Metrics{}) {
		t.Error("ResetMetrics did not zero counters")
	}
	if d.Used() != 60 {
		t.Error("ResetMetrics must not free storage")
	}
}

func TestDiskFullOnWrite(t *testing.T) {
	// 2 nodes x 100 bytes, replication 2 => at most 100 logical bytes fit.
	d := New(Config{Nodes: 2, CapacityPerNode: 100, BlockSize: 10, Replication: 2})
	w, err := d.Create("big")
	if err != nil {
		t.Fatal(err)
	}
	var failed error
	for i := 0; i < 30; i++ {
		if err := w.Append(make([]byte, 10)); err != nil {
			failed = err
			break
		}
	}
	if failed == nil {
		failed = w.Close()
	}
	if !errors.Is(failed, ErrDiskFull) {
		t.Fatalf("expected ErrDiskFull, got %v", failed)
	}
	// Abort must free everything the failed writer placed.
	w.Abort()
	if d.Used() != 0 {
		t.Errorf("Used = %d after abort, want 0", d.Used())
	}
	if d.Exists("big") {
		t.Error("aborted file still exists")
	}
}

func TestDiskFullRespectsReplication(t *testing.T) {
	// Same capacity, replication 1: 200 logical bytes fit.
	d1 := New(Config{Nodes: 2, CapacityPerNode: 100, BlockSize: 10, Replication: 1})
	if err := d1.WriteFile("f", [][]byte{make([]byte, 150)}); err != nil {
		t.Errorf("rep=1 write of 150 bytes failed: %v", err)
	}
	d2 := New(Config{Nodes: 2, CapacityPerNode: 100, BlockSize: 10, Replication: 2})
	if err := d2.WriteFile("f", [][]byte{make([]byte, 150)}); !errors.Is(err, ErrDiskFull) {
		t.Errorf("rep=2 write of 150 bytes: got %v, want ErrDiskFull", err)
	}
	// The failed WriteFile must have cleaned up.
	if d2.Used() != 0 || d2.Exists("f") {
		t.Errorf("failed WriteFile left state: used=%d exists=%v", d2.Used(), d2.Exists("f"))
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	d := New(Config{Nodes: 2, CapacityPerNode: 100, BlockSize: 16, Replication: 2})
	if err := d.WriteFile("a", [][]byte{make([]byte, 80)}); err != nil {
		t.Fatal(err)
	}
	// A second file of 80 bytes cannot fit...
	if err := d.WriteFile("b", [][]byte{make([]byte, 80)}); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("expected ErrDiskFull, got %v", err)
	}
	// ...until the first is deleted.
	if err := d.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("b", [][]byte{make([]byte, 80)}); err != nil {
		t.Errorf("write after delete failed: %v", err)
	}
	// Two deletions: the aborted first attempt at "b", then the explicit
	// Delete of "a".
	m := d.Metrics()
	if m.FilesDeleted != 2 {
		t.Errorf("FilesDeleted = %d, want 2", m.FilesDeleted)
	}
}

func TestErrors(t *testing.T) {
	d := New(Config{Nodes: 1})
	if _, err := d.ReadAll("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadAll(missing) = %v", err)
	}
	if err := d.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(missing) = %v", err)
	}
	if _, err := d.FileSize("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("FileSize(missing) = %v", err)
	}
	if err := d.WriteFile("f", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("f"); !errors.Is(err, ErrExists) {
		t.Errorf("Create(existing) = %v", err)
	}
	d.DeleteIfExists("nope") // must not panic
}

func TestClosedWriter(t *testing.T) {
	d := New(Config{Nodes: 1})
	w, _ := d.Create("f")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("x")); err == nil {
		t.Error("Append after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestList(t *testing.T) {
	d := New(Config{Nodes: 1})
	for _, n := range []string{"c", "a", "b"} {
		if err := d.WriteFile(n, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := d.List()
	want := []string{"a", "b", "c"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("List = %v, want %v", got, want)
	}
}

func TestBlockPlacementBalances(t *testing.T) {
	d := New(Config{Nodes: 4, BlockSize: 10, Replication: 1})
	if err := d.WriteFile("f", [][]byte{make([]byte, 400)}); err != nil {
		t.Fatal(err)
	}
	// 40 blocks over 4 nodes with most-free placement: perfectly balanced.
	for i, u := range d.used {
		if u != 100 {
			t.Errorf("node %d used %d, want 100", i, u)
		}
	}
}

func TestConcurrentWriters(t *testing.T) {
	d := New(Config{Nodes: 4, BlockSize: 64})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", i)
			recs := make([][]byte, 50)
			for j := range recs {
				recs[j] = bytes.Repeat([]byte{byte(i)}, 10)
			}
			errs[i] = d.WriteFile(name, recs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if got := d.Metrics().BytesWritten; got != 8*50*10 {
		t.Errorf("BytesWritten = %d, want %d", got, 8*50*10)
	}
}

func TestReplicationExceedsNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with replication > nodes did not panic")
		}
	}()
	New(Config{Nodes: 2, Replication: 3})
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{
		BytesRead: 1, BytesWritten: 2, PhysicalBytesWritten: 3, RecordsRead: 4,
		RecordsWritten: 5, FilesCreated: 6, FilesDeleted: 7,
		SpillBytesWritten: 8, SpillBytesRead: 9, SpillFilesCreated: 10, SpillFilesReleased: 11,
	}
	b := a
	a.Add(b)
	want := Metrics{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestPeakUsedTracksHighWater(t *testing.T) {
	d := New(Config{Nodes: 2, BlockSize: 16, Replication: 1})
	if err := d.WriteFile("a", [][]byte{make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("b", [][]byte{make([]byte, 60)}); err != nil {
		t.Fatal(err)
	}
	peak := d.PeakUsed()
	if peak != 160 {
		t.Errorf("PeakUsed = %d, want 160", peak)
	}
	// Deleting frees space but not the high-water mark.
	if err := d.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if d.PeakUsed() != 160 {
		t.Errorf("PeakUsed after delete = %d, want 160", d.PeakUsed())
	}
	// ResetPeak snaps the mark to current usage.
	d.ResetPeak()
	if d.PeakUsed() != 60 {
		t.Errorf("PeakUsed after reset = %d, want 60", d.PeakUsed())
	}
}

func TestConfigAndCapacityAccessors(t *testing.T) {
	d := New(Config{Nodes: 3, CapacityPerNode: 100, BlockSize: 8, Replication: 2})
	cfg := d.Config()
	if cfg.Nodes != 3 || cfg.Replication != 2 {
		t.Errorf("Config = %+v", cfg)
	}
	if d.Capacity() != 300 {
		t.Errorf("Capacity = %d, want 300", d.Capacity())
	}
	unbounded := New(Config{Nodes: 2})
	if unbounded.Capacity() != 0 {
		t.Errorf("unbounded Capacity = %d, want 0", unbounded.Capacity())
	}
}

// TestAccountingInvariantsQuick drives random write/delete sequences and
// checks the core invariants after every step: Used() equals the sum of
// live file sizes × replication, and PeakUsed never decreases below Used.
func TestAccountingInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rep := 1 + rng.Intn(3)
		d := New(Config{Nodes: 3, BlockSize: int64(8 + rng.Intn(64)), Replication: rep})
		live := map[string]int64{}
		next := 0
		for step := 0; step < 40; step++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				name := fmt.Sprintf("f%d", next)
				next++
				var size int64
				recs := make([][]byte, rng.Intn(5))
				for i := range recs {
					recs[i] = make([]byte, rng.Intn(50))
					size += int64(len(recs[i]))
				}
				if err := d.WriteFile(name, recs); err != nil {
					return false
				}
				live[name] = size
			} else {
				for name := range live {
					if err := d.Delete(name); err != nil {
						return false
					}
					delete(live, name)
					break
				}
			}
			var want int64
			for _, sz := range live {
				want += sz * int64(rep)
			}
			if d.Used() != want {
				t.Logf("seed %d step %d: Used=%d want=%d", seed, step, d.Used(), want)
				return false
			}
			if d.PeakUsed() < d.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeletePrefix(t *testing.T) {
	d := New(Config{Nodes: 2, BlockSize: 8, Replication: 2})
	write := func(name, data string) {
		t.Helper()
		if err := d.WriteFile(name, [][]byte{[]byte(data)}); err != nil {
			t.Fatal(err)
		}
	}
	write("_tmp/wf-1/job/map-00000/0/spill", "aaaaaaaaaaaa")
	write("_tmp/wf-1/job/red-00001/2/part", "bbbb")
	write("_tmp/wf-2/job/map-00000/0/spill", "cccc")
	write("out/final", "dddd")
	before := d.Used()

	files, bytes := d.DeletePrefix("_tmp/wf-1/")
	if files != 2 {
		t.Errorf("DeletePrefix files = %d, want 2", files)
	}
	if bytes <= 0 {
		t.Errorf("DeletePrefix bytes = %d, want > 0", bytes)
	}
	for _, gone := range []string{"_tmp/wf-1/job/map-00000/0/spill", "_tmp/wf-1/job/red-00001/2/part"} {
		if d.Exists(gone) {
			t.Errorf("%s survived DeletePrefix", gone)
		}
	}
	for _, kept := range []string{"_tmp/wf-2/job/map-00000/0/spill", "out/final"} {
		if !d.Exists(kept) {
			t.Errorf("%s deleted by DeletePrefix of unrelated prefix", kept)
		}
	}
	// Replicated capacity must be returned to the nodes: with replication 2
	// the used-bytes drop is at least the logical bytes freed.
	if freed := before - d.Used(); freed < bytes {
		t.Errorf("node capacity freed = %d, want >= logical bytes %d", freed, bytes)
	}
	if files, bytes := d.DeletePrefix("_tmp/wf-1/"); files != 0 || bytes != 0 {
		t.Errorf("second DeletePrefix = (%d, %d), want (0, 0)", files, bytes)
	}
}
