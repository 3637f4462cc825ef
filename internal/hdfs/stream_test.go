package hdfs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
)

func TestOpenStreamsWithIncrementalAccounting(t *testing.T) {
	d := New(Config{Nodes: 1})
	if err := d.WriteFile("f", [][]byte{[]byte("aa"), []byte("bbb"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	d.ResetMetrics()
	r, err := d.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics().BytesRead; got != 0 {
		t.Errorf("BytesRead after Open = %d, want 0 (accounting must be incremental)", got)
	}
	rec, err := r.Next()
	if err != nil || string(rec) != "aa" {
		t.Fatalf("Next = %q, %v", rec, err)
	}
	if m := d.Metrics(); m.BytesRead != 2 || m.RecordsRead != 1 {
		t.Errorf("after 1 record: BytesRead=%d RecordsRead=%d, want 2, 1", m.BytesRead, m.RecordsRead)
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if m := d.Metrics(); m.BytesRead != 6 || m.RecordsRead != 3 {
		t.Errorf("after full read: BytesRead=%d RecordsRead=%d, want 6, 3", m.BytesRead, m.RecordsRead)
	}
}

func TestOpenRangeClampsAndChargesOnlyScannedBytes(t *testing.T) {
	d := New(Config{Nodes: 1})
	recs := [][]byte{[]byte("0"), []byte("11"), []byte("222"), []byte("3333")}
	if err := d.WriteFile("f", recs); err != nil {
		t.Fatal(err)
	}
	d.ResetMetrics()
	r, err := d.OpenRange("f", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 2 {
		t.Fatalf("Remaining = %d, want 2", r.Remaining())
	}
	var got []string
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(rec))
	}
	if len(got) != 2 || got[0] != "11" || got[1] != "222" {
		t.Errorf("range read = %v, want [11 222]", got)
	}
	if m := d.Metrics(); m.BytesRead != 5 || m.RecordsRead != 2 {
		t.Errorf("BytesRead=%d RecordsRead=%d, want 5, 2", m.BytesRead, m.RecordsRead)
	}
	// Ranges past EOF clamp to empty rather than erroring.
	r2, err := d.OpenRange("f", 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Next(); err != io.EOF {
		t.Errorf("Next past EOF = %v, want io.EOF", err)
	}
	if _, err := d.Open("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Open(missing) = %v, want ErrNotFound", err)
	}
}

func TestConcatSplicesWithoutRecharging(t *testing.T) {
	d := New(Config{Nodes: 2, BlockSize: 4})
	if err := d.WriteFile("p0", [][]byte{[]byte("aaaa"), []byte("bb")}); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("p1", [][]byte{[]byte("cccc")}); err != nil {
		t.Fatal(err)
	}
	usedBefore := d.Used()
	written := d.Metrics().BytesWritten
	if err := d.Concat("out", []string{"p0", "p1"}); err != nil {
		t.Fatal(err)
	}
	if d.Exists("p0") || d.Exists("p1") {
		t.Error("sources survived Concat")
	}
	if d.Metrics().BytesWritten != written {
		t.Errorf("Concat charged write bytes: %d -> %d", written, d.Metrics().BytesWritten)
	}
	if d.Used() != usedBefore {
		t.Errorf("Concat changed stored bytes: %d -> %d", usedBefore, d.Used())
	}
	recs, err := d.ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[0]) != "aaaa" || string(recs[2]) != "cccc" {
		t.Errorf("concat records wrong: %q", recs)
	}
	sz, err := d.FileSize("out")
	if err != nil || sz != 10 {
		t.Errorf("FileSize = %d, %v, want 10", sz, err)
	}
	if err := d.Concat("out", []string{"x"}); !errors.Is(err, ErrExists) {
		t.Errorf("Concat onto existing = %v, want ErrExists", err)
	}
	if err := d.Concat("out2", []string{"missing"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Concat of missing source = %v, want ErrNotFound", err)
	}
}

func TestSpillChargeAndRelease(t *testing.T) {
	d := New(Config{Nodes: 3})
	w := d.CreateSpill()
	if _, err := w.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if got := d.SpillUsed(); got != 150 {
		t.Errorf("SpillUsed = %d, want 150", got)
	}
	if d.Used() != 0 {
		t.Errorf("spill bytes leaked into DFS storage: Used = %d", d.Used())
	}
	s := w.Close()
	if s.Size() != 150 {
		t.Errorf("Size = %d, want 150", s.Size())
	}
	s.ChargeRead(150)
	s.Release()
	s.Release() // second release is a no-op
	if got := d.SpillUsed(); got != 0 {
		t.Errorf("SpillUsed after release = %d, want 0", got)
	}
	if got := d.PeakSpillUsed(); got != 150 {
		t.Errorf("PeakSpillUsed = %d, want 150", got)
	}
	m := d.Metrics()
	if m.SpillBytesWritten != 150 || m.SpillBytesRead != 150 {
		t.Errorf("spill bytes: wrote %d read %d, want 150, 150", m.SpillBytesWritten, m.SpillBytesRead)
	}
	if m.SpillFilesCreated != 1 || m.SpillFilesReleased != 1 {
		t.Errorf("spill files: created %d released %d, want 1, 1", m.SpillFilesCreated, m.SpillFilesReleased)
	}
	if m.BytesWritten != 0 || m.BytesRead != 0 {
		t.Errorf("spill traffic leaked into DFS byte counters: %+v", m)
	}
}

func TestSpillCapacityEnforced(t *testing.T) {
	d := New(Config{Nodes: 2, LocalSpillPerNode: 100})
	// Spills balance across nodes, so two 80-byte spills fit...
	w0 := d.CreateSpill()
	if _, err := w0.Write(make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	w1 := d.CreateSpill()
	if _, err := w1.Write(make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	// ...but a third overflows whichever node it lands on.
	w2 := d.CreateSpill()
	if _, err := w2.Write(make([]byte, 80)); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("overflow write err = %v, want ErrDiskFull", err)
	}
	w2.Abort()
	w0.Close().Release()
	w1.Close().Release()
	if d.SpillUsed() != 0 {
		t.Errorf("SpillUsed after releases = %d, want 0", d.SpillUsed())
	}
}

func TestSpillAbortReleasesBytes(t *testing.T) {
	d := New(Config{Nodes: 1})
	w := d.CreateSpill()
	if _, err := w.Write(make([]byte, 42)); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if d.SpillUsed() != 0 {
		t.Errorf("SpillUsed after abort = %d, want 0", d.SpillUsed())
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after abort succeeded")
	}
	m := d.Metrics()
	if m.SpillFilesCreated != 1 || m.SpillFilesReleased != 1 {
		t.Errorf("spill files: created %d released %d, want 1, 1", m.SpillFilesCreated, m.SpillFilesReleased)
	}
}

// TestRangeClampsHugeAndNegativeCounts: a range count arrives from remote
// callers (Master.ReadRange), so any value must clamp, never panic; a huge
// N must not overflow off+N into a negative slice end.
func TestRangeClampsHugeAndNegativeCounts(t *testing.T) {
	d := New(Config{Nodes: 1})
	recs := [][]byte{[]byte("0"), []byte("11"), []byte("222"), []byte("3333")}
	if err := d.WriteFile("f", recs); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		off, n int
		want   []string
	}{
		{"max count reads to the end", 1, math.MaxInt, []string{"11", "222", "3333"}},
		{"max count from the start", 0, math.MaxInt, []string{"0", "11", "222", "3333"}},
		{"negative count reads to the end", 2, -1, []string{"222", "3333"}},
		{"min count reads to the end", 2, math.MinInt, []string{"222", "3333"}},
		{"offset past the end", 9, 2, nil},
		{"offset past the end, max count", math.MaxInt, math.MaxInt, nil},
		{"negative offset starts at zero", -5, 1, []string{"0"}},
		{"exact range", 1, 2, []string{"11", "222"}},
	} {
		rs, err := d.ReadRange("f", tc.off, tc.n)
		if err != nil {
			t.Fatalf("%s: ReadRange: %v", tc.name, err)
		}
		got := collect(rs)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: ReadRange = %q, want %q", tc.name, got, tc.want)
		}
		r, err := d.OpenRange("f", tc.off, tc.n)
		if err != nil {
			t.Fatalf("%s: OpenRange: %v", tc.name, err)
		}
		if r.Remaining() != len(tc.want) {
			t.Errorf("%s: OpenRange holds %d records, want %d", tc.name, r.Remaining(), len(tc.want))
		}
		for i, w := range tc.want {
			if string(got[i]) != w {
				t.Errorf("%s: record %d = %q, want %q", tc.name, i, got[i], w)
			}
		}
	}
}

// TestConcurrentReadsChargeExactly: readers stream, range-read and ReadAll
// one file concurrently while another goroutine snapshots Metrics. The read
// counters are charged outside the DFS lock, so the run must be race-free
// (make check runs it under -race), every snapshot monotonic, and the final
// counts exact.
func TestConcurrentReadsChargeExactly(t *testing.T) {
	d := New(Config{Nodes: 2})
	const n = 500
	recs := make([][]byte, n)
	var size int64
	for i := range recs {
		recs[i] = make([]byte, 1+i%7)
		size += int64(len(recs[i]))
	}
	if err := d.WriteFile("f", recs); err != nil {
		t.Fatal(err)
	}
	d.ResetMetrics()
	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				r, err := d.Open("f")
				if err != nil {
					errs <- err
					return
				}
				for {
					if _, err := r.Next(); err == io.EOF {
						return
					} else if err != nil {
						errs <- err
						return
					}
				}
			case 1:
				for off := 0; off < n; off += 50 {
					if _, err := d.ReadRange("f", off, 50); err != nil {
						errs <- err
						return
					}
				}
			default:
				if _, err := d.ReadAll("f"); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	done := make(chan struct{})
	snapped := make(chan error, 1)
	go func() {
		var last Metrics
		for {
			m := d.Metrics()
			if m.BytesRead < last.BytesRead || m.RecordsRead < last.RecordsRead {
				snapped <- fmt.Errorf("read counters went backwards: %+v after %+v", m, last)
				return
			}
			last = m
			select {
			case <-done:
				snapped <- nil
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
	if m := d.Metrics(); m.BytesRead != readers*size || m.RecordsRead != readers*n {
		t.Errorf("BytesRead=%d RecordsRead=%d, want %d, %d", m.BytesRead, m.RecordsRead, readers*size, readers*n)
	}
	d.ResetMetrics()
	if m := d.Metrics(); m.BytesRead != 0 || m.RecordsRead != 0 {
		t.Errorf("after ResetMetrics: BytesRead=%d RecordsRead=%d, want 0, 0", m.BytesRead, m.RecordsRead)
	}
}

// collect reads every record of rs.
func collect(rs Records) [][]byte {
	var out [][]byte
	for rs.Len() > 0 {
		rec, _ := rs.Next()
		out = append(out, rec)
	}
	return out
}
