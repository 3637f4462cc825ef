package hdfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"ntga/internal/chunk"
)

// framesCase turns a fuzz input into records and a cut of them into part
// files: each byte of spec (up to 160) makes one record, whose length grows
// with the byte and whose bytes repeat its index — the first two 255s make
// records larger than chunk.Max, so each gets a chunk of its own; parts is
// how many part files the records are written as, in order, before Concat
// splices them.
func framesCase(spec []byte, parts uint8) (recs [][]byte, cuts []int) {
	if len(spec) > 160 {
		spec = spec[:160]
	}
	huge := 0
	for i, b := range spec {
		n := int(b) * (1 + i%5)
		if b == 255 && huge < 2 {
			n, huge = chunk.Max+17, huge+1
		}
		recs = append(recs, bytes.Repeat([]byte{byte(i)}, n))
	}
	k := int(parts)%6 + 1
	for p := 1; p < k; p++ {
		cuts = append(cuts, len(recs)*p/k)
	}
	return recs, append(cuts, len(recs))
}

// oldFrame is how a split reply framed its records before the DFS held
// them as frames: the record count, then each record behind its length.
func oldFrame(recs [][]byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(recs)))
	for _, r := range recs {
		b = append(binary.AppendUvarint(b, uint64(len(r))), r...)
	}
	return b
}

// FuzzDFSFrames writes records as part files, concatenates them, and reads
// them back through Open, OpenRange at every offset, ReadRange and ReadAll:
// each must give exactly the records written (a [][]byte model), charge
// exactly their bytes, and a ReadRange reply must encode to the frame the
// record list gave.
func FuzzDFSFrames(f *testing.F) { f.Fuzz(checkFrames) }

// checkFrames is FuzzDFSFrames's body.
func checkFrames(t *testing.T, spec []byte, parts uint8) {
	recs, cuts := framesCase(spec, parts)
	d := New(Config{Nodes: 3, BlockSize: 700, Replication: 2})
	var names []string
	start := 0
	for p, end := range cuts {
		name := fmt.Sprintf("part-%d", p)
		if err := d.WriteFile(name, recs[start:end]); err != nil {
			t.Fatal(err)
		}
		names, start = append(names, name), end
	}
	if err := d.Concat("out", names); err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, r := range recs {
		size += int64(len(r))
	}
	if n, _ := d.RecordCount("out"); n != len(recs) {
		t.Fatalf("RecordCount = %d, want %d", n, len(recs))
	}
	if got, _ := d.FileSize("out"); got != size {
		t.Fatalf("FileSize = %d, want %d", got, size)
	}
	d.ResetMetrics()
	all, err := d.ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, "ReadAll", all, recs)
	if m := d.Metrics(); m.BytesRead != size || m.RecordsRead != int64(len(recs)) {
		t.Fatalf("ReadAll charged %d bytes, %d records; want %d, %d", m.BytesRead, m.RecordsRead, size, len(recs))
	}
	r, err := d.Open("out")
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, "Open", drain(t, r), recs)
	for off := 0; off <= len(recs); off++ {
		n := (off*7 + len(spec)) % (len(recs) + 2) // some ranges overrun the end
		if off%3 == 0 {
			n = -1
		}
		end := len(recs)
		if n >= 0 && off+n < end {
			end = off + n
		}
		want := recs[off:end]
		var wantBytes int64
		for _, r := range want {
			wantBytes += int64(len(r))
		}
		d.ResetMetrics()
		r, err := d.OpenRange("out", off, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Remaining() != len(want) {
			t.Fatalf("OpenRange(%d, %d) holds %d records, want %d", off, n, r.Remaining(), len(want))
		}
		checkRecords(t, fmt.Sprintf("OpenRange(%d, %d)", off, n), drain(t, r), want)
		rs, err := d.ReadRange("out", off, n)
		if err != nil {
			t.Fatal(err)
		}
		if m := d.Metrics(); m.BytesRead != 2*wantBytes || m.RecordsRead != 2*int64(len(want)) {
			t.Fatalf("range (%d, %d): charged %d bytes, %d records; want %d, %d", off, n, m.BytesRead, m.RecordsRead, 2*wantBytes, 2*len(want))
		}
		frame, _ := rs.GobEncode()
		if !bytes.Equal(frame, oldFrame(want)) {
			t.Fatalf("ReadRange(%d, %d) encodes as %.40x, the record list as %.40x", off, n, frame, oldFrame(want))
		}
		var back Records
		if err := back.GobDecode(frame); err != nil {
			t.Fatalf("ReadRange(%d, %d): decoding its own frame: %v", off, n, err)
		}
		checkRecords(t, fmt.Sprintf("decoded ReadRange(%d, %d)", off, n), back.Slices(), want)
		checkRecords(t, fmt.Sprintf("ReadRange(%d, %d)", off, n), rs.Slices(), want)
	}
}

// drain reads r to io.EOF.
func drain(t *testing.T, r *FileReader) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// checkRecords compares records read back with the records written, and
// checks that each is capped at its own length.
func checkRecords(t *testing.T, how string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", how, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) || cap(got[i]) != len(got[i]) {
			t.Fatalf("%s: record %d = %.20q (len %d, cap %d), want %.20q (len %d)", how, i, got[i], len(got[i]), cap(got[i]), want[i], len(want[i]))
		}
	}
}

// TestFramesRecordsDecodeRejectsMalformed: a Records frame arrives from the
// network, so every malformed one is refused, never trusted.
func TestFramesRecordsDecodeRejectsMalformed(t *testing.T) {
	for name, blob := range map[string][]byte{
		"no count":         {},
		"unterminated":     {0x80},
		"count overruns":   {5, 0},
		"record overruns":  {1, 4, 'a'},
		"trailing byte":    {1, 1, 'a', 'b'},
		"empty with tail":  {0, 7},
		"huge count":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"huge record":      {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"second truncated": {2, 1, 'a', 3, 'b'},
	} {
		var rs Records
		if err := rs.GobDecode(blob); err == nil {
			t.Errorf("%s: decoded %d records from %x", name, rs.Len(), blob)
		}
	}
	var rs Records
	if err := rs.GobDecode([]byte{2, 0, 1, 'z'}); err != nil || rs.Len() != 2 {
		t.Fatalf("a valid frame: %v, %d records", err, rs.Len())
	}
	if got := rs.Slices(); len(got[0]) != 0 || string(got[1]) != "z" {
		t.Errorf("decoded %q", got)
	}
}

// TestFramesAppendAllocatesPerChunk: a file holds no slice per record, so
// appending N records allocates per chunk (and per block), not per record.
func TestFramesAppendAllocatesPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{1000, 100000} {
		d := New(Config{Nodes: 2, BlockSize: 1 << 20})
		rec := []byte("a sixteen-byte r")
		i := 0
		allocs := testing.AllocsPerRun(1, func() {
			w, err := d.Create(fmt.Sprintf("f%d", i))
			if err != nil {
				t.Fatal(err)
			}
			i++
			for j := 0; j < n; j++ {
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		})
		f := d.files["f1"]
		// Create's file and writer, then per chunk its slab and the growth
		// of the chunk list, per block its place in the block list.
		ceiling := 4 + 2*len(f.chunks) + 2*len(f.blocks)
		if int(allocs) > ceiling {
			t.Errorf("%d records in %d chunks and %d blocks: %.0f allocations, ceiling %d", n, len(f.chunks), len(f.blocks), allocs, ceiling)
		}
	}
}

// TestPlacementMatchesSortSlice: placeBlock orders the live nodes with the
// algorithm sort.Slice runs, so among nodes of equal usage it picks exactly
// the nodes it picked when it sorted with sort.Slice — block for block,
// across node counts where the sort takes its different paths, with dead
// nodes and a capacity that turns nodes away.
func TestPlacementMatchesSortSlice(t *testing.T) {
	for _, nodes := range []int{5, 8, 60, 80} {
		rng := rand.New(rand.NewSource(int64(nodes)))
		d := New(Config{Nodes: nodes, Replication: 3, CapacityPerNode: 4000})
		for i := range d.used {
			d.used[i] = int64(rng.Intn(4)) * 100 // many ties
		}
		d.dead[nodes/2] = true
		for b := 0; b < 200; b++ {
			size := int64(50 + rng.Intn(3)*50)
			// The placement the sort.Slice version made.
			var order []int
			for i := range d.used {
				if !d.dead[i] {
					order = append(order, i)
				}
			}
			sort.Slice(order, func(a, b int) bool { return d.used[order[a]] < d.used[order[b]] })
			var want []int
			for _, n := range order {
				if d.used[n]+size <= d.cfg.CapacityPerNode {
					want = append(want, n)
					if len(want) == 3 {
						break
					}
				}
			}
			d.mu.Lock()
			got, err := d.placeBlock(nil, size)
			d.mu.Unlock()
			if len(want) < 3 {
				if err == nil {
					t.Fatalf("%d nodes, block %d: placed %v where sort.Slice's placement ran out of disk", nodes, b, got)
				}
				break
			}
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%d nodes, block %d: placed on %v (%v), sort.Slice's placement %v", nodes, b, got, err, want)
			}
		}
	}
}
