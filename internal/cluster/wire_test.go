package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ntga/internal/codec"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// raceEnabled is set by race_test.go: allocation ceilings mean nothing under
// the race detector, whose instrumentation allocates.
var raceEnabled bool

// The plain field types the bulk fields would have without their framing.
// gob matches struct fields by name, so each mirror carries only the fields
// it stands in for.
type (
	plainReport struct{ Outputs [][][]byte }
	plainRange  struct{ Records [][]byte }
	plainFetch  struct{ KVs []mapreduce.KV }
	plainRun    struct {
		Rows     []query.Row
		RowsText []string
	}
)

// splitOf returns recs as the master's DFS serves them as a split.
func splitOf(t *testing.T, recs [][]byte) hdfs.Records {
	t.Helper()
	d := hdfs.New(hdfs.Config{Nodes: 1})
	if err := d.WriteFile("split", recs); err != nil {
		t.Fatal(err)
	}
	rs, err := d.ReadRange("split", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// sameRecords reports whether a and b hold the same records, an empty
// record and a nil one alike.
func sameRecords(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, bytes.Equal) && (a == nil) == (b == nil)
}

func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encoding %T: %v", in, err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decoding %T: %v", out, err)
	}
}

var recordCases = map[string][][]byte{
	"nil":          nil,
	"empty":        {},
	"one empty":    {{}},
	"one nil":      {nil},
	"mixed":        {[]byte("ab"), nil, {}, []byte("cde"), {0}},
	"long records": {bytes.Repeat([]byte("x"), 300), []byte("y"), bytes.Repeat([]byte("z"), 20000)},
}

// TestWireRoundTripMatchesPlainGob: every bulk field decodes to exactly what
// gob gives for its plain slice type — nil and empty lists both as nil, an
// empty record, key, value or row as nil, an empty text row as "" — and
// every decoded item is capped at its own length.
func TestWireRoundTripMatchesPlainGob(t *testing.T) {
	for name, recs := range recordCases {
		var got ReadRangeReply
		var want plainRange
		gobRoundTrip(t, &ReadRangeReply{Records: splitOf(t, recs)}, &got)
		gobRoundTrip(t, &plainRange{Records: recs}, &want)
		if split := got.Records.Slices(); !sameRecords(split, want.Records) {
			t.Errorf("ReadRangeReply %s: %q, plain gob gives %q", name, split, want.Records)
		}
		checkCapped(t, "ReadRangeReply "+name, got.Records.Slices())

		outputs := [][][]byte{recs, nil, recs}
		var gotRep ReportArgs
		var wantRep plainReport
		gobRoundTrip(t, &ReportArgs{Outputs: toRecords(outputs), Worker: 3}, &gotRep)
		gobRoundTrip(t, &plainReport{Outputs: outputs}, &wantRep)
		if !reflect.DeepEqual(fromRecords(gotRep.Outputs), wantRep.Outputs) || gotRep.Worker != 3 {
			t.Errorf("ReportArgs %s: %q (worker %d), plain gob gives %q", name, gotRep.Outputs, gotRep.Worker, wantRep.Outputs)
		}
		for _, out := range gotRep.Outputs {
			checkCapped(t, "ReportArgs "+name, out)
		}
	}
	for _, outputs := range [][][][]byte{nil, {}, {nil}} {
		var got ReportArgs
		var want plainReport
		gobRoundTrip(t, &ReportArgs{Outputs: toRecords(outputs)}, &got)
		gobRoundTrip(t, &plainReport{Outputs: outputs}, &want)
		if !reflect.DeepEqual(fromRecords(got.Outputs), want.Outputs) {
			t.Errorf("ReportArgs outputs %#v: %#v, plain gob gives %#v", outputs, got.Outputs, want.Outputs)
		}
	}

	for name, kvs := range map[string][]mapreduce.KV{
		"nil":        nil,
		"empty":      {},
		"empty pair": {{}},
		"mixed": {
			{Key: []byte("k1"), Value: []byte("v1")},
			{Key: []byte("k2"), Value: []byte{}},
			{Key: nil, Value: []byte("v3")},
			{Key: bytes.Repeat([]byte("k"), 200), Value: bytes.Repeat([]byte("v"), 130)},
		},
	} {
		var got FetchReply
		var want plainFetch
		gobRoundTrip(t, &FetchReply{KVs: segmentOf(kvs)}, &got)
		gobRoundTrip(t, &plainFetch{KVs: kvs}, &want)
		pairs := pairsOf(t, got.KVs)
		if !reflect.DeepEqual(pairs, want.KVs) {
			t.Errorf("FetchReply %s: %q, plain gob gives %q", name, pairs, want.KVs)
		}
		for _, kv := range pairs {
			checkCapped(t, "FetchReply "+name, [][]byte{kv.Key, kv.Value})
		}
	}

	for name, tc := range map[string]struct {
		rows []query.Row
		text []string
	}{
		"nil":       {nil, nil},
		"empty":     {[]query.Row{}, []string{}},
		"width 0":   {[]query.Row{{}, nil, {}}, []string{"", "", ""}},
		"mixed":     {[]query.Row{{1, 2, 3}, {}, {rdf.ID(1 << 31), 0, 127, 128}}, []string{"<a>\t\"b\"", "", "\x00é"}},
		"long text": {[]query.Row{{5}}, []string{strings.Repeat("t", 1000)}},
	} {
		var got RunReply
		var want plainRun
		gobRoundTrip(t, &RunReply{Rows: tc.rows, RowsText: tc.text, TotalRows: len(tc.text)}, &got)
		gobRoundTrip(t, &plainRun{Rows: tc.rows, RowsText: tc.text}, &want)
		if !reflect.DeepEqual([]query.Row(got.Rows), want.Rows) || !reflect.DeepEqual([]string(got.RowsText), want.RowsText) {
			t.Errorf("RunReply %s: %v %q, plain gob gives %v %q", name, got.Rows, got.RowsText, want.Rows, want.RowsText)
		}
		if got.TotalRows != len(tc.text) {
			t.Errorf("RunReply %s: TotalRows %d, want %d", name, got.TotalRows, len(tc.text))
		}
		for _, row := range got.Rows {
			if cap(row) != len(row) {
				t.Errorf("RunReply %s: row %v has capacity %d", name, row, cap(row))
			}
		}
	}
}

// TestWireItemsDoNotShareGrowth: decoded items share one slab, so appending
// to one must reallocate rather than overwrite its neighbour.
func TestWireItemsDoNotShareGrowth(t *testing.T) {
	var rr ReadRangeReply
	gobRoundTrip(t, &ReadRangeReply{Records: splitOf(t, [][]byte{[]byte("ab"), []byte("cd")})}, &rr)
	split := rr.Records.Slices()
	_ = append(split[0], 'X')
	if string(split[1]) != "cd" {
		t.Errorf("appending to record 0 overwrote record 1: %q", split[1])
	}
	var fr FetchReply
	gobRoundTrip(t, &FetchReply{KVs: segmentOf([]mapreduce.KV{{Key: []byte("k"), Value: []byte("v")}, {Key: []byte("l"), Value: []byte("w")}})}, &fr)
	pairs := pairsOf(t, fr.KVs)
	_ = append(pairs[0].Key, 'X')
	_ = append(pairs[0].Value, 'Y')
	if pairs = pairsOf(t, fr.KVs); string(pairs[0].Value) != "v" || string(pairs[1].Key) != "l" {
		t.Errorf("appending to pair 0 overwrote its neighbours: %q", pairs)
	}
	var run RunReply
	gobRoundTrip(t, &RunReply{Rows: Rows{{1, 2}, {3, 4}}}, &run)
	_ = append(run.Rows[0], 9)
	if !run.Rows[1].Equal(query.Row{3, 4}) {
		t.Errorf("appending to row 0 overwrote row 1: %v", run.Rows[1])
	}
}

// TestWireDecodeAllocsFlat: decoding a bulk reply on a long-lived gob stream,
// as net/rpc does, costs the same small number of allocations at 1k items as
// at 10k — one slab per payload, none per item.
func TestWireDecodeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	record := func(i int) []byte { return []byte(fmt.Sprintf("record-%06d", i)) }
	for _, tc := range []struct {
		name string
		make func(n int) any
		into func() any
	}{
		{"ReadRangeReply", func(n int) any {
			recs := make([][]byte, n)
			for i := range recs {
				recs[i] = record(i)
			}
			return &ReadRangeReply{Records: splitOf(t, recs)}
		}, func() any { return new(ReadRangeReply) }},
		{"FetchReply", func(n int) any {
			kvs := make([]mapreduce.KV, n)
			for i := range kvs {
				kvs[i] = mapreduce.KV{Key: record(i), Value: record(n - i)}
			}
			return &FetchReply{KVs: segmentOf(kvs)}
		}, func() any { return new(FetchReply) }},
		{"RunReply", func(n int) any {
			r := &RunReply{Rows: make(Rows, n), RowsText: make(Texts, n), TotalRows: n}
			for i := range r.Rows {
				r.Rows[i] = query.Row{rdf.ID(i), rdf.ID(i * 7), rdf.ID(i * 131)}
				r.RowsText[i] = string(record(i))
			}
			return r
		}, func() any { return new(RunReply) }},
	} {
		allocs := func(n int) float64 {
			const runs = 20
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			msg := tc.make(n)
			for i := 0; i < runs+1; i++ { // AllocsPerRun makes one warm-up call
				if err := enc.Encode(msg); err != nil {
					t.Fatal(err)
				}
			}
			dec := gob.NewDecoder(&buf)
			return testing.AllocsPerRun(runs, func() {
				if err := dec.Decode(tc.into()); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(1_000), allocs(10_000)
		t.Logf("%s: %.0f allocations per decode at 1k items, %.0f at 10k", tc.name, small, large)
		if small != large || large > 6 {
			t.Errorf("%s: %.0f allocations to decode 1k items, %.0f for 10k; want the same small constant", tc.name, small, large)
		}
	}
}

// segmentOf frames pairs, in the order given, as a shuffle segment.
func segmentOf(kvs []mapreduce.KV) KVs {
	var l pairList = kvs
	frame, _ := l.GobEncode()
	var seg KVs
	if err := seg.GobDecode(frame); err != nil {
		panic(err)
	}
	return seg
}

// pairsOf reads a segment's pairs out, as views of its bytes.
func pairsOf(t *testing.T, seg KVs) []mapreduce.KV {
	t.Helper()
	var kvs []mapreduce.KV
	if err := mapreduce.Segment(seg).Each(func(kv mapreduce.KV) bool {
		kvs = append(kvs, kv)
		return true
	}); err != nil {
		t.Fatalf("reading segment: %v", err)
	}
	return kvs
}

// pairList is the shuffle segment's wire type as it was before segments, a
// list of pairs framed and decoded pair by pair; the segment's frame must
// stay byte-identical to it.
type pairList []mapreduce.KV

// GobEncode frames the pairs, each as its key then its value.
func (kvs pairList) GobEncode() ([]byte, error) {
	n := codec.UvarintLen(uint64(len(kvs)))
	for _, kv := range kvs {
		n += bytesLen(len(kv.Key)) + bytesLen(len(kv.Value))
	}
	b := codec.NewBuffer(n)
	b.PutUvarint(uint64(len(kvs)))
	for _, kv := range kvs {
		b.PutBytes(kv.Key)
		b.PutBytes(kv.Value)
	}
	return b.Bytes(), nil
}

// GobDecode decodes a frame into pairs that share one copy of it.
func (kvs *pairList) GobDecode(blob []byte) (err error) {
	defer wrapFrameErr("KVs", &err)
	n, body, err := openFrame(blob, 2, true)
	if err != nil {
		return err
	}
	r := codec.NewReader(body)
	var out pairList
	if n > 0 {
		out = make(pairList, n)
	}
	for i := range out {
		if out[i].Key, err = item(r); err != nil {
			return err
		}
		if out[i].Value, err = item(r); err != nil {
			return err
		}
	}
	if err := closeFrame(r); err != nil {
		return err
	}
	*kvs = out
	return nil
}

func toRecords(outputs [][][]byte) []Records {
	if outputs == nil {
		return nil
	}
	out := make([]Records, len(outputs))
	for i, o := range outputs {
		out[i] = o
	}
	return out
}

func fromRecords(outputs []Records) [][][]byte {
	if outputs == nil {
		return nil
	}
	out := make([][][]byte, len(outputs))
	for i, o := range outputs {
		out[i] = o
	}
	return out
}

func checkCapped(t *testing.T, label string, items [][]byte) {
	t.Helper()
	for i, it := range items {
		if cap(it) != len(it) {
			t.Errorf("%s: item %d has length %d, capacity %d", label, i, len(it), cap(it))
		}
	}
}

// FuzzWireDecode feeds one arbitrary frame to each bulk type's decoder. A
// decoder runs inside the net/rpc server, so any bytes must give an error or
// a value, never a panic; a value holds no more items than the frame has
// bytes (counts are checked before anything is allocated for them) and
// survives an encode/decode round trip unchanged. A shuffle segment must
// also decode to exactly the pairs the pair-list decoder it replaced gives,
// and fail where it fails. The seed corpus under testdata/fuzz holds real
// encodings and truncations of them.
func FuzzWireDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, records, kvs, rows, texts []byte) {
		var rs Records
		if err := rs.GobDecode(records); err == nil {
			checkItems(t, "Records", len(rs), records)
			checkReencodes(t, rs, new(Records))
		}
		var ks KVs
		var ref pairList
		err, refErr := ks.GobDecode(kvs), ref.GobDecode(kvs)
		if (err == nil) != (refErr == nil) {
			t.Errorf("KVs: decoding gives %v, the pair-list decoder %v", err, refErr)
		}
		if err == nil {
			checkItems(t, "KVs", ks.Pairs, kvs)
			checkReencodes(t, ks, new(KVs))
			if pairs := pairsOf(t, ks); !reflect.DeepEqual(pairs, []mapreduce.KV(ref)) {
				t.Errorf("KVs: decoded %q, the pair-list decoder %q", pairs, ref)
			}
		}
		var ws Rows
		if err := ws.GobDecode(rows); err == nil {
			ids := 0
			for _, w := range ws {
				ids += len(w)
			}
			checkItems(t, "Rows", len(ws)+ids, rows)
			checkReencodes(t, ws, new(Rows))
		}
		var ts Texts
		if err := ts.GobDecode(texts); err == nil {
			checkItems(t, "Texts", len(ts), texts)
			checkReencodes(t, ts, new(Texts))
		}
	})
}

func checkItems(t *testing.T, typ string, items int, frame []byte) {
	t.Helper()
	if items > len(frame) {
		t.Errorf("%s: decoded %d items from a %d-byte frame", typ, items, len(frame))
	}
}

func checkReencodes(t *testing.T, v interface{ GobEncode() ([]byte, error) }, fresh interface{ GobDecode([]byte) error }) {
	t.Helper()
	b, err := v.GobEncode()
	if err != nil {
		t.Fatalf("%T: re-encoding: %v", v, err)
	}
	if err := fresh.GobDecode(b); err != nil {
		t.Fatalf("%T: decoding its own encoding: %v", v, err)
	}
	if again := reflect.ValueOf(fresh).Elem().Interface(); !reflect.DeepEqual(again, v) {
		t.Errorf("%T: round trip gave %v, want %v", v, again, v)
	}
}
