package cluster_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ntga/internal/chunk"
	"ntga/internal/cluster"
	"ntga/internal/codec"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
)

// FetchReply and KVs are the shuffle reply as it was before segments: a
// list of pairs framed and decoded one by one. gob names a type on the wire
// by its unqualified name, so these stand for the old types on a gob stream.
type (
	FetchReply struct{ KVs KVs }
	KVs        []mapreduce.KV
)

// ReadRangeReply and Records are the split reply as it was before the DFS
// framed its records: a list of records framed one by one.
type (
	ReadRangeReply struct{ Records Records }
	Records        [][]byte
)

// GobEncode frames the records as the old list did: the record count, then
// each record behind its uvarint length.
func (rs Records) GobEncode() ([]byte, error) {
	var b codec.Buffer
	b.PutUvarint(uint64(len(rs)))
	for _, r := range rs {
		b.PutBytes(r)
	}
	return b.Bytes(), nil
}

// GobDecode reads the records one by one, as the old list did.
func (rs *Records) GobDecode(blob []byte) error {
	r := codec.NewReader(blob)
	n, err := r.Uvarint()
	if err != nil {
		return err
	}
	out := make(Records, n)
	for i := range out {
		if out[i], err = r.Bytes(); err != nil {
			return err
		}
	}
	*rs = out
	return nil
}

// TestReadRangeReplyOfFramesMatchesRecordList: a split the master ships as
// the DFS's own frames encodes to the same frame as the old reply carrying
// the same records as a list — a range inside one chunk, one spanning
// chunks, an empty one — gob names both field types Records, and either
// reply decodes as the other.
func TestReadRangeReplyOfFramesMatchesRecordList(t *testing.T) {
	d := hdfs.New(hdfs.Config{Nodes: 1})
	var recs [][]byte
	for i := 0; i < 5000; i++ { // several chunks
		recs = append(recs, []byte(fmt.Sprintf("rec-%d", i*i)))
	}
	recs[7] = nil
	recs = append(recs, bytes.Repeat([]byte("z"), 3*chunk.Max))
	if err := d.WriteFile("f", recs); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 3}, {5, 10}, {100, 4000}, {0, -1}, {4990, -1}, {len(recs), 5}} {
		split, err := d.ReadRange("f", r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		end := len(recs)
		if r[1] >= 0 {
			end = min(r[0]+r[1], len(recs))
		}
		old := ReadRangeReply{Records: recs[r[0]:end]}
		frame, _ := split.GobEncode()
		oldFrame, _ := old.Records.GobEncode()
		if !bytes.Equal(frame, oldFrame) {
			t.Fatalf("range %v: frame %.40q, the record list's %.40q", r, frame, oldFrame)
		}
		// gob leaves a zero field off the stream: an empty range of a
		// non-empty file is sent, as its empty list was.
		if reflect.ValueOf(split).IsZero() != reflect.ValueOf(old.Records).IsZero() {
			t.Errorf("range %v: the framed reply is zero %v, the record list %v", r, reflect.ValueOf(split).IsZero(), reflect.ValueOf(old.Records).IsZero())
		}
		var asOld ReadRangeReply
		gobTo(t, &cluster.ReadRangeReply{Records: split}, &asOld)
		var asNew cluster.ReadRangeReply
		gobTo(t, &old, &asNew)
		got := asNew.Records.Slices()
		if len(asOld.Records) != end-r[0] || len(got) != end-r[0] {
			t.Fatalf("range %v: decoded %d and %d records, want %d", r, len(asOld.Records), len(got), end-r[0])
		}
		for i := range got {
			if !bytes.Equal(asOld.Records[i], recs[r[0]+i]) || !bytes.Equal(got[i], recs[r[0]+i]) {
				t.Fatalf("range %v: record %d decoded as %.20q and %.20q", r, i, asOld.Records[i], got[i])
			}
		}
	}
}

// GobEncode frames the pairs as the old list did: the pair count, then each
// key and value behind its uvarint length.
func (kvs KVs) GobEncode() ([]byte, error) {
	var b codec.Buffer
	b.PutUvarint(uint64(len(kvs)))
	for _, kv := range kvs {
		b.PutBytes(kv.Key)
		b.PutBytes(kv.Value)
	}
	return b.Bytes(), nil
}

// GobDecode reads the pairs one by one, as the old list did.
func (kvs *KVs) GobDecode(blob []byte) error {
	r := codec.NewReader(blob)
	n, err := r.Uvarint()
	if err != nil {
		return err
	}
	out := make(KVs, n)
	for i := range out {
		if out[i].Key, err = r.Bytes(); err != nil {
			return err
		}
		if out[i].Value, err = r.Bytes(); err != nil {
			return err
		}
	}
	*kvs = out
	return nil
}

// gobTo encodes in on a fresh gob stream and decodes the stream into out.
func gobTo(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decoding %T into %T: %v", in, out, err)
	}
}

// TestFetchReplyOfSealedSegmentMatchesPairList: a FetchReply carrying a
// segment a map task sealed frames its payload in the same bytes as the old
// pair-list reply of the same pairs, taken here from the mapper's own
// emissions in bytes.Compare order; and either reply, sent on a gob stream,
// decodes as the other.
func TestFetchReplyOfSealedSegmentMatchesPairList(t *testing.T) {
	const nReducers = 3
	var recs [][]byte
	for i := 0; i < 500; i++ {
		recs = append(recs, binary.AppendUvarint(nil, uint64(i*7919%613)))
	}
	want := make([][]mapreduce.KV, nReducers)
	job := &mapreduce.Job{
		Name: "wire", Inputs: []string{"in"}, Output: "out",
		Mapper: mapreduce.MapperFunc(func(_ string, rec []byte, out mapreduce.Emitter) error {
			n, _ := binary.Uvarint(rec)
			key := binary.AppendUvarint(nil, n%97)
			value := []byte(fmt.Sprintf("v%d", n))
			if n%5 == 0 {
				value = nil // empty values frame as a zero length
			}
			p := mapreduce.HashPartitioner(key, nReducers)
			want[p] = append(want[p], mapreduce.KV{Key: key, Value: value})
			return out.Emit(key, value)
		}),
		StreamReducer: mapreduce.StreamReducerFunc(func([]byte, mapreduce.ValueIter, mapreduce.Collector) error { return nil }),
	}
	mo, err := mapreduce.RunMapTask(job, 0, "in", nReducers, mapreduce.NewSliceSource(recs), mapreduce.TaskHooks{})
	if err != nil {
		t.Fatal(err)
	}
	for p, seg := range mo.Parts {
		pairs := want[p]
		slices.SortStableFunc(pairs, func(a, b mapreduce.KV) int {
			if c := bytes.Compare(a.Key, b.Key); c != 0 {
				return c
			}
			return bytes.Compare(a.Value, b.Value)
		})
		if len(pairs) == 0 {
			t.Fatalf("partition %d: no pairs — test premise broken", p)
		}
		frame, err := cluster.KVs(seg).GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		old, _ := KVs(pairs).GobEncode()
		if !bytes.Equal(frame, old) {
			t.Errorf("partition %d: segment frame %x, pair-list frame %x", p, frame, old)
		}
		var asOld FetchReply
		gobTo(t, &cluster.FetchReply{KVs: cluster.KVs(seg)}, &asOld)
		if again, _ := asOld.KVs.GobEncode(); !bytes.Equal(again, old) {
			t.Errorf("partition %d: the pair-list decoder read the segment reply as %q", p, asOld.KVs)
		}
		var asNew cluster.FetchReply
		gobTo(t, &FetchReply{KVs: pairs}, &asNew)
		if asNew.KVs.Pairs != seg.Pairs || !bytes.Equal(asNew.KVs.Data, seg.Data) {
			t.Errorf("partition %d: the pair-list reply decoded as segment %d/%x, want %d/%x", p, asNew.KVs.Pairs, asNew.KVs.Data, seg.Pairs, seg.Data)
		}
	}
}
