package cluster_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"slices"
	"testing"

	"ntga/internal/cluster"
	"ntga/internal/codec"
	"ntga/internal/mapreduce"
)

// FetchReply and KVs are the shuffle reply as it was before segments: a
// list of pairs framed and decoded one by one. gob names a type on the wire
// by its unqualified name, so these stand for the old types on a gob stream.
type (
	FetchReply struct{ KVs KVs }
	KVs        []mapreduce.KV
)

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
