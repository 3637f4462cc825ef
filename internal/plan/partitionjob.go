package plan

import (
	"encoding/binary"
	"fmt"

	"ntga/internal/codec"
	"ntga/internal/core/hash64"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
)

// This file holds the layout loader: the one-time MR job that rewrites the
// flat triple relation into the partitioned/bucketed layout the map-only
// rewrite reads. It is a full shuffle job on purpose — the point of paying
// it once is that every later join over the layout pays nothing.

// partitionLoadMapper keys each triple by its subject ID (the γ_Sub grouping
// key) with the (P,O) tail as the value — the exact key/value encoding the
// NTGA grouping cycle shuffles, so the engine's byte-wise (key, value)
// shuffle sort leaves each bucket file subject-contiguous with (P,O) pairs
// in the same order a flat grouping reducer would see them. The record is
// PutID(S) PutID(P) PutID(O), so once DecodeTriple has checked it, its own
// bytes split after the subject varint are the pair.
func partitionLoadMapper(_ string, record []byte, out mapreduce.Emitter) error {
	if _, err := codec.DecodeTriple(record); err != nil {
		return err
	}
	_, k := binary.Uvarint(record)
	return out.Emit(record[:k], record[k:])
}

// collectTriples writes one subject's run of the loader shuffle to file:
// key ++ value is PutID(S) PutID(P) PutID(O), the codec triple encoding,
// re-assembled in one buffer the call reuses from triple to triple.
// Duplicates are kept — the bucket files hold the exact multiset of input
// triples.
func collectTriples(key []byte, values mapreduce.ValueIter, out mapreduce.Collector, file string) error {
	nc, ok := out.(mapreduce.NamedCollector)
	if !ok {
		return fmt.Errorf("plan: loader collector lacks MultipleOutputs support")
	}
	var rec []byte
	for {
		v, ok, err := values.Next()
		if err != nil || !ok {
			return err
		}
		rec = append(append(rec[:0], key...), v...)
		if err := nc.CollectTo(file, rec); err != nil {
			return err
		}
	}
}

// partitionLoadPartitioner routes each subject to its bucket: the same
// hash64.Bucket the planner and the map-only join use, so a record's bucket
// can be recomputed from the key anywhere.
func partitionLoadPartitioner(key []byte, n int) int {
	s, err := codec.DecodeID(key)
	if err != nil {
		return 0 // validate() rejects malformed keys before they get here
	}
	return hash64.Bucket(uint64(s), n)
}

// BuildPartitionLayout runs the loader job over the flat triple relation and
// writes the bucketed layout under dir: Buckets bucket files (hash-of-subject,
// subject-contiguous, duplicate triples preserved) plus the persisted layout
// manifest carrying the dataset content-hash version. The returned
// Partitioning is the planner property ready to hand to a partition-aware
// engine. An existing layout under dir is replaced atomically enough for this
// simulator: manifest last, so a half-written layout never validates.
func BuildPartitionLayout(mr *mapreduce.Engine, input, dir string, buckets int, datasetVersion string) (*Partitioning, error) {
	if err := CheckBuckets(buckets); err != nil {
		return nil, err
	}
	if dir == "" {
		return nil, fmt.Errorf("plan: BuildPartitionLayout needs a layout dir")
	}
	layout := hdfs.Layout{Key: PartitionKeySubject, Buckets: buckets, Version: datasetVersion, Dir: dir}
	dfs := mr.DFS()
	// Stale manifest first: a crash mid-load must leave a layout that fails
	// ReadLayout, not one that validates against the old manifest.
	dfs.DeleteIfExists(dir + "/" + hdfs.LayoutManifestName)
	scan := dir + "/_scan"
	files := layout.Files()
	job := &mapreduce.Job{
		Name:         "partition-load",
		Inputs:       []string{input},
		Output:       scan,
		ExtraOutputs: files,
		Mapper:       mapreduce.MapperFunc(partitionLoadMapper),
		Partitioner:  partitionLoadPartitioner,
		NumReducers:  buckets,
		StreamReducer: mapreduce.StreamReducerFunc(func(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
			s, err := codec.DecodeID(key)
			if err != nil {
				return err
			}
			return collectTriples(key, values, out, files[hash64.Bucket(uint64(s), buckets)])
		}),
	}
	defer dfs.DeleteIfExists(scan)
	if _, err := mr.RunWorkflowNamed("partition-load", []mapreduce.Stage{{job}}); err != nil {
		return nil, err
	}
	if err := dfs.WriteLayout(layout); err != nil {
		return nil, err
	}
	return FromLayout(layout)
}

// RewritePartitionBuckets incrementally maintains an existing layout after
// new data arrived: only the buckets the delta subjects hash into are
// rebuilt — the loader shuffle re-runs over those buckets' old files plus
// the delta files, the rebuilt buckets are swapped in, and the manifest is
// re-stamped at datasetVersion. Unaffected buckets are never read or
// written, so the cost scales with the delta, not the relation. The manifest
// is deleted first and rewritten last: a crash mid-rewrite leaves a layout
// that fails ReadLayout instead of one that validates against stale buckets.
// Returns the number of buckets rebuilt.
func RewritePartitionBuckets(mr *mapreduce.Engine, dir string, deltas []string, datasetVersion string) (int, error) {
	dfs := mr.DFS()
	layout, err := dfs.ReadLayout(dir)
	if err != nil {
		return 0, err
	}

	// Affected buckets: every bucket some delta subject hashes into.
	affected := make(map[int]bool)
	for _, d := range deltas {
		recs, err := dfs.ReadAll(d)
		if err != nil {
			return 0, err
		}
		for _, rec := range recs {
			t, err := codec.DecodeTriple(rec)
			if err != nil {
				return 0, err
			}
			affected[hash64.Bucket(uint64(t.S), layout.Buckets)] = true
		}
	}
	layout.Version = datasetVersion
	dfs.DeleteIfExists(dir + "/" + hdfs.LayoutManifestName)
	if len(affected) == 0 {
		if err := dfs.WriteLayout(layout); err != nil {
			return 0, err
		}
		return 0, nil
	}

	// Re-shuffle old affected buckets plus the deltas into rebuild temps.
	// The (key, value) shuffle sort makes each rebuilt bucket byte-identical
	// to the bucket a full reload over the merged relation would produce.
	temps := make(map[int]string, len(affected))
	var inputs, extra []string
	for b := range affected {
		old := layout.BucketFile(b)
		if dfs.Exists(old) {
			inputs = append(inputs, old)
		}
		temps[b] = old + ".rebuild"
		extra = append(extra, temps[b])
	}
	inputs = append(inputs, deltas...)
	scan := dir + "/_rebuild-scan"
	job := &mapreduce.Job{
		Name:         "partition-rewrite",
		Inputs:       inputs,
		Output:       scan,
		ExtraOutputs: extra,
		Mapper:       mapreduce.MapperFunc(partitionLoadMapper),
		Partitioner:  partitionLoadPartitioner,
		NumReducers:  layout.Buckets,
		StreamReducer: mapreduce.StreamReducerFunc(func(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
			s, err := codec.DecodeID(key)
			if err != nil {
				return err
			}
			temp := temps[hash64.Bucket(uint64(s), layout.Buckets)]
			if temp == "" {
				return fmt.Errorf("plan: partition-rewrite saw subject %d outside the rebuilt buckets", s)
			}
			return collectTriples(key, values, out, temp)
		}),
	}
	defer dfs.DeleteIfExists(scan)
	if _, err := mr.RunWorkflowNamed("partition-rewrite", []mapreduce.Stage{{job}}); err != nil {
		return 0, err
	}
	for b, temp := range temps {
		dst := layout.BucketFile(b)
		dfs.DeleteIfExists(dst)
		if err := dfs.Rename(temp, dst); err != nil {
			return 0, err
		}
	}
	if err := dfs.WriteLayout(layout); err != nil {
		return 0, err
	}
	return len(affected), nil
}

// LoadPartitioning reads and validates the layout manifest under dir against
// the dataset version the caller is about to query. A missing or corrupt
// manifest surfaces as the hdfs error; a version mismatch surfaces as
// hdfs.ErrLayoutStale — callers are expected to fall back to the flat path.
func LoadPartitioning(dfs *hdfs.DFS, dir, datasetVersion string) (*Partitioning, error) {
	l, err := dfs.ReadLayout(dir)
	if err != nil {
		return nil, err
	}
	if err := l.Validate(datasetVersion); err != nil {
		return nil, err
	}
	return FromLayout(l)
}
