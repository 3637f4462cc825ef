package ingest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"ntga/internal/codec"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/rdf"
)

const testInput = "data/triples"

const baseNT = `<http://ex/s1> <http://ex/p1> <http://ex/o1> .
<http://ex/s2> <http://ex/p1> <http://ex/o2> .
<http://ex/s2> <http://ex/p2> <http://ex/s1> .
<http://ex/s3> <http://ex/p2> <http://ex/o1> .
`

const delta1NT = `# a comment and a blank line must be skipped

<http://ex/s4> <http://ex/p1> <http://ex/o1> .
<http://ex/s1> <http://ex/p3> "label one" .
`

const delta2NT = `<http://ex/s2> <http://ex/p3> <http://ex/o9> .
<http://ex/s5> <http://ex/p4> <http://ex/s1> .
`

// setup loads the base graph into a fresh DFS and opens a store over it.
func setup(t *testing.T) (*mapreduce.Engine, *Store) {
	t.Helper()
	g, err := rdf.ReadNTriples(strings.NewReader(baseNT))
	if err != nil {
		t.Fatalf("read base: %v", err)
	}
	mr := enginetest.NewMR()
	if err := engine.LoadGraph(mr.DFS(), testInput, g); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	st, err := Init(mr.DFS(), testInput, g)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	return mr, st
}

// freshReload parses the concatenation of the given N-Triples sources from
// scratch — the oracle every incremental path must match exactly.
func freshReload(t *testing.T, srcs ...string) *rdf.Graph {
	t.Helper()
	g, err := rdf.ReadNTriples(strings.NewReader(strings.Join(srcs, "")))
	if err != nil {
		t.Fatalf("fresh reload: %v", err)
	}
	return g
}

// TestIngestVersionMatchesFreshReload is the core invariant: the running
// manifest version after any number of ingests equals rdf.Graph.Version()
// of a from-scratch parse of base+deltas, and the in-memory graph (IDs and
// order) is identical to that fresh parse.
func TestIngestVersionMatchesFreshReload(t *testing.T) {
	mr, st := setup(t)
	if _, err := st.Ingest(strings.NewReader(delta1NT)); err != nil {
		t.Fatalf("ingest delta1: %v", err)
	}
	res, err := st.Ingest(strings.NewReader(delta2NT))
	if err != nil {
		t.Fatalf("ingest delta2: %v", err)
	}
	fresh := freshReload(t, baseNT, delta1NT, delta2NT)
	if st.Version() != fresh.Version() {
		t.Errorf("incremental version %s != fresh reload version %s", st.Version(), fresh.Version())
	}
	if res.Version != st.Version() {
		t.Errorf("result version %s != store version %s", res.Version, st.Version())
	}
	g := st.Graph()
	if !reflect.DeepEqual(g.Triples, fresh.Triples) {
		t.Errorf("incremental graph triples differ from fresh reload")
	}
	if g.Dict.Len() != fresh.Dict.Len() {
		t.Errorf("dict size %d != fresh %d", g.Dict.Len(), fresh.Dict.Len())
	}

	// The persisted manifest round-trips and validates only at the current
	// version.
	man, err := ReadManifest(mr.DFS(), testInput)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if !reflect.DeepEqual(man, st.Manifest()) {
		t.Errorf("persisted manifest differs from in-memory one:\n%+v\nvs\n%+v", man, st.Manifest())
	}
	if err := man.Validate(fresh.Version()); err != nil {
		t.Errorf("Validate(current) = %v, want nil", err)
	}
	if err := man.Validate("0000000000000000"); !errors.Is(err, ErrManifestStale) {
		t.Errorf("Validate(stale) = %v, want ErrManifestStale", err)
	}
	if len(man.Deltas) != 2 || man.Seq != 2 || man.Gen != 0 {
		t.Errorf("manifest chain = %+v, want 2 deltas at seq 2 gen 0", man)
	}
}

// TestIngestDeltaBlockContents: the block file holds exactly the batch's
// triples in the base codec, and the block metadata matches.
func TestIngestDeltaBlockContents(t *testing.T) {
	mr, st := setup(t)
	res, err := st.Ingest(strings.NewReader(delta1NT))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.Block.File != DeltaName(testInput, 1) {
		t.Errorf("block file %q, want %q", res.Block.File, DeltaName(testInput, 1))
	}
	recs, err := mr.DFS().ReadAll(res.Block.File)
	if err != nil {
		t.Fatalf("ReadAll(%s): %v", res.Block.File, err)
	}
	if len(recs) != 2 || res.Block.Triples != 2 {
		t.Fatalf("block holds %d records (meta %d), want 2", len(recs), res.Block.Triples)
	}
	var total int64
	for i, rec := range recs {
		got, err := codec.DecodeTriple(rec)
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if got != res.Triples[i] {
			t.Errorf("record %d = %+v, want %+v", i, got, res.Triples[i])
		}
		total += int64(len(rec))
	}
	if res.Block.Bytes != total {
		t.Errorf("block bytes %d, want %d", res.Block.Bytes, total)
	}
}

// TestIngestBadBatchAtomic: a batch with any invalid line is rejected as
// ErrBadBatch with zero side effects — dictionary, graph, manifest, and DFS
// all untouched — so a later valid ingest still matches the fresh-reload
// oracle exactly.
func TestIngestBadBatchAtomic(t *testing.T) {
	mr, st := setup(t)
	g := st.Graph()
	dictBefore, triplesBefore := g.Dict.Len(), len(g.Triples)
	bad := "<http://ex/snew> <http://ex/pnew> <http://ex/onew> .\nthis is not a triple\n"
	_, err := st.Ingest(strings.NewReader(bad))
	if !errors.Is(err, ErrBadBatch) {
		t.Fatalf("Ingest(bad) = %v, want ErrBadBatch", err)
	}
	if g.Dict.Len() != dictBefore {
		t.Errorf("failed batch grew the dictionary: %d -> %d", dictBefore, g.Dict.Len())
	}
	if len(g.Triples) != triplesBefore {
		t.Errorf("failed batch grew the graph: %d -> %d", triplesBefore, len(g.Triples))
	}
	if man := st.Manifest(); man.Seq != 0 || len(man.Deltas) != 0 {
		t.Errorf("failed batch moved the manifest: %+v", man)
	}
	if mr.DFS().Exists(DeltaName(testInput, 1)) {
		t.Errorf("failed batch left a delta block behind")
	}

	// The next valid ingest is unaffected by the failed one.
	if _, err := st.Ingest(strings.NewReader(delta1NT)); err != nil {
		t.Fatalf("ingest after failure: %v", err)
	}
	if fresh := freshReload(t, baseNT, delta1NT); st.Version() != fresh.Version() {
		t.Errorf("version after failed batch %s != fresh %s", st.Version(), fresh.Version())
	}
}

// TestIngestEmptyBatch: comments and blank lines only — accepted, no-op.
func TestIngestEmptyBatch(t *testing.T) {
	_, st := setup(t)
	before := st.Version()
	res, err := st.Ingest(strings.NewReader("# nothing here\n\n"))
	if err != nil {
		t.Fatalf("Ingest(empty) = %v", err)
	}
	if res.Seq != 0 || res.Version != before || res.Block.File != "" {
		t.Errorf("empty batch was not a no-op: %+v", res)
	}
}

// TestReadManifestMissing: a dataset without a manifest is ErrNoManifest.
func TestReadManifestMissing(t *testing.T) {
	dfs := hdfs.New(hdfs.Config{Nodes: 1, BlockSize: 1 << 16})
	if _, err := ReadManifest(dfs, "no/such/dataset"); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("ReadManifest(missing) = %v, want ErrNoManifest", err)
	}
}

// TestCompactProducesMergedBase: compaction folds the chain into a new base
// generation whose records are byte-identical to a from-scratch load of the
// merged dataset, leaves the version untouched, and (with Prune) removes the
// consumed files.
func TestCompactProducesMergedBase(t *testing.T) {
	mr, st := setup(t)
	for _, d := range []string{delta1NT, delta2NT} {
		if _, err := st.Ingest(strings.NewReader(d)); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	before := st.Version()
	res, err := st.Compact(mr, CompactOptions{Prune: true})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if res.Base != BaseName(testInput, 1) || res.Gen != 1 || res.Folded != 2 || res.FoldedTriples != 4 {
		t.Errorf("compact result %+v", res)
	}
	if st.Version() != before || res.Version != before {
		t.Errorf("compaction changed the version: %s -> %s", before, st.Version())
	}
	man := st.Manifest()
	if man.Base != res.Base || len(man.Deltas) != 0 || man.BaseVersion != before {
		t.Errorf("post-compact manifest %+v", man)
	}

	// Oracle: load the merged dataset from scratch and compare files.
	fresh := freshReload(t, baseNT, delta1NT, delta2NT)
	oracle := enginetest.NewMR()
	if err := engine.LoadGraph(oracle.DFS(), testInput, fresh); err != nil {
		t.Fatalf("oracle LoadGraph: %v", err)
	}
	want, err := oracle.DFS().ReadAll(testInput)
	if err != nil {
		t.Fatalf("oracle ReadAll: %v", err)
	}
	got, err := mr.DFS().ReadAll(res.Base)
	if err != nil {
		t.Fatalf("ReadAll(new base): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted base differs from a fresh load of the merged dataset (%d vs %d records)", len(got), len(want))
	}

	// Prune removed the old generation and the folded blocks.
	for _, f := range []string{testInput, DeltaName(testInput, 1), DeltaName(testInput, 2)} {
		if mr.DFS().Exists(f) {
			t.Errorf("pruned file %s still exists", f)
		}
	}

	// A second compaction with an empty chain is a no-op.
	res2, err := st.Compact(mr, CompactOptions{})
	if err != nil {
		t.Fatalf("empty Compact: %v", err)
	}
	if res2.Gen != 1 || res2.Folded != 0 {
		t.Errorf("empty compact moved the manifest: %+v", res2)
	}
}

// TestCompactRetainsOldGenerationByDefault: without Prune the previous base
// and the folded delta blocks stay on the DFS for pinned readers.
func TestCompactRetainsOldGenerationByDefault(t *testing.T) {
	mr, st := setup(t)
	if _, err := st.Ingest(strings.NewReader(delta1NT)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := st.Compact(mr, CompactOptions{}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for _, f := range []string{testInput, DeltaName(testInput, 1)} {
		if !mr.DFS().Exists(f) {
			t.Errorf("retained file %s was deleted", f)
		}
	}
}

// TestCompactMaintainsPartitionLayout: with a layout built at the base
// version, ingest makes it stale (hdfs.ErrLayoutStale), and compaction with
// LayoutDir rebuilds exactly the affected buckets and re-stamps the manifest
// so the layout validates at the current dataset version again — with every
// bucket byte-identical to a full layout rebuild over the merged dataset.
func TestCompactMaintainsPartitionLayout(t *testing.T) {
	const dir = "data/part"
	const buckets = 4
	mr, st := setup(t)
	if _, err := plan.BuildPartitionLayout(mr, testInput, dir, buckets, st.Version()); err != nil {
		t.Fatalf("BuildPartitionLayout: %v", err)
	}
	if _, err := st.Ingest(strings.NewReader(delta1NT)); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	// The un-compacted delta flips the layout to stale.
	if _, err := plan.LoadPartitioning(mr.DFS(), dir, st.Version()); !errors.Is(err, hdfs.ErrLayoutStale) {
		t.Fatalf("LoadPartitioning after ingest = %v, want ErrLayoutStale", err)
	}

	res, err := st.Compact(mr, CompactOptions{LayoutDir: dir})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if res.BucketsRewritten == 0 || res.BucketsRewritten > buckets {
		t.Errorf("BucketsRewritten = %d", res.BucketsRewritten)
	}
	if _, err := plan.LoadPartitioning(mr.DFS(), dir, st.Version()); err != nil {
		t.Fatalf("LoadPartitioning after compact = %v, want valid", err)
	}

	// Oracle: full layout rebuild over a fresh load of the merged dataset.
	fresh := freshReload(t, baseNT, delta1NT)
	oracle := enginetest.NewMR()
	if err := engine.LoadGraph(oracle.DFS(), testInput, fresh); err != nil {
		t.Fatalf("oracle LoadGraph: %v", err)
	}
	if _, err := plan.BuildPartitionLayout(oracle, testInput, dir, buckets, fresh.Version()); err != nil {
		t.Fatalf("oracle BuildPartitionLayout: %v", err)
	}
	wantLayout, err := oracle.DFS().ReadLayout(dir)
	if err != nil {
		t.Fatalf("oracle ReadLayout: %v", err)
	}
	for b := 0; b < buckets; b++ {
		name := wantLayout.BucketFile(b)
		want, _ := oracle.DFS().ReadAll(name)
		got, _ := mr.DFS().ReadAll(name)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("bucket %d differs from full rebuild (%d vs %d records)", b, len(got), len(want))
		}
	}
}

// TestIngestHashesMatchFmt pins a delta block's hash and the running
// version to the form they have always had: fnv64a over fmt's "%d,%d,%d;"
// of each triple, the block's alone and the whole relation's.
func TestIngestHashesMatchFmt(t *testing.T) {
	_, st := setup(t)
	res, err := st.Ingest(strings.NewReader(delta1NT))
	if err != nil {
		t.Fatal(err)
	}
	fmtHash := func(triples []rdf.Triple) string {
		h := fnv.New64a()
		for _, tr := range triples {
			fmt.Fprintf(h, "%d,%d,%d;", tr.S, tr.P, tr.O)
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	if got, want := res.Block.Hash, fmtHash(res.Triples); got != want {
		t.Errorf("block hash %s, the fmt form %s", got, want)
	}
	if got, want := res.Version, fmtHash(st.Graph().Triples); got != want {
		t.Errorf("version %s, the fmt form %s", got, want)
	}
}
