package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"ntga/internal/enginetest"
	"ntga/internal/ingest"
	"ntga/internal/plan"
	"ntga/internal/rdf"
)

// batchNT is an N-Triples batch overlapping the BioGraph fixture: one new
// xGO edge for an existing gene (affects star queries over xGO), one
// entirely new gene with a label, and a new GO term it points at.
const batchNT = `<http://ex/gene1> <http://ex/xGO> <http://ex/go0> .
# a brand-new subject minting fresh dictionary terms
<http://ex/gene9> <http://ex/label> "gene 9 label" .
<http://ex/gene9> <http://ex/xGO> <http://ex/go7> .
<http://ex/go7> <http://ex/label> "go term 7" .
<http://ex/go7> <http://ex/type> <http://ex/GOTerm> .
`

// sourceQuery touches only the ex:source predicate, which no batchNT triple
// carries — the cache-maintenance "unaffected" probe.
const sourceQuery = exPrefix + `SELECT * WHERE { ?r ex:source ?src . }`

// mergedBioGraph is BioGraph plus batchNT's triples, the from-scratch
// reference an ingesting server must stay byte-identical to.
func mergedBioGraph(t *testing.T) *rdf.Graph {
	t.Helper()
	g := enginetest.BioGraph()
	add := func(s, p string, o rdf.Term) { g.Add(enginetest.Ex(s), enginetest.Ex(p), o) }
	add("gene1", "xGO", enginetest.Ex("go0"))
	add("gene9", "label", rdf.NewLiteral("gene 9 label"))
	add("gene9", "xGO", enginetest.Ex("go7"))
	add("go7", "label", rdf.NewLiteral("go term 7"))
	add("go7", "type", enginetest.Ex("GOTerm"))
	g.Dedup()
	return g
}

func sortedRows(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

func TestIngestDeltaQueryParity(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()

	before, err := s.Evaluate(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	verBefore := s.Snapshot().DatasetVersion

	res, err := s.Ingest(ctx, strings.NewReader(batchNT))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triples != 5 || res.DeltaBlocks != 1 || res.Block == "" {
		t.Fatalf("ingest result = %+v, want 5 triples in 1 delta block", res)
	}
	if res.DatasetVersion == verBefore {
		t.Error("ingest did not move the dataset version")
	}

	after, err := s.Evaluate(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	if after.Cache == "hit" {
		t.Error("affected query served from cache across ingest")
	}
	if after.TotalRows <= before.TotalRows {
		t.Errorf("rows %d -> %d across ingest, want growth from the new xGO edges",
			before.TotalRows, after.TotalRows)
	}

	// Byte parity with a from-scratch load of the merged dataset.
	fresh, err := New(Config{}, mergedBioGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.Evaluate(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := sortedRows(after.Rows), sortedRows(want.Rows); strings.Join(got, "\n") != strings.Join(exp, "\n") {
		t.Errorf("delta-overlay rows differ from merged-dataset rows:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(exp, "\n"))
	}

	m := s.Snapshot()
	if m.Ingests != 1 || m.IngestedTriples != 5 || m.DeltaBlocks != 1 {
		t.Errorf("metrics ingests/triples/delta_blocks = %d/%d/%d, want 1/5/1",
			m.Ingests, m.IngestedTriples, m.DeltaBlocks)
	}
}

// TestIngestCacheMaintenance is the serve-path acceptance check: an ingest
// evicts exactly the cached results its batch can affect, while unaffected
// entries survive re-keyed — the next identical query is a cache hit at the
// new dataset version with zero MR cycles.
func TestIngestCacheMaintenance(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()

	affected, err := s.Evaluate(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	unaffected, err := s.Evaluate(ctx, Request{Query: sourceQuery})
	if err != nil {
		t.Fatal(err)
	}
	if affected.Cache != "miss" || unaffected.Cache != "miss" {
		t.Fatalf("priming runs cache = %s/%s, want miss/miss", affected.Cache, unaffected.Cache)
	}

	res, err := s.Ingest(ctx, strings.NewReader(batchNT))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheEvicted != 1 || res.CacheRetained != 1 {
		t.Fatalf("cache maintenance = %d evicted / %d retained, want 1/1 (batch touches xGO but never source)",
			res.CacheEvicted, res.CacheRetained)
	}

	// The unaffected entry survived the ingest re-keyed to the new dataset
	// version: served as a hit, zero MR cycles, same rows.
	hit, err := s.Evaluate(ctx, Request{Query: sourceQuery})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache != "hit" || hit.Cycles != 0 {
		t.Errorf("unaffected re-query cache=%s cycles=%d, want hit with 0 cycles", hit.Cache, hit.Cycles)
	}
	if strings.Join(hit.Rows, "\n") != strings.Join(unaffected.Rows, "\n") {
		t.Error("retained entry served different rows")
	}

	// The affected entry is gone: the re-query misses and re-executes over
	// base ∪ delta.
	miss, err := s.Evaluate(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cache != "miss" || miss.Cycles == 0 {
		t.Errorf("affected re-query cache=%s cycles=%d, want miss with real execution", miss.Cache, miss.Cycles)
	}

	m := s.Snapshot()
	if m.CacheRetained != 1 || m.CacheEvicted != 1 {
		t.Errorf("metrics cache_retained/cache_evicted = %d/%d, want 1/1", m.CacheRetained, m.CacheEvicted)
	}
}

func TestIngestBadBatchRejectedAtomically(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	verBefore := s.Snapshot().DatasetVersion

	_, err := s.Ingest(ctx, strings.NewReader("<http://ex/a> <http://ex/b> <http://ex/c> .\nnot a triple\n"))
	if !errors.Is(err, ingest.ErrBadBatch) {
		t.Fatalf("bad batch err = %v, want ingest.ErrBadBatch", err)
	}
	m := s.Snapshot()
	if m.DatasetVersion != verBefore || m.DeltaBlocks != 0 || m.Ingests != 0 {
		t.Errorf("failed batch moved the dataset: %+v", m)
	}

	// A comment-only batch is a no-op success at the current version.
	res, err := s.Ingest(ctx, strings.NewReader("# nothing here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triples != 0 || res.DatasetVersion != verBefore || res.Block != "" {
		t.Errorf("empty batch result = %+v, want no-op at current version", res)
	}
}

// TestCompactPreservesVersionAndCache: delta-merge compaction folds the
// chain into a fresh base generation without changing the dataset content —
// the version is stable, cached results stay valid, and post-compaction
// queries return the same rows with an empty delta chain.
func TestCompactPreservesVersionAndCache(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()

	if _, err := s.Ingest(ctx, strings.NewReader(batchNT)); err != nil {
		t.Fatal(err)
	}
	overlay, err := s.Evaluate(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	verBefore := s.Snapshot().DatasetVersion

	res, err := s.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 1 || res.FoldedTriples != 5 {
		t.Errorf("compaction folded %d blocks / %d triples, want 1/5", res.Folded, res.FoldedTriples)
	}
	m := s.Snapshot()
	if m.DatasetVersion != verBefore {
		t.Error("compaction changed the dataset version (content is unchanged)")
	}
	if m.DeltaBlocks != 0 || m.Compactions != 1 {
		t.Errorf("post-compaction delta_blocks/compactions = %d/%d, want 0/1", m.DeltaBlocks, m.Compactions)
	}

	// Cached-across-compaction: same key, zero cycles.
	hit, err := s.Evaluate(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache != "hit" || hit.Cycles != 0 {
		t.Errorf("post-compaction re-query cache=%s cycles=%d, want hit/0", hit.Cache, hit.Cycles)
	}

	// And a fresh execution over the compacted base matches the overlay run.
	bypass, err := s.Evaluate(ctx, Request{Query: twoStarQuery, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(sortedRows(bypass.Rows), "\n") != strings.Join(sortedRows(overlay.Rows), "\n") {
		t.Error("compacted-base rows differ from delta-overlay rows")
	}

	// An empty chain is a no-op.
	if again, err := s.Compact(ctx); err != nil || again.Folded != 0 {
		t.Errorf("second compaction = (%+v, %v), want no-op", again, err)
	}
}

func TestAutoCompactAfterThreshold(t *testing.T) {
	s := newTestServer(t, Config{CompactAfter: 2})
	ctx := context.Background()

	first, err := s.Ingest(ctx, strings.NewReader("<http://ex/n1> <http://ex/p1> <http://ex/o1> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if first.Compacted || first.DeltaBlocks != 1 {
		t.Fatalf("first ingest = %+v, want 1 uncompacted block", first)
	}
	second, err := s.Ingest(ctx, strings.NewReader("<http://ex/n2> <http://ex/p1> <http://ex/o2> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Compacted || second.DeltaBlocks != 0 {
		t.Fatalf("second ingest = %+v, want auto-compaction at chain length 2", second)
	}
	if got := s.Snapshot().Compactions; got != 1 {
		t.Errorf("compactions = %d, want 1", got)
	}
}

// TestIngestIncrementalCatalogMatchesRescan: the folded catalog equals an
// exact from-scratch rescan of the merged graph — mergeable maintenance
// loses nothing — so the advisor and optimizer see correct statistics.
func TestIngestIncrementalCatalogMatchesRescan(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Ingest(context.Background(), strings.NewReader(batchNT)); err != nil {
		t.Fatal(err)
	}
	exact := plan.FromGraph(mergedBioGraph(t))
	view := s.wh.View()
	folded := view.Catalog
	if folded.Triples != exact.Triples || folded.Subjects != exact.Subjects {
		t.Errorf("folded catalog triples/subjects = %d/%d, want %d/%d",
			folded.Triples, folded.Subjects, exact.Triples, exact.Subjects)
	}
	// The plan-cache key must move with the catalog: a stale catalog version
	// would silently reuse pre-ingest join orders forever.
	exactVer, err := ingest.CatalogVersion(exact)
	if err != nil {
		t.Fatal(err)
	}
	gotVer := view.CatalogVersion
	if gotVer != exactVer {
		t.Errorf("folded catalog version %s != exact rescan version %s", gotVer, exactVer)
	}
}

// TestHTTPIngestRoundTrip drives the full write path over the wire: POST
// /ingest lands a delta block queries immediately see, a bad batch comes
// back as a typed 422, and POST /compact folds the chain.
func TestHTTPIngestRoundTrip(t *testing.T) {
	_, c := newHTTPServer(t, Config{})
	ctx := context.Background()

	before, err := c.Query(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}

	res, err := c.Ingest(ctx, strings.NewReader(batchNT))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triples != 5 || res.DeltaBlocks != 1 {
		t.Fatalf("ingest over HTTP = %+v, want 5 triples / 1 block", res)
	}

	after, err := c.Query(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	if after.TotalRows <= before.TotalRows {
		t.Errorf("rows %d -> %d across HTTP ingest, want growth", before.TotalRows, after.TotalRows)
	}

	// Typed 422: errors.Is works across the wire.
	if _, err := c.Ingest(ctx, strings.NewReader("garbage\n")); !errors.Is(err, ingest.ErrBadBatch) {
		t.Errorf("bad batch over HTTP = %v, want ingest.ErrBadBatch", err)
	}

	cres, err := c.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Folded != 1 {
		t.Errorf("compaction over HTTP folded %d blocks, want 1", cres.Folded)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ingests != 1 || m.Compactions != 1 || m.DeltaBlocks != 0 {
		t.Errorf("metrics ingests/compactions/delta_blocks = %d/%d/%d, want 1/1/0",
			m.Ingests, m.Compactions, m.DeltaBlocks)
	}
}

// TestDistributedIngestLockstep: a server hosting the master ingests into
// the master's own warehouse, so the fleet moves with every batch: one
// ingest moves the master to the server's dataset version, queries on the
// workers see the delta rows identically to a local-mode server that
// ingested the same batch, a retained cache entry keeps hitting, and
// compaction keeps the version.
func TestDistributedIngestLockstep(t *testing.T) {
	dist, m, _ := startServerCluster(t, enginetest.BioGraph(), Config{Reducers: 4})
	local := newTestServer(t, Config{Reducers: 4})
	ctx := context.Background()

	// Prime an unaffected cached result on the distributed path, so the
	// maintenance split is exercised over fleet-produced entries too.
	if _, err := dist.Evaluate(ctx, Request{Query: sourceQuery}); err != nil {
		t.Fatal(err)
	}

	res, err := dist.Ingest(ctx, strings.NewReader(batchNT))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triples != 5 || res.CacheRetained != 1 {
		t.Fatalf("distributed ingest = %+v, want 5 triples with the source entry retained", res)
	}
	if v := m.Status().DatasetVersion; v != res.DatasetVersion {
		t.Fatalf("master at dataset %s after the ingest, server at %s", v, res.DatasetVersion)
	}

	lres, err := local.Ingest(ctx, strings.NewReader(batchNT))
	if err != nil {
		t.Fatal(err)
	}
	if lres.DatasetVersion != res.DatasetVersion {
		t.Errorf("local-mode ingest moved to dataset %s, distributed to %s", lres.DatasetVersion, res.DatasetVersion)
	}
	want, err := local.Evaluate(ctx, Request{Query: twoStarQuery, Engine: "ntga-lazy"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dist.Evaluate(ctx, Request{Query: twoStarQuery, Engine: "ntga-lazy"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(sortedRows(got.Rows), "\n") != strings.Join(sortedRows(want.Rows), "\n") {
		t.Error("distributed delta rows differ from local-mode ingest rows")
	}

	// The retained cache entry still serves on the fleet-backed server.
	hit, err := dist.Evaluate(ctx, Request{Query: sourceQuery})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache != "hit" || hit.Cycles != 0 {
		t.Errorf("retained entry after distributed ingest: cache=%s cycles=%d, want hit/0", hit.Cache, hit.Cycles)
	}

	// Compaction through the server folds the one chain; the version holds.
	if _, err := dist.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if v := m.Status().DatasetVersion; v != res.DatasetVersion {
		t.Errorf("compaction moved the master's dataset version from %s to %s", res.DatasetVersion, v)
	}
	post, err := dist.Evaluate(ctx, Request{Query: twoStarQuery, Engine: "ntga-lazy", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(sortedRows(post.Rows), "\n") != strings.Join(sortedRows(want.Rows), "\n") {
		t.Error("post-compaction distributed rows differ")
	}
}

func TestUnversionableCatalogFailsFastAndRefusesIngest(t *testing.T) {
	// Not parallel: the test swaps the package-level encode seam.
	orig := ingest.EncodeCatalog
	defer func() { ingest.EncodeCatalog = orig }()

	ingest.EncodeCatalog = func(cat *plan.Catalog, w io.Writer) error { return fmt.Errorf("disk full") }
	if _, err := New(Config{}, enginetest.BioGraph()); !errors.Is(err, ingest.ErrUnversionable) {
		t.Fatalf("New under failing encode = %v, want ErrUnversionable", err)
	}

	// A server built while the encode worked refuses to move the dataset
	// forward once it stops working: the ingest fails typed and the served
	// view stays at the pre-batch version.
	ingest.EncodeCatalog = orig
	s := newTestServer(t, Config{})
	verBefore := s.Snapshot().DatasetVersion
	ingest.EncodeCatalog = func(cat *plan.Catalog, w io.Writer) error { return fmt.Errorf("disk full") }
	_, err := s.Ingest(context.Background(), strings.NewReader(batchNT))
	if !errors.Is(err, ingest.ErrUnversionable) {
		t.Fatalf("ingest under failing encode = %v, want ErrUnversionable", err)
	}
	ingest.EncodeCatalog = orig
	if got := s.Snapshot().DatasetVersion; got != verBefore {
		t.Errorf("served dataset version moved to %s under an unversionable catalog", got)
	}
}
