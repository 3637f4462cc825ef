package ingest

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ntga/internal/enginetest"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/rdf"
)

const (
	testLayoutDir = "data/part"
	testBuckets   = 4
)

// openTest opens a warehouse with a layout over a fresh parse of the base
// graph, returning the engine it runs on.
func openTest(t *testing.T) (*mapreduce.Engine, *Warehouse) {
	t.Helper()
	g, err := rdf.ReadNTriples(strings.NewReader(baseNT))
	if err != nil {
		t.Fatal(err)
	}
	mr := enginetest.NewMR()
	w, err := Open(mr, testInput, g, testLayoutDir, testBuckets)
	if err != nil {
		t.Fatal(err)
	}
	return mr, w
}

// checkSource asserts the view's source is the store's manifest, with the
// layout stamped at stampedAt.
func checkSource(t *testing.T, w *Warehouse, v View, stampedAt string) {
	t.Helper()
	man := w.store.Manifest()
	if v.Source.Base != man.Base || !slices.Equal(v.Source.Deltas, man.DeltaFiles()) || v.Version != man.Version {
		t.Errorf("view source %+v at %s, manifest %+v", v.Source, v.Version, man)
	}
	if p := v.Source.Part; p == nil || p.Dir != testLayoutDir || p.Buckets != testBuckets || p.Version != stampedAt {
		t.Errorf("view layout %+v, want %s/%d stamped at %s", p, testLayoutDir, testBuckets, stampedAt)
	}
}

// TestWarehouseOpenIngestCompact walks Open → Ingest × 2 → Compact: the boot
// catalog is the exact one, each ingest's is the sketch state of the merged
// graph, the source always matches the manifest, and compaction re-stamps
// the layout at the dataset version without touching the catalog.
func TestWarehouseOpenIngestCompact(t *testing.T) {
	mr, w := openTest(t)
	boot := w.View()
	base := freshReload(t, baseNT)
	if !reflect.DeepEqual(boot.Catalog, plan.FromGraph(base)) {
		t.Error("boot catalog is not the exact catalog of the graph")
	}
	if boot.Version != base.Version() || boot.Triples != int64(base.Len()) {
		t.Errorf("boot view at %s with %d triples, want %s and %d", boot.Version, boot.Triples, base.Version(), base.Len())
	}
	checkSource(t, w, boot, base.Version())

	srcs := []string{baseNT}
	for _, delta := range []string{delta1NT, delta2NT} {
		if _, err := w.Ingest(strings.NewReader(delta)); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, delta)
		merged := freshReload(t, srcs...)
		v := w.View()
		want := plan.StateFromGraph(merged).Catalog()
		if !reflect.DeepEqual(v.Catalog, want) {
			t.Errorf("after %d ingests: catalog %+v, want %+v", len(srcs)-1, v.Catalog, want)
		}
		if ver, err := CatalogVersion(want); err != nil || v.CatalogVersion != ver {
			t.Errorf("after %d ingests: catalog version %s, want %s (%v)", len(srcs)-1, v.CatalogVersion, ver, err)
		}
		if v.Version != merged.Version() || v.Triples != int64(merged.Len()) {
			t.Errorf("after %d ingests: view at %s with %d triples, want %s and %d",
				len(srcs)-1, v.Version, v.Triples, merged.Version(), merged.Len())
		}
		checkSource(t, w, v, base.Version())
	}

	before := w.View()
	res, err := w.Compact(mr)
	if err != nil {
		t.Fatal(err)
	}
	after := w.View()
	if res.Folded != 2 || res.BucketsRewritten == 0 || after.Source.Base != res.Base || len(after.Source.Deltas) != 0 {
		t.Errorf("compaction %+v left the view at %+v", res, after.Source)
	}
	checkSource(t, w, after, before.Version)
	if after.Catalog != before.Catalog || after.CatalogVersion != before.CatalogVersion ||
		after.Version != before.Version || after.Triples != before.Triples {
		t.Error("compaction moved the catalog or the dataset version")
	}
	if _, err := plan.LoadPartitioning(mr.DFS(), testLayoutDir, after.Version); err != nil {
		t.Errorf("the persisted layout does not validate at the view's version: %v", err)
	}
}

// TestWarehouseViewSurvivesCompact: a view taken before Compact reads the
// same after it — base, deltas and every field of its layout — because
// compaction installs a new view and a new Partitioning instead of writing
// the old ones.
func TestWarehouseViewSurvivesCompact(t *testing.T) {
	mr, w := openTest(t)
	if _, err := w.Ingest(strings.NewReader(delta1NT)); err != nil {
		t.Fatal(err)
	}
	v := w.View()
	want := v
	want.Source.Deltas = slices.Clone(v.Source.Deltas)
	part := *v.Source.Part
	if _, err := w.Compact(mr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, want) || *v.Source.Part != part {
		t.Errorf("view taken before Compact changed: %+v (layout %+v), want %+v (layout %+v)", v, *v.Source.Part, want, part)
	}
	if w.View().Source.Part == v.Source.Part {
		t.Error("compaction re-stamped the layout in place")
	}
}

// TestWarehouseConcurrentViewsNeverMixVersions runs readers that take views
// while the writer ingests and compacts. Every view a reader saw must be one
// the writer installed whole: its dataset version, base and delta chain,
// catalog version and triple count as the writer recorded them together.
func TestWarehouseConcurrentViewsNeverMixVersions(t *testing.T) {
	mr, w := openTest(t)
	type key struct{ version, base string }
	installed := map[key]View{}
	record := func() {
		v := w.View()
		installed[key{v.Version, v.Source.Base}] = v
	}
	record()

	// same reports whether two views agree in every field, the delta chain
	// by length and the layout by value (so readers read it while the
	// writer runs): a reader keeps only views that differ from its last one.
	same := func(a, b View) bool {
		return a.Version == b.Version && a.Source.Base == b.Source.Base && len(a.Source.Deltas) == len(b.Source.Deltas) &&
			*a.Source.Part == *b.Source.Part && a.Catalog == b.Catalog && a.CatalogVersion == b.CatalogVersion && a.Triples == b.Triples
	}
	stop := make(chan struct{})
	seen := make([][]View, 4)
	var wg sync.WaitGroup
	for r := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if v := w.View(); len(seen[r]) == 0 || !same(v, seen[r][len(seen[r])-1]) {
						seen[r] = append(seen[r], v)
					}
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		batch := fmt.Sprintf("<http://ex/n%d> <http://ex/p%d> <http://ex/o%d> .\n", i, i%3, i)
		if _, err := w.Ingest(strings.NewReader(batch)); err != nil {
			t.Fatal(err)
		}
		record()
		if i%2 == 1 {
			if _, err := w.Compact(mr); err != nil {
				t.Fatal(err)
			}
			record()
		}
	}
	close(stop)
	wg.Wait()

	for r, views := range seen {
		for _, v := range views {
			want, ok := installed[key{v.Version, v.Source.Base}]
			if !ok {
				t.Fatalf("reader %d saw dataset %s over base %s, which the writer never installed", r, v.Version, v.Source.Base)
			}
			if !slices.Equal(v.Source.Deltas, want.Source.Deltas) || v.CatalogVersion != want.CatalogVersion ||
				v.Triples != want.Triples || v.Source.Part.Version != want.Source.Part.Version {
				t.Fatalf("reader %d saw a mixed view at dataset %s: %d deltas, catalog %s, %d triples, layout at %s; writer installed %d, %s, %d, %s",
					r, v.Version, len(v.Source.Deltas), v.CatalogVersion, v.Triples, v.Source.Part.Version,
					len(want.Source.Deltas), want.CatalogVersion, want.Triples, want.Source.Part.Version)
			}
		}
	}
}
