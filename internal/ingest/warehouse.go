package ingest

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"ntga/internal/core/hash64"
	"ntga/internal/engine"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/rdf"
)

// ErrUnversionable marks a statistics catalog that could not be rendered
// into a content hash. The serve path keys both its caches on the catalog
// version, so a silent shared sentinel would let two different catalogs
// collide on one key: Open fails on it, and Ingest refuses to move the view.
var ErrUnversionable = errors.New("ingest: catalog version unavailable")

// EncodeCatalog is the catalog → bytes step CatalogVersion hashes. It is a
// variable only so tests can make it fail; nothing else assigns it.
var EncodeCatalog = func(cat *plan.Catalog, w io.Writer) error { return cat.Write(w) }

// CatalogVersion content-hashes the statistics catalog's JSON rendering.
func CatalogVersion(cat *plan.Catalog) (string, error) {
	var sb strings.Builder
	if err := EncodeCatalog(cat, &sb); err != nil {
		return "", fmt.Errorf("%w: %v", ErrUnversionable, err)
	}
	return fmt.Sprintf("%016x", hash64.Sum("%d:%s|", sb.Len(), sb.String())), nil
}

// View is one immutable snapshot of a warehouse: everything a query plans
// and keys its caches from, taken together so an ingest landing mid-request
// can never pair an old catalog with a new delta chain. The files Source
// names are immutable and compaction retains them, so a query finishes on
// the view it started with. Nothing a view points at is ever modified.
type View struct {
	// Source is where T sits: the base relation, the uncompacted delta
	// chain, and the layout of the base (nil when the warehouse has none).
	Source plan.Source
	// Catalog is the statistics catalog: exact at Open (plan.FromGraph),
	// projected from the mergeable sketch state after the first ingest.
	// CatalogVersion content-hashes it.
	Catalog        *plan.Catalog
	CatalogVersion string
	// Version is the dataset content hash of base plus deltas
	// (rdf.Graph.Version of the same triples); Triples is their count.
	Version string
	Triples int64
}

// Warehouse is the one owner of a process's versioned dataset: the triple
// relation T every plan scans, held as a base relation plus a delta chain
// (Store), the statistics catalog folded over it, and the optional
// hash-of-subject layout compaction keeps current. Ingest and Compact are
// the only writers and run one at a time; each installs a fresh View.
// Readers take View without locking.
type Warehouse struct {
	mu    sync.Mutex // serializes Ingest, Compact and Terms
	store *Store
	state *plan.CatalogState
	view  atomic.Pointer[View]
	// served holds every dataset version the warehouse has installed: the
	// boot version and each ingest's (guarded by mu).
	served map[string]bool
}

// Open loads g into mr's DFS as the base relation input, builds the
// hash-of-subject layout under layoutDir at the base version when buckets >
// 0 (on mr, before any delta exists), writes the dataset manifest, and
// computes the exact boot catalog and the sketch state later ingests fold
// into.
func Open(mr *mapreduce.Engine, input string, g *rdf.Graph, layoutDir string, buckets int) (*Warehouse, error) {
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		return nil, fmt.Errorf("ingest: loading graph: %w", err)
	}
	var part *plan.Partitioning
	if buckets > 0 {
		var err error
		if part, err = plan.BuildPartitionLayout(mr, input, layoutDir, buckets, g.Version()); err != nil {
			return nil, fmt.Errorf("ingest: building partition layout: %w", err)
		}
	}
	store, err := Init(mr.DFS(), input, g)
	if err != nil {
		return nil, fmt.Errorf("ingest: initializing dataset manifest: %w", err)
	}
	cat := plan.FromGraph(g)
	catVer, err := CatalogVersion(cat)
	if err != nil {
		return nil, err
	}
	w := &Warehouse{store: store, state: plan.StateFromGraph(g), served: map[string]bool{store.Version(): true}}
	w.install(cat, catVer, part)
	return w, nil
}

// View returns the current snapshot.
func (w *Warehouse) View() View { return *w.view.Load() }

// Graph returns the in-memory graph the warehouse extends on ingest (shared,
// not a copy).
func (w *Warehouse) Graph() *rdf.Graph { return w.store.Graph() }

// install publishes a view over the store's current manifest.
func (w *Warehouse) install(cat *plan.Catalog, catVer string, part *plan.Partitioning) {
	man := w.store.Manifest()
	w.view.Store(&View{
		Source:         plan.Source{Base: man.Base, Deltas: man.DeltaFiles(), Part: part},
		Catalog:        cat,
		CatalogVersion: catVer,
		Version:        man.Version,
		Triples:        cat.Triples,
	})
}

// Ingest appends one N-Triples batch as a delta block (Store.Ingest), folds
// it into the sketch state — no rescan — and installs a view with the
// re-derived catalog. The layout stays at its base version: a view with
// uncompacted deltas holds a stale layout, which engine.Plan sets aside
// until Compact. An empty batch installs nothing. If the new catalog cannot
// be versioned the view does not move and the error wraps
// ErrUnversionable.
func (w *Warehouse) Ingest(r io.Reader) (*Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	res, err := w.store.Ingest(r)
	if err != nil || len(res.Triples) == 0 {
		return res, err
	}
	dict := w.store.Graph().Dict
	for _, t := range res.Triples {
		w.state.AddTriple(dict, t)
	}
	cat := w.state.Catalog()
	catVer, err := CatalogVersion(cat)
	if err != nil {
		return nil, err
	}
	w.install(cat, catVer, w.view.Load().Source.Part)
	w.served[res.Version] = true
	return res, nil
}

// Terms returns the dictionary's terms from index from onward, in ID order,
// with the dataset version they belong to. Both are read under the writer
// lock, so an ingest can never land between them: the terms are exactly the
// dictionary of that version. A running Compact holds the same lock, so
// Terms waits for it.
func (w *Warehouse) Terms(from int) ([]rdf.Term, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	dict := w.store.Graph().Dict
	terms := make([]rdf.Term, 0, max(dict.Len()-from, 0))
	i := 0
	dict.Range(func(_ rdf.ID, t rdf.Term) bool {
		if i >= from {
			terms = append(terms, t)
		}
		i++
		return true
	})
	return terms, w.view.Load().Version
}

// Served reports whether the warehouse has ever installed version: the boot
// version or one an ingest moved to. A dictionary built at a served version
// is a prefix of this warehouse's dictionary.
func (w *Warehouse) Served(version string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.served[version]
}

// Compact folds the delta chain into a fresh base generation on mr — each
// process passes its own engine — and maintains the layout in the same
// pass, re-stamped at the dataset version as a new Partitioning: views
// taken before keep theirs unchanged. Old generations are retained (no
// Prune), so queries pinned to an earlier view finish on files that still
// exist. Content, and so the version and the catalog, are unchanged.
func (w *Warehouse) Compact(mr *mapreduce.Engine) (*CompactResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v := w.view.Load()
	part := v.Source.Part
	var opts CompactOptions
	if part != nil {
		opts.LayoutDir = part.Dir
	}
	res, err := w.store.Compact(mr, opts)
	if err != nil {
		return nil, err
	}
	if part != nil {
		restamped := *part
		restamped.Version = res.Version
		part = &restamped
	}
	w.install(v.Catalog, v.CatalogVersion, part)
	return res, nil
}
