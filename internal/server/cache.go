package server

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"ntga/internal/engines"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// fingerprint hashes an ordered list of identity parts to a short stable
// token (fnv64a — the same generator the chaos machinery uses). Cache keys
// are built from these, never from pointer identity.
func fingerprint(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s|", len(p), p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// queryFingerprint canonicalizes a compiled query: the deterministic
// Explain rendering covers the stars, slots, and compile-order joins (all
// in dictionary-ID space, so it is only meaningful against one loaded
// dataset), and the projection/DISTINCT/COUNT clauses are appended since
// Explain omits them. Computed before the optimizer touches the join
// order, so the same source query always maps to the same plan-cache key.
func queryFingerprint(q *query.Query) string {
	return fingerprint(
		q.Explain(),
		strings.Join(q.Select, ","),
		fmt.Sprintf("distinct=%v count=%v countvar=%s", q.Distinct, q.IsCount(), q.Src.CountVar),
	)
}

// planEntry is the cached front-door decision for one (query, catalog)
// pairing — everything needed to rebuild the physical plan without
// re-running the cost model. The executable plan itself is NOT cached:
// prebuilt plans embed unique temp file names, so sharing one across
// concurrent requests would collide; applying the Choice to a freshly
// compiled query is cheap and safe.
type planEntry struct {
	engines.Choice
	EstShuffle int64 // optimizer's estimated join-chain shuffle bytes
}

// planCache maps (query fingerprint, requested engine, catalog version) to
// optimizer decisions. Entries are only valid for one catalog version, so
// the version lives in the key: reloading data invalidates by key miss,
// and stale entries are harmlessly unreachable.
type planCache struct {
	mu           sync.Mutex
	entries      map[string]planEntry
	hits, misses int64
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]planEntry)}
}

func (c *planCache) get(key string) (planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

func (c *planCache) put(key string, e planEntry) {
	c.mu.Lock()
	c.entries[key] = e
	c.mu.Unlock()
}

func (c *planCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}

// resultEntry is one cached query answer, stored as a term table: the
// header, every distinct rendered term once and one term index per
// projected cell are computed exactly once when the entry is built
// (newResultEntry), so a cache hit is zero-copy — the response slices the
// stored table without re-projecting or re-rendering anything. The scalar
// COUNT(*) answer and the output-shape stats ride along; engine identity
// says who computed it. Entries are immutable after construction — hit
// responses alias their slices.
type resultEntry struct {
	engine     string
	isCount    bool
	count      int64
	outRecords int64
	outBytes   int64
	header     []string
	terms      []string // distinct rendered terms, in order of first use
	cells      []uint32 // one index into terms per projected cell; nil for counts
	totalRows  int
}

// newResultEntry renders an execution result into its immutable cached
// form. Rendering happens here — once per result — never on the hit path.
func newResultEntry(q *query.Query, engine string, rows []query.Row, isCount bool, count, outRecords, outBytes int64) resultEntry {
	e := resultEntry{
		engine:     engine,
		isCount:    isCount,
		count:      count,
		outRecords: outRecords,
		outBytes:   outBytes,
	}
	e.header, e.terms, e.cells = q.RenderTable(rows)
	if len(e.header) > 0 {
		e.totalRows = len(e.cells) / len(e.header)
	}
	return e
}

// resultCache is a plain LRU over plan-fingerprint × dataset-version keys.
// The dataset version is part of the key, so loading different data can
// never serve stale rows; capacity bounds memory, with eviction from the
// cold end.
type resultCache struct {
	mu           sync.Mutex
	capacity     int
	ll           *list.List // front = most recent
	byKey        map[string]*list.Element
	hits, misses int64
}

type resultNode struct {
	key   string
	entry resultEntry
	id    cacheIdentity
}

// cacheIdentity is everything needed to re-derive a result's cache key
// under new catalog/dataset versions, plus the compiled query the
// delta-affectedness predicate runs against. The key derivation mirrors
// evaluate exactly: planKey = fp(qfp, engine, phiM, catalogVersion),
// resultKey = fp(planKey, datasetVersion). engine is the *requested* name
// (possibly "auto"), phiM the requested range — both as they entered the
// plan key, not as the planner resolved them.
type cacheIdentity struct {
	q      *query.Query
	qfp    string
	engine string
	phiM   string
}

// affected reports whether any delta triple could participate in some star
// of the cached query — the sound retention test for append-only ingest:
// every result row derives from star matches, so a batch in which no triple
// can join any star cannot change the result. Queries that compiled against
// missing terms (Empty) are always affected: an ingest may have minted
// exactly the term whose absence made them empty, and TripleRelevant cannot
// see that through the stale NoID in the compiled form.
func (id cacheIdentity) affected(deltas []rdf.Triple) bool {
	if id.q == nil || id.q.Empty() {
		return true
	}
	for _, t := range deltas {
		if id.q.TripleRelevant(t) {
			return true
		}
	}
	return false
}

// newResultCache returns nil for capacity <= 0 (cache disabled); a nil
// *resultCache is safe to call.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{capacity: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

func (c *resultCache) get(key string) (resultEntry, bool) {
	if c == nil {
		return resultEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return resultEntry{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*resultNode).entry, true
}

func (c *resultCache) put(key string, e resultEntry, id cacheIdentity) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		n := el.Value.(*resultNode)
		n.entry = e
		n.id = id
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&resultNode{key: key, entry: e, id: id})
	for c.ll.Len() > c.capacity {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		delete(c.byKey, cold.Value.(*resultNode).key)
	}
}

// maintain walks the cache after an accepted ingest batch instead of
// flushing it: entries whose query could match some delta triple are
// evicted (their rows may have changed), everything else is re-keyed to the
// new catalog and dataset versions so the very next identical request hits
// without a single MR cycle. Returns the retained/evicted split for the
// ingest response and /metrics.
func (c *resultCache) maintain(deltas []rdf.Triple, catVer, dataVer string) (retained, evicted int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		n := el.Value.(*resultNode)
		if n.id.affected(deltas) {
			c.ll.Remove(el)
			delete(c.byKey, n.key)
			evicted++
			continue
		}
		newKey := fingerprint(fingerprint(n.id.qfp, n.id.engine, n.id.phiM, catVer), dataVer)
		delete(c.byKey, n.key)
		n.key = newKey
		c.byKey[newKey] = el
		retained++
	}
	return retained, evicted
}

func (c *resultCache) stats() (hits, misses int64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
