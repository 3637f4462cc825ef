package plan

import (
	"fmt"
	"strconv"
	"sync"

	"ntga/internal/codec"
	"ntga/internal/mapreduce"
	"ntga/internal/rdf"
	"ntga/internal/stats"
)

// Bitmap sizes: the global subject/object sketches see up to the full
// relation's cardinality, the per-property ones a fraction of it. Every
// sketch the catalog machinery builds uses these two sizes, so any two
// catalog states (full build, delta build, persisted state) are mergeable.
const (
	globalSketchLogM  = 17 // 128K bits = 16KB
	perPropSketchLogM = 14 // 16K bits = 2KB
)

// Counter names of the catalog scan's exact sums. Per-property triple
// counts are catalogPropCounter followed by the property's dictionary ID.
const (
	catalogTriplesCounter = "catalog.triples"
	catalogBytesCounter   = "catalog.bytes"
	catalogPropCounter    = "catalog.prop."
)

// catalogMapper is the map-only scan that accumulates the catalog. One
// mapper serves every task and attempt of the job, so the exact sums
// (triples, bytes, per-property triple counts) are counted on the attempt's
// own counters (out.Inc): they commit with the attempt that wins its task,
// and a failed or speculative attempt adds nothing. Distinct counts use
// linear-counting sketches (stats.Sketch), shared across attempts: adding a
// value twice leaves a bitmap unchanged, so a retried split cannot skew
// them. The mapper collects no output records — the job exists for its
// scan.
type catalogMapper struct {
	mu       sync.Mutex
	subjects *stats.Sketch
	objects  *stats.Sketch
	perProp  map[rdf.ID]*propAcc
}

type propAcc struct {
	counter  string // catalogPropCounter + the property ID
	subjects *stats.Sketch
	objects  *stats.Sketch
}

func newCatalogMapper() *catalogMapper {
	return &catalogMapper{
		subjects: stats.NewSketch(globalSketchLogM),
		objects:  stats.NewSketch(globalSketchLogM),
		perProp:  make(map[rdf.ID]*propAcc),
	}
}

// MapRecord implements mapreduce.MapOnlyMapper.
func (m *catalogMapper) MapRecord(_ string, record []byte, out mapreduce.Collector) error {
	t, err := codec.DecodeTriple(record)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.subjects.Add(uint64(t.S))
	m.objects.Add(uint64(t.O))
	pa, ok := m.perProp[t.P]
	if !ok {
		pa = &propAcc{
			counter:  catalogPropCounter + strconv.FormatUint(uint64(t.P), 10),
			subjects: stats.NewSketch(perPropSketchLogM),
			objects:  stats.NewSketch(perPropSketchLogM),
		}
		m.perProp[t.P] = pa
	}
	pa.subjects.Add(uint64(t.S))
	pa.objects.Add(uint64(t.O))
	m.mu.Unlock()
	out.Inc(catalogTriplesCounter, 1)
	out.Inc(catalogBytesCounter, int64(len(record)))
	out.Inc(pa.counter, 1)
	return nil
}

// state converts the scan into a mergeable CatalogState: the exact sums
// from the job's committed counters, the sketches from the mapper, and
// property IDs decoded to term keys through the dictionary.
func (m *catalogMapper) state(dict *rdf.Dict, counters mapreduce.Counters) *CatalogState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &CatalogState{
		Triples:  counters[catalogTriplesCounter],
		Bytes:    counters[catalogBytesCounter],
		Subjects: m.subjects.Clone(),
		Objects:  m.objects.Clone(),
		Props:    make(map[string]*PropState, len(m.perProp)),
	}
	for pid, pa := range m.perProp {
		st.Props[dict.Decode(pid).Key()] = &PropState{
			Triples:  counters[pa.counter],
			Subjects: pa.subjects.Clone(),
			Objects:  pa.objects.Clone(),
		}
	}
	return st
}

// BuildCatalog runs a map-only MR job over the DFS-resident triple relation
// and assembles the statistics catalog from the scan. When dfsOut is
// non-empty the catalog is also persisted to that DFS file (SaveDFS), ready
// to be loaded at plan time by a later workflow. The dictionary is only
// used to translate property IDs into the catalog's term keys; the counts
// come entirely from the scanned relation.
func BuildCatalog(mr *mapreduce.Engine, input, dfsOut string, dict *rdf.Dict) (*Catalog, error) {
	st, err := BuildCatalogState(mr, input, dict)
	if err != nil {
		return nil, err
	}
	c := st.Catalog()
	if dfsOut != "" {
		if err := c.SaveDFS(mr.DFS(), dfsOut); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// BuildCatalogState is BuildCatalog's mergeable form: it returns the raw
// accumulated state (exact sums plus sketch bitmaps) instead of collapsing
// to estimates. Running it over a delta block and merging into a persisted
// state is how the catalog is maintained incrementally across ingests — no
// rescan of the base relation.
func BuildCatalogState(mr *mapreduce.Engine, input string, dict *rdf.Dict) (*CatalogState, error) {
	if dict == nil {
		return nil, fmt.Errorf("plan: BuildCatalog needs a dictionary to key properties")
	}
	m := newCatalogMapper()
	scan := input + ".catalog-scan"
	job := &mapreduce.Job{
		Name:    "catalog-build",
		Inputs:  []string{input},
		Output:  scan,
		MapOnly: m,
	}
	defer mr.DFS().DeleteIfExists(scan)
	wf, err := mr.RunWorkflowNamed("catalog-build", []mapreduce.Stage{{job}})
	if err != nil {
		return nil, err
	}
	return m.state(dict, wf.Jobs[0].Counters), nil
}
