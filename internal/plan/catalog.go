package plan

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ntga/internal/codec"
	"ntga/internal/hdfs"
	"ntga/internal/rdf"
)

// PropStats summarizes one property of the triple relation.
type PropStats struct {
	// Triples is the number of triples carrying the property.
	Triples int64 `json:"triples"`
	// Subjects is the number of distinct subjects carrying it; Triples /
	// Subjects is the property's average multiplicity (the paper reports
	// Uniprot multiplicities up to 13K — the driver of the redundancy
	// factor).
	Subjects int64 `json:"subjects"`
	// Objects is the number of distinct object values.
	Objects int64 `json:"objects"`
}

// Multiplicity is the property's average triples-per-subject (≥ 1 whenever
// the property occurs).
func (p PropStats) Multiplicity() float64 {
	if p.Subjects <= 0 {
		return 0
	}
	return float64(p.Triples) / float64(p.Subjects)
}

// Catalog is the warehouse statistics catalog the planner consumes. It is
// keyed by property term keys (rdf.Term.Key), not dictionary IDs, so a
// persisted catalog remains meaningful in a process that never loaded the
// dataset — the `ntga-run -explain -stats` path.
type Catalog struct {
	// Triples / Subjects / Objects are the relation's global counts
	// (distinct subjects and objects).
	Triples  int64 `json:"triples"`
	Subjects int64 `json:"subjects"`
	Objects  int64 `json:"objects"`
	// Bytes is the encoded size of the triple relation in the DFS.
	Bytes int64 `json:"bytes"`
	// Props maps property term keys to per-property statistics.
	Props map[string]PropStats `json:"props"`
}

// AvgTriplesPerSubject is the mean subject degree — the advisor's estimate
// of an unbound slot's candidate-set size.
func (c *Catalog) AvgTriplesPerSubject() float64 {
	if c.Subjects <= 0 {
		return 0
	}
	return float64(c.Triples) / float64(c.Subjects)
}

// AvgTripleBytes is the mean encoded triple size, used to convert record
// estimates into shuffle-byte estimates.
func (c *Catalog) AvgTripleBytes() float64 {
	if c.Triples <= 0 || c.Bytes <= 0 {
		return 6 // three small varint IDs
	}
	return float64(c.Bytes) / float64(c.Triples)
}

// Prop returns the statistics for the property with the given term key.
func (c *Catalog) Prop(key string) (PropStats, bool) {
	p, ok := c.Props[key]
	return p, ok
}

// Selectivity is the fraction of the triple relation carrying the property
// (zero for a property absent from the catalog — it matches nothing).
func (c *Catalog) Selectivity(key string) float64 {
	if c.Triples <= 0 {
		return 0
	}
	return float64(c.Props[key].Triples) / float64(c.Triples)
}

// FromGraph computes the exact catalog of an in-memory graph. The MR
// builder (BuildCatalog) produces the same catalog from the DFS-resident
// relation, with sketch-estimated distinct counts.
func FromGraph(g *rdf.Graph) *Catalog {
	c := &Catalog{Props: make(map[string]PropStats)}
	subjects := make(map[rdf.ID]struct{})
	objects := make(map[rdf.ID]struct{})
	type propSets struct {
		triples  int64
		subjects map[rdf.ID]struct{}
		objects  map[rdf.ID]struct{}
	}
	perProp := make(map[rdf.ID]*propSets)
	for _, t := range g.Triples {
		c.Triples++
		c.Bytes += int64(tripleLen(t))
		subjects[t.S] = struct{}{}
		objects[t.O] = struct{}{}
		ps, ok := perProp[t.P]
		if !ok {
			ps = &propSets{subjects: make(map[rdf.ID]struct{}), objects: make(map[rdf.ID]struct{})}
			perProp[t.P] = ps
		}
		ps.triples++
		ps.subjects[t.S] = struct{}{}
		ps.objects[t.O] = struct{}{}
	}
	c.Subjects = int64(len(subjects))
	c.Objects = int64(len(objects))
	for pid, ps := range perProp {
		c.Props[g.Dict.Decode(pid).Key()] = PropStats{
			Triples:  ps.triples,
			Subjects: int64(len(ps.subjects)),
			Objects:  int64(len(ps.objects)),
		}
	}
	return c
}

// Write serializes the catalog as JSON.
func (c *Catalog) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Read deserializes a catalog written by Write.
func Read(r io.Reader) (*Catalog, error) {
	var c Catalog
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("plan: reading catalog: %w", err)
	}
	if c.Props == nil {
		c.Props = make(map[string]PropStats)
	}
	return &c, nil
}

// WriteFile persists the catalog to an OS file (the cross-process form
// ntga-run -explain -stats loads).
func (c *Catalog) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a catalog persisted with WriteFile.
func ReadFile(path string) (*Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// SaveDFS persists the catalog as a single-record DFS file — the
// warehouse-resident form loadable at plan time.
func (c *Catalog) SaveDFS(dfs *hdfs.DFS, name string) error {
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	dfs.DeleteIfExists(name)
	return dfs.WriteFile(name, [][]byte{b})
}

// LoadDFS loads a catalog persisted with SaveDFS.
func LoadDFS(dfs *hdfs.DFS, name string) (*Catalog, error) {
	recs, err := dfs.ReadAll(name)
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("plan: catalog file %s has %d records, want 1", name, len(recs))
	}
	var c Catalog
	if err := json.Unmarshal(recs[0], &c); err != nil {
		return nil, fmt.Errorf("plan: parsing catalog %s: %w", name, err)
	}
	if c.Props == nil {
		c.Props = make(map[string]PropStats)
	}
	return &c, nil
}

// tripleLen computes the encoded length of a triple without allocating —
// the same varint framing codec.Buffer.PutTriple produces.
func tripleLen(t rdf.Triple) int {
	return codec.UvarintLen(uint64(t.S)) + codec.UvarintLen(uint64(t.P)) + codec.UvarintLen(uint64(t.O))
}
