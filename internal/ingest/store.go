package ingest

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"

	"ntga/internal/codec"
	"ntga/internal/core/hash64"
	"ntga/internal/hdfs"
	"ntga/internal/rdf"
)

// Store manages one versioned dataset: the in-memory graph (dictionary +
// triples, shared with the process's query path), the DFS-resident base
// relation and delta chain, and the persisted manifest. All mutation goes
// through the store, serialized by its lock; readers take cheap snapshot
// copies (Manifest, Version, DeltaFiles).
type Store struct {
	mu  sync.Mutex
	dfs *hdfs.DFS
	g   *rdf.Graph
	man Manifest
}

// Init creates a fresh manifest over an already-loaded dataset: g is the
// in-memory graph and input the DFS file the loader wrote it to (the base
// relation, generation 0). The manifest's version starts at g.Version().
func Init(dfs *hdfs.DFS, input string, g *rdf.Graph) (*Store, error) {
	v := g.Version()
	man := Manifest{
		Input:       input,
		Base:        input,
		Version:     v,
		BaseVersion: v,
	}
	if err := WriteManifest(dfs, man); err != nil {
		return nil, err
	}
	return &Store{dfs: dfs, g: g, man: man}, nil
}

// Graph returns the store's in-memory graph (shared, not a copy).
func (s *Store) Graph() *rdf.Graph { return s.g }

// Manifest returns a snapshot of the current manifest.
func (s *Store) Manifest() Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() Manifest {
	m := s.man
	m.Deltas = append([]DeltaBlock(nil), s.man.Deltas...)
	return m
}

// Version returns the current dataset version.
func (s *Store) Version() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Version
}

// Base returns the current base-relation file name.
func (s *Store) Base() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Base
}

// DeltaFiles returns the uncompacted delta chain's file names in order.
func (s *Store) DeltaFiles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.DeltaFiles()
}

// Result describes one accepted ingest batch.
type Result struct {
	// Block is the appended delta block ({} when the batch was empty and
	// nothing was written).
	Block DeltaBlock
	// Seq is the manifest sequence after the ingest.
	Seq int
	// Version is the dataset version after the ingest.
	Version string
	// Triples are the batch's triples encoded against the store's
	// dictionary, in batch order — the cache-maintenance predicate and the
	// incremental catalog fold consume these without re-reading the block.
	Triples []rdf.Triple
}

// Ingest validates an N-Triples batch and appends it as one immutable
// delta block. Validation is all-or-nothing and happens before any state
// changes: a batch with a syntax error returns ErrBadBatch (wrapping the
// line-level failure) without touching the dictionary, the graph, or the
// DFS — so a failed batch can never shift the IDs later batches intern,
// and the incremental version stays equal to a from-scratch reload's.
// An empty batch (only comments/blank lines) is a no-op success.
func (s *Store) Ingest(r io.Reader) (*Result, error) {
	terms, err := parseBatch(r)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(terms) == 0 {
		return &Result{Seq: s.man.Seq, Version: s.man.Version}, nil
	}

	// Intern and append exactly as a continued ReadNTriplesInto would.
	triples := make([]rdf.Triple, len(terms))
	for i, tt := range terms {
		triples[i] = rdf.Triple{
			S: s.g.Dict.Encode(tt[0]),
			P: s.g.Dict.Encode(tt[1]),
			O: s.g.Dict.Encode(tt[2]),
		}
	}

	seq := s.man.Seq + 1
	file := DeltaName(s.man.Input, seq)
	blockHash := hash64.New()
	prev, err := s.man.runningHash()
	if err != nil {
		return nil, err
	}
	running := hash64.Resume(prev)

	w, err := s.dfs.Create(file)
	if err != nil {
		return nil, err
	}
	var buf codec.Buffer
	for _, t := range triples {
		buf.Reset()
		buf.PutTriple(t)
		if err := w.Append(buf.Bytes()); err != nil {
			w.Abort()
			return nil, err
		}
		blockHash.Addf("%d,%d,%d;", t.S, t.P, t.O)
		running.Addf("%d,%d,%d;", t.S, t.P, t.O)
	}
	if err := w.Close(); err != nil {
		w.Abort()
		return nil, err
	}
	recs, bytes := w.Written()
	_ = recs

	block := DeltaBlock{File: file, Hash: blockHash.Hex(), Triples: len(triples), Bytes: bytes}
	man := s.snapshotLocked()
	man.Seq = seq
	man.Version = running.Hex()
	man.Deltas = append(man.Deltas, block)
	// Block first, manifest last: a crash in between leaves an orphan block
	// the manifest never references.
	if err := WriteManifest(s.dfs, man); err != nil {
		s.dfs.DeleteIfExists(file)
		return nil, err
	}
	s.man = man

	// The in-memory graph mirrors the DFS chain (the dictionary was already
	// extended by the Encodes above).
	for _, t := range triples {
		s.g.AddID(t)
	}
	return &Result{Block: block, Seq: seq, Version: man.Version, Triples: triples}, nil
}

// ValidateBatch checks an N-Triples batch without applying anything,
// returning the number of triples it would ingest: the validation step of
// Ingest on its own (the benchmark harness times it as
// ingest.validate_mb_per_s).
func ValidateBatch(r io.Reader) (int, error) {
	terms, err := parseBatch(r)
	return len(terms), err
}

// parseBatch validates a whole N-Triples batch without touching any
// dictionary: it mirrors rdf.ReadNTriplesInto's line handling (trim, skip
// blank and '#' lines, 4MB max line) but stops at the term level.
func parseBatch(r io.Reader) ([][3]rdf.Term, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out [][3]rdf.Term
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		st, pt, ot, err := rdf.ParseTriple(line)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadBatch,
				&rdf.ParseError{Line: lineNo, Msg: err.Error()})
		}
		out = append(out, [3]rdf.Term{st, pt, ot})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBatch, err)
	}
	return out, nil
}
