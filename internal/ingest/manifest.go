// Package ingest is the warehouse's write path: it turns the read-only,
// load-once triple store into an incrementally maintained one. New data
// arrives as validated N-Triples batches and is appended as immutable
// delta blocks in the DFS under a monotonically versioned dataset manifest
// (base relation + ordered delta chain, content-hashed per block). Queries
// overlay base ∪ deltas (plan.ApplyDeltaOverlay); a compaction MR job folds
// the chain back into the base relation. The manifest mirrors the partition
// layout manifest's discipline: typed staleness errors, deleted-first /
// written-last updates, and a version string that is bit-compatible with
// rdf.Graph.Version so every existing dataset handshake keeps working. A
// process holds its dataset through one Warehouse, which owns the store, the
// catalog and the layout and publishes each state as an immutable View.
package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"ntga/internal/hdfs"
)

// ErrManifestStale reports a dataset manifest whose version does not match
// the dataset the caller holds — the ingest-path sibling of
// hdfs.ErrLayoutStale.
var ErrManifestStale = errors.New("ingest: dataset manifest stale")

// ErrNoManifest reports a dataset directory with no (or an unreadable)
// manifest: the dataset predates the write path or the manifest write was
// interrupted.
var ErrNoManifest = errors.New("ingest: no dataset manifest")

// ErrBadBatch reports an N-Triples batch that failed validation; nothing
// was written. The wrapped error carries the line-level parse failure.
var ErrBadBatch = errors.New("ingest: invalid N-Triples batch")

// ManifestSuffix is appended to the dataset's logical input name to form
// the manifest's DFS file name.
const ManifestSuffix = ".manifest"

// ManifestName returns the manifest file for a logical dataset name.
func ManifestName(input string) string { return input + ManifestSuffix }

// DeltaName returns the immutable delta-block file for sequence number seq.
// The name is a pure function of (input, seq) so every process that follows
// the same manifest agrees on the chain's file names without coordination.
func DeltaName(input string, seq int) string {
	return fmt.Sprintf("%s.delta-%05d", input, seq)
}

// BaseName returns the base-relation file for compaction generation gen.
// Generation 0 is the logical input name itself (the file the loader wrote);
// each compaction writes a fresh generation so readers pinned to the old
// base keep a consistent view while the manifest moves on.
func BaseName(input string, gen int) string {
	if gen == 0 {
		return input
	}
	return fmt.Sprintf("%s.base-%05d", input, gen)
}

// DeltaBlock describes one immutable delta in the chain.
type DeltaBlock struct {
	// File is the block's DFS file (binary triple records, same codec as
	// the base relation).
	File string `json:"file"`
	// Hash content-hashes the block's triples alone ("%016x" fnv64a over
	// the same per-triple stream rdf.Graph.Version hashes).
	Hash string `json:"hash"`
	// Triples and Bytes describe the block's payload.
	Triples int   `json:"triples"`
	Bytes   int64 `json:"bytes"`
}

// Manifest is the versioned dataset descriptor: the current base relation
// plus the ordered delta chain, with a monotonic sequence number and the
// running dataset version. It is persisted as a single JSON record,
// deleted-first and written-last like the layout manifest, so a crashed
// update surfaces as ErrNoManifest rather than a stale-but-valid manifest.
type Manifest struct {
	// Input is the logical dataset name every plan refers to ("data/triples").
	Input string `json:"input"`
	// Base is the current base-relation file (BaseName(Input, Gen)).
	Base string `json:"base"`
	// Gen counts compactions (base-relation generations).
	Gen int `json:"gen"`
	// Seq increases by one on every manifest update (ingest or compaction);
	// delta blocks are named after the Seq that created them.
	Seq int `json:"seq"`
	// Version is the dataset content-hash version: the running fnv64a over
	// every triple of base plus deltas in load order, rendered "%016x" —
	// numerically equal to rdf.Graph.Version() of the same triples.
	// Compaction does not change it (the content is unchanged).
	Version string `json:"version"`
	// BaseVersion is Version as of the current base relation alone (the
	// version the partition layout was stamped with, when one was built
	// before any uncompacted delta).
	BaseVersion string `json:"base_version"`
	// Deltas is the ordered, uncompacted delta chain.
	Deltas []DeltaBlock `json:"deltas"`
}

// Validate checks the manifest against the dataset version the caller
// holds, returning ErrManifestStale on mismatch.
func (m Manifest) Validate(datasetVersion string) error {
	if m.Version != datasetVersion {
		return fmt.Errorf("%w: manifest at version %s, caller at %s",
			ErrManifestStale, m.Version, datasetVersion)
	}
	return nil
}

// DeltaFiles returns the chain's file names in order.
func (m Manifest) DeltaFiles() []string {
	out := make([]string, len(m.Deltas))
	for i, d := range m.Deltas {
		out[i] = d.File
	}
	return out
}

// runningHash parses the Version back into the resumable fnv64a state.
func (m Manifest) runningHash() (uint64, error) {
	v, err := strconv.ParseUint(m.Version, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("ingest: bad manifest version %q: %w", m.Version, err)
	}
	return v, nil
}

// WriteManifest persists the manifest: delete-first, single-record-last, so
// a crash mid-update yields a missing manifest, never a stale one that
// validates.
func WriteManifest(dfs *hdfs.DFS, m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	name := ManifestName(m.Input)
	dfs.DeleteIfExists(name)
	return dfs.WriteFile(name, [][]byte{data})
}

// ReadManifest loads the manifest for a logical dataset name. A missing or
// corrupt manifest surfaces as ErrNoManifest.
func ReadManifest(dfs *hdfs.DFS, input string) (Manifest, error) {
	name := ManifestName(input)
	if !dfs.Exists(name) {
		return Manifest{}, fmt.Errorf("%w: %s", ErrNoManifest, name)
	}
	recs, err := dfs.ReadAll(name)
	if err != nil {
		return Manifest{}, fmt.Errorf("%w: %s: %v", ErrNoManifest, name, err)
	}
	if len(recs) != 1 {
		return Manifest{}, fmt.Errorf("%w: %s has %d records, want 1", ErrNoManifest, name, len(recs))
	}
	var m Manifest
	if err := json.Unmarshal(recs[0], &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: %s: %v", ErrNoManifest, name, err)
	}
	return m, nil
}
