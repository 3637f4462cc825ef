package server

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"ntga/internal/ingest"
	"ntga/internal/mapreduce"
)

// IngestResult is the POST /ingest reply body: what the batch did to the
// dataset, the versions the caller should expect subsequent queries to be
// keyed under, and the result-cache maintenance split.
type IngestResult struct {
	// Triples accepted from the batch (0 for a comment-only batch, which is
	// a no-op success).
	Triples int `json:"triples"`
	// Seq is the manifest sequence after the ingest; Block the appended
	// delta block's DFS name (empty for a no-op batch).
	Seq   int    `json:"seq"`
	Block string `json:"block,omitempty"`
	// DatasetVersion / CatalogVersion after the ingest.
	DatasetVersion string `json:"dataset_version"`
	CatalogVersion string `json:"catalog_version"`
	// DeltaBlocks is the uncompacted chain length after the ingest (and
	// after any auto-compaction).
	DeltaBlocks int `json:"delta_blocks"`
	// CacheRetained / CacheEvicted is this batch's result-cache maintenance
	// split: retained entries were re-keyed to the new versions and keep
	// serving with zero MR cycles.
	CacheRetained int `json:"cache_retained"`
	CacheEvicted  int `json:"cache_evicted"`
	// Compacted reports that Config.CompactAfter triggered a delta-merge
	// compaction at the end of this ingest; BucketsRewritten counts
	// partition-layout buckets it rebuilt.
	Compacted        bool `json:"compacted,omitempty"`
	BucketsRewritten int  `json:"buckets_rewritten,omitempty"`
}

// Ingest accepts one N-Triples batch: validates it (all-or-nothing),
// appends it as an immutable delta block under the versioned manifest,
// folds the batch into the mergeable catalog state (no rescan), moves the
// dataset view queries snapshot, and maintains the result cache — evicting
// only entries whose query could match a batch triple and re-keying the
// rest to the new versions. In distributed mode the raw batch is forwarded
// to the master first and applied locally in lockstep; deterministic
// first-occurrence interning makes both sides mint identical IDs and
// versions, which Ingest asserts.
func (s *Server) Ingest(ctx context.Context, r io.Reader) (*IngestResult, error) {
	batch, err := io.ReadAll(r)
	if err != nil {
		if err := tooLarge(err); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: reading batch: %v", ingest.ErrBadBatch, err)
	}
	if _, err := ingest.ValidateBatch(bytes.NewReader(batch)); err != nil {
		return nil, err
	}

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()

	// Master first: if the fleet refuses the batch, the local store never
	// moves and the two stay in lockstep.
	var masterVer string
	if s.cfg.Cluster != nil {
		reply, err := s.cfg.Cluster.Ingest(ctx, batch)
		if err != nil {
			return nil, err
		}
		masterVer = reply.DatasetVersion
	}

	res, err := s.wh.Ingest(bytes.NewReader(batch))
	if err != nil {
		return nil, err
	}
	ds := s.wh.View()
	out := &IngestResult{
		Triples:        len(res.Triples),
		Seq:            res.Seq,
		Block:          res.Block.File,
		DatasetVersion: ds.Version,
		CatalogVersion: ds.CatalogVersion,
		DeltaBlocks:    len(ds.Source.Deltas),
	}
	if len(res.Triples) == 0 {
		return out, nil
	}
	if masterVer != "" && masterVer != res.Version {
		return nil, fmt.Errorf("server: ingest split brain: master moved to dataset %s but local store to %s", masterVer, res.Version)
	}

	retained, evicted := s.results.maintain(res.Triples, ds.CatalogVersion, ds.Version)
	s.mIngests.Add(1)
	s.mIngestTriples.Add(int64(len(res.Triples)))
	s.mCacheRetained.Add(int64(retained))
	s.mCacheEvicted.Add(int64(evicted))
	out.CacheRetained = retained
	out.CacheEvicted = evicted

	if s.cfg.CompactAfter > 0 && out.DeltaBlocks >= s.cfg.CompactAfter {
		cres, err := s.compactLocked(ctx)
		if err != nil {
			return nil, fmt.Errorf("server: auto-compaction after ingest: %w", err)
		}
		out.Compacted = true
		out.BucketsRewritten = cres.BucketsRewritten
		out.DeltaBlocks = 0
	}
	return out, nil
}

// Compact folds the whole delta chain into a fresh base-relation generation
// (the delta-merge MR job) and points the served dataset view at it. The
// content — and therefore the dataset version and every cache key — is
// unchanged; old-generation files are retained so queries pinned to the
// pre-compaction snapshot finish unharmed. An empty chain is a no-op.
func (s *Server) Compact(ctx context.Context) (*ingest.CompactResult, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.compactLocked(ctx)
}

func (s *Server) compactLocked(ctx context.Context) (*ingest.CompactResult, error) {
	if s.cfg.Cluster != nil {
		if _, err := s.cfg.Cluster.Compact(ctx); err != nil {
			return nil, err
		}
	}
	mr := mapreduce.NewEngine(s.dfs, mapreduce.EngineConfig{
		DefaultReducers: s.cfg.Reducers,
		SplitRecords:    s.cfg.SplitRecords,
		SortBufferBytes: s.cfg.SortBufferBytes,
		Slots:           s.pool.Lease("ingest", 1),
		Tracer:          s.cfg.Tracer,
	}).WithContext(ctx)
	res, err := s.wh.Compact(mr)
	if err != nil {
		return nil, err
	}
	s.mCompactions.Add(1)
	return res, nil
}
