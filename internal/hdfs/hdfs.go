// Package hdfs simulates the distributed file system underneath the
// MapReduce engine: record-oriented files split into blocks, block
// replication across data nodes with bounded per-node capacity, and byte
// accounting for every read and write.
//
// The simulation is faithful to the aspects of HDFS that the paper's
// evaluation depends on:
//
//   - every write costs replication × logical bytes of cluster disk
//     (the paper contrasts dfs.replication = 1 vs 2);
//   - nodes have finite capacity, and a workflow whose intermediate results
//     exceed it fails mid-job (the "X" bars in Figures 9, 12, 13);
//   - total HDFS reads/writes are first-class metrics (Figures 10, 12, 14).
package hdfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrDiskFull is returned (wrapped) when a write cannot place a block
// because too few data nodes have free capacity.
var ErrDiskFull = errors.New("hdfs: cluster out of disk space")

// ErrNotFound is returned when opening or deleting a file that does not exist.
var ErrNotFound = errors.New("hdfs: file not found")

// ErrNotExist is the canonical sentinel for "the file is already gone".
// It shares identity with ErrNotFound so every existing errors.Is check
// keeps working; cleanup paths that race over the same temporaries (task
// retries, speculative-attempt abort, job-failure sweeps) should test
// errors.Is(err, ErrNotExist) and treat it as benign, while any other
// Delete error stays fatal.
var ErrNotExist = ErrNotFound

// ErrExists is returned when creating a file that already exists.
var ErrExists = errors.New("hdfs: file already exists")

// ErrNodeLost is returned (wrapped) when an operation depends on a data
// node that has been killed: writing or reading a node-local spill file
// that died with its node, or a task attempt pinned to the dead node.
var ErrNodeLost = errors.New("hdfs: data node lost")

// Config describes a simulated cluster.
type Config struct {
	// Nodes is the number of data nodes. Must be >= 1.
	Nodes int
	// CapacityPerNode bounds the bytes stored per node. Zero means unbounded.
	CapacityPerNode int64
	// BlockSize is the DFS block size in bytes (paper setup: 256MB; scaled
	// down here). Zero defaults to 4 MiB.
	BlockSize int64
	// Replication is the block replication factor (dfs.replication).
	// Zero defaults to 1. Must be <= Nodes.
	Replication int
	// LocalSpillPerNode bounds the node-local spill disk used by the MR
	// engine's sort/spill phase (separate from the replicated DFS store).
	// Zero means unbounded.
	LocalSpillPerNode int64
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.BlockSize == 0 {
		c.BlockSize = 4 << 20
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	return c
}

// Metrics holds cumulative byte counters for a DFS instance. All fields are
// logical (pre-replication) except PhysicalBytesWritten.
type Metrics struct {
	BytesRead            int64 // cumulative logical bytes read
	BytesWritten         int64 // cumulative logical bytes written
	PhysicalBytesWritten int64 // cumulative bytes written × replication
	RecordsRead          int64
	RecordsWritten       int64
	FilesCreated         int64
	FilesDeleted         int64

	// Node-local spill disk counters (MR sort/spill phase). Spill bytes are
	// unreplicated and transient — charged by SpillWriter, freed by
	// Spill.Release — and deliberately kept out of the DFS byte counters so
	// the paper's HDFS read/write figures are unaffected by the engine's
	// memory budget.
	SpillBytesWritten  int64
	SpillBytesRead     int64
	SpillFilesCreated  int64
	SpillFilesReleased int64
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.BytesRead += other.BytesRead
	m.BytesWritten += other.BytesWritten
	m.PhysicalBytesWritten += other.PhysicalBytesWritten
	m.RecordsRead += other.RecordsRead
	m.RecordsWritten += other.RecordsWritten
	m.FilesCreated += other.FilesCreated
	m.FilesDeleted += other.FilesDeleted
	m.SpillBytesWritten += other.SpillBytesWritten
	m.SpillBytesRead += other.SpillBytesRead
	m.SpillFilesCreated += other.SpillFilesCreated
	m.SpillFilesReleased += other.SpillFilesReleased
}

type block struct {
	size  int64
	nodes []int // indices of data nodes holding a replica
}

type file struct {
	chunks []fileChunk // the records, framed (io.go)
	n      int         // records
	size   int64       // sum of record lengths
	blocks []block
}

// writtenFile is a file and the room its Writer starts it in: a file that
// stays small — most part files — keeps its chunk list, its block list and
// its block's replica list here, and costs no allocation for them.
type writtenFile struct {
	file
	chunk1 [1]fileChunk
	block1 [1]block
	nodes1 [4]int
}

// DFS is a simulated distributed file system. All methods are safe for
// concurrent use.
type DFS struct {
	mu            sync.Mutex
	cfg           Config
	files         map[string]*file
	used          []int64 // per-node bytes stored
	peakUsed      int64   // high-water mark of total bytes stored
	spillUsed     []int64 // per-node local spill bytes held (see spill.go)
	peakSpillUsed int64   // high-water mark of total spill bytes held
	spillReg      map[*spillState]struct{}
	dead          []bool // per-node liveness (KillNode)
	nodesKilled   int
	metrics       Metrics
	order         nodeOrder // placeBlock's live nodes, reused from block to block

	// Read counters charged without mu, per record on the scan path.
	bytesRead, recordsRead atomic.Int64 // Metrics.BytesRead, RecordsRead
	spillRead              atomic.Int64 // Metrics.SpillBytesRead
}

// New creates a cluster per cfg.
func New(cfg Config) *DFS {
	cfg = cfg.withDefaults()
	if cfg.Replication > cfg.Nodes {
		panic(fmt.Sprintf("hdfs: replication %d exceeds node count %d", cfg.Replication, cfg.Nodes))
	}
	d := &DFS{
		cfg:       cfg,
		files:     make(map[string]*file),
		used:      make([]int64, cfg.Nodes),
		spillUsed: make([]int64, cfg.Nodes),
		spillReg:  make(map[*spillState]struct{}),
		dead:      make([]bool, cfg.Nodes),
	}
	d.order = nodeOrder{ids: make([]int, 0, cfg.Nodes), used: d.used}
	return d
}

// Config returns the cluster configuration.
func (d *DFS) Config() Config { return d.cfg }

// Metrics returns a snapshot of the cumulative counters.
func (d *DFS) Metrics() Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.metrics
	m.BytesRead, m.RecordsRead = d.bytesRead.Load(), d.recordsRead.Load()
	m.SpillBytesRead = d.spillRead.Load()
	return m
}

// ResetMetrics zeroes the cumulative counters (stored data is unaffected).
func (d *DFS) ResetMetrics() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.metrics = Metrics{}
	d.bytesRead.Store(0)
	d.recordsRead.Store(0)
	d.spillRead.Store(0)
}

// Used reports total bytes currently stored across all nodes (physical,
// i.e. including replication).
func (d *DFS) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total int64
	for _, u := range d.used {
		total += u
	}
	return total
}

// Capacity reports total cluster capacity; zero means unbounded.
func (d *DFS) Capacity() int64 {
	if d.cfg.CapacityPerNode == 0 {
		return 0
	}
	return d.cfg.CapacityPerNode * int64(d.cfg.Nodes)
}

// Exists reports whether a file exists.
func (d *DFS) Exists(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[name]
	return ok
}

// FileSize returns the logical size of a file in bytes.
func (d *DFS) FileSize(name string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f.size, nil
}

// RecordCount returns the number of records in a file.
func (d *DFS) RecordCount(name string) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f.n, nil
}

// List returns the names of all files, sorted.
func (d *DFS) List() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ListPrefix returns the names of all files whose name starts with prefix,
// sorted. The MR engine uses it to sweep a failed job's attempt-scoped
// temporaries ("_tmp/<job>/...") without tracking each one individually.
func (d *DFS) ListPrefix(prefix string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var names []string
	for n := range d.files {
		if len(n) >= len(prefix) && n[:len(prefix)] == prefix {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Rename atomically moves a file to a new name without touching its records
// or blocks (a pure NameNode metadata operation, like HDFS rename). It is
// the commit primitive of the MR engine's attempt-scoped output protocol:
// the winning attempt promotes its "_tmp/..." part files to their final
// names in one step. Returns ErrNotExist if oldName is missing and
// ErrExists if newName is already taken.
func (d *DFS) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldName)
	}
	if _, ok := d.files[newName]; ok {
		return fmt.Errorf("%w: %s", ErrExists, newName)
	}
	delete(d.files, oldName)
	d.files[newName] = f
	return nil
}

// Delete removes a file, freeing its blocks.
func (d *DFS) Delete(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	for _, b := range f.blocks {
		for _, n := range b.nodes {
			d.used[n] -= b.size
		}
	}
	delete(d.files, name)
	d.metrics.FilesDeleted++
	return nil
}

// DeleteIfExists removes a file if present; absent files are not an error.
func (d *DFS) DeleteIfExists(name string) {
	if err := d.Delete(name); err != nil && !errors.Is(err, ErrNotExist) {
		panic(err) // Delete only errors with ErrNotExist
	}
}

// DeletePrefix removes every file whose name starts with prefix in one
// NameNode operation, returning how many files and logical bytes were
// reclaimed. The MR engine uses it to retire a whole workflow's temp
// namespace ("_tmp/<workflow-id>/") after a failure or cancellation.
func (d *DFS) DeletePrefix(prefix string) (files int, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, f := range d.files {
		if len(name) < len(prefix) || name[:len(prefix)] != prefix {
			continue
		}
		for _, b := range f.blocks {
			for _, n := range b.nodes {
				d.used[n] -= b.size
			}
		}
		delete(d.files, name)
		d.metrics.FilesDeleted++
		files++
		bytes += f.size
	}
	return files, bytes
}

// NodeAlive reports whether data node n is still up.
func (d *DFS) NodeAlive(n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return n >= 0 && n < len(d.dead) && !d.dead[n]
}

// AliveNodes reports how many data nodes are still up.
func (d *DFS) AliveNodes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.aliveLocked()
}

func (d *DFS) aliveLocked() int {
	alive := 0
	for _, dd := range d.dead {
		if !dd {
			alive++
		}
	}
	return alive
}

// NodesKilled reports how many nodes have been killed since creation.
func (d *DFS) NodesKilled() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nodesKilled
}

// KillNode simulates the permanent loss of data node n and returns the
// node-local spill bytes that died with it. Replicated DFS blocks survive:
// block accounting held by n is re-replicated onto the least-loaded live
// nodes (the record data itself is stored centrally in the simulation, so
// only placement moves — mirroring the NameNode re-replicating from the
// surviving replicas). Node-local spill files on n are lost for good:
// their bytes are freed and every Spill/SpillWriter on the node starts
// failing with ErrNodeLost, which is what forces the MR engine to re-run
// the map attempts whose output lived there. Killing an already-dead node
// or the last live node is refused (ok=false).
func (d *DFS) KillNode(n int) (lostSpillBytes int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n >= len(d.dead) || d.dead[n] || d.aliveLocked() <= 1 {
		return 0, false
	}
	d.dead[n] = true
	d.nodesKilled++
	// Re-replicate block accounting from the dead node to live nodes that
	// do not already hold the block (best effort: with no eligible target
	// the block simply stays under-replicated).
	for _, f := range d.files {
		for bi := range f.blocks {
			b := &f.blocks[bi]
			for idx, bn := range b.nodes {
				if bn != n {
					continue
				}
				d.used[n] -= b.size
				target := -1
				for cand := range d.dead {
					if d.dead[cand] {
						continue
					}
					dup := false
					for _, other := range b.nodes {
						if other == cand {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					if target < 0 || d.used[cand] < d.used[target] {
						target = cand
					}
				}
				if target >= 0 {
					b.nodes[idx] = target
					d.used[target] += b.size
				} else {
					b.nodes = append(b.nodes[:idx], b.nodes[idx+1:]...)
				}
				break // at most one replica of a block per node
			}
		}
	}
	// Node-local spill files die with the node.
	for st := range d.spillReg {
		if st.node != n || st.released {
			continue
		}
		st.lost.Store(true)
		st.released = true
		d.spillUsed[n] -= st.charged
		d.metrics.SpillFilesReleased++
		lostSpillBytes += st.charged
		delete(d.spillReg, st)
	}
	return lostSpillBytes, true
}

// placeBlock charges one block of the given size to rep distinct live
// nodes, choosing the nodes with most free space, and appends them to dst.
// Caller holds d.mu. When fewer live nodes than the replication factor
// remain, the block is placed under-replicated rather than failing the
// write.
func (d *DFS) placeBlock(dst []int, size int64) ([]int, error) {
	rep := d.cfg.Replication
	if alive := d.aliveLocked(); rep > alive {
		rep = alive
	}
	o := &d.order
	o.ids = o.ids[:0]
	for i := range d.used {
		if !d.dead[i] {
			o.ids = append(o.ids, i)
		}
	}
	// sort.Sort runs the algorithm sort.Slice runs, so nodes of equal usage
	// come out in the same order, and placement with them.
	sort.Sort(o)
	placed := 0
	for _, n := range o.ids {
		if d.cfg.CapacityPerNode != 0 && d.used[n]+size > d.cfg.CapacityPerNode {
			continue
		}
		dst = append(dst, n)
		if placed++; placed == rep {
			break
		}
	}
	if placed < rep {
		return dst[:len(dst)-placed], fmt.Errorf("%w: need %d replicas of %d bytes, placed %d",
			ErrDiskFull, rep, size, placed)
	}
	for _, n := range dst[len(dst)-rep:] {
		d.used[n] += size
	}
	var total int64
	for _, u := range d.used {
		total += u
	}
	if total > d.peakUsed {
		d.peakUsed = total
	}
	return dst, nil
}

// nodeOrder sorts node indices by the bytes each stores (sort.Interface).
type nodeOrder struct {
	ids  []int
	used []int64
}

func (o *nodeOrder) Len() int           { return len(o.ids) }
func (o *nodeOrder) Less(a, b int) bool { return o.used[o.ids[a]] < o.used[o.ids[b]] }
func (o *nodeOrder) Swap(a, b int)      { o.ids[a], o.ids[b] = o.ids[b], o.ids[a] }

// PeakUsed reports the high-water mark of physical bytes stored — the
// maximum simultaneous disk footprint seen since creation (or the last
// ResetPeak). This is the quantity that determines whether a workflow
// would fit on the paper's capacity-limited clusters.
func (d *DFS) PeakUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peakUsed
}

// ResetPeak sets the high-water mark to the current usage.
func (d *DFS) ResetPeak() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.peakUsed = 0
	for _, u := range d.used {
		d.peakUsed += u
	}
}
