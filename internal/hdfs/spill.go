package hdfs

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Node-local spill disk. Hadoop map tasks spill sorted runs of intermediate
// output to the local disks of their worker nodes (io.sort.mb overflow), a
// storage pool entirely separate from replicated DFS blocks: spill bytes
// are written once (no replication), read back during the shuffle merge,
// and freed when the job completes. The simulation mirrors that split so
// the paper's intermediate-footprint metrics stay honest when the engine
// runs with a bounded sort buffer: DFS counters measure materialization
// between MR cycles, spill counters measure transient within-cycle disk.
//
// Unlike DFS blocks, spill files are unreplicated: when KillNode takes a
// node down, every spill on it is lost and subsequent reads or writes fail
// with ErrNodeLost — the MR engine must regenerate the data by re-running
// the map attempt that produced it, exactly as Hadoop refetches lost map
// output by re-executing the map task.

// spillState is the accounting record shared by a SpillWriter and the
// Spill it seals into, tracked in the DFS spill registry so KillNode can
// find and invalidate every live spill on a dying node. Guarded by DFS.mu,
// except lost, which readers of a sealed run poll per record without it.
type spillState struct {
	node     int
	charged  int64       // bytes currently held against the node's spill disk
	lost     atomic.Bool // node died while the spill was live
	released bool        // bytes already freed (Release, Abort, or node death)
}

// SpillWriter accumulates one spill file on a node's local disk, charging
// spill accounting incrementally as bytes are written.
type SpillWriter struct {
	d      *DFS
	st     *spillState
	data   []byte
	closed bool
}

// CreateSpill starts a new node-local spill file on the live node with the
// most free local-disk space (for callers with no node affinity).
func (d *DFS) CreateSpill() *SpillWriter {
	d.mu.Lock()
	defer d.mu.Unlock()
	node := -1
	for n := range d.spillUsed {
		if d.dead[n] {
			continue
		}
		if node < 0 || d.spillUsed[n] < d.spillUsed[node] {
			node = n
		}
	}
	if node < 0 {
		node = 0 // all nodes dead: writes will fail with ErrNodeLost
	}
	return d.createSpillLocked(node)
}

// CreateSpillOn starts a new node-local spill file pinned to the given
// node — the MR engine pins each task attempt's spills to the attempt's
// own node, so a node failure loses exactly that node's intermediate data.
// Spills created on a dead node fail their first Write with ErrNodeLost.
func (d *DFS) CreateSpillOn(node int) *SpillWriter {
	d.mu.Lock()
	defer d.mu.Unlock()
	if node < 0 || node >= len(d.spillUsed) {
		node = 0
	}
	return d.createSpillLocked(node)
}

func (d *DFS) createSpillLocked(node int) *SpillWriter {
	st := &spillState{node: node}
	st.lost.Store(d.dead[node])
	if !d.dead[node] {
		d.spillReg[st] = struct{}{}
	} else {
		st.released = true
	}
	d.metrics.SpillFilesCreated++
	return &SpillWriter{d: d, st: st}
}

// Write appends bytes to the spill file, charging the node's local disk.
// It fails with a wrapped ErrDiskFull when LocalSpillPerNode is exceeded,
// and with a wrapped ErrNodeLost if the spill's node has been killed.
func (w *SpillWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("hdfs: write to closed spill writer")
	}
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	if w.st.lost.Load() {
		return 0, fmt.Errorf("%w: spill write on dead node %d", ErrNodeLost, w.st.node)
	}
	if cap := w.d.cfg.LocalSpillPerNode; cap != 0 && w.d.spillUsed[w.st.node]+int64(len(p)) > cap {
		return 0, fmt.Errorf("%w: node %d local spill disk (%d bytes) exhausted",
			ErrDiskFull, w.st.node, cap)
	}
	w.data = append(w.data, p...)
	w.st.charged += int64(len(p))
	w.d.spillUsed[w.st.node] += int64(len(p))
	w.d.metrics.SpillBytesWritten += int64(len(p))
	var total int64
	for _, u := range w.d.spillUsed {
		total += u
	}
	if total > w.d.peakSpillUsed {
		w.d.peakSpillUsed = total
	}
	return len(p), nil
}

// Grow reserves room for n more bytes, so a writer told its size up front
// holds its file in one allocation. It charges nothing: Write does.
func (w *SpillWriter) Grow(n int) { w.data = slices.Grow(w.data, n) }

// Len reports the bytes written so far.
func (w *SpillWriter) Len() int { return len(w.data) }

// Node reports the data node holding this spill file.
func (w *SpillWriter) Node() int { return w.st.node }

// Close seals the spill file and returns the readable Spill. The charged
// bytes remain held against the node until Release (or node death).
func (w *SpillWriter) Close() *Spill {
	w.closed = true
	return &Spill{d: w.d, st: w.st, data: w.data}
}

// Abort discards the spill file, releasing its charged bytes.
func (w *SpillWriter) Abort() {
	w.closed = true
	s := &Spill{d: w.d, st: w.st, data: w.data}
	w.data = nil
	s.Release()
}

// Spill is a sealed node-local spill file.
type Spill struct {
	d    *DFS
	st   *spillState
	data []byte
}

// Size reports the spill file's length in bytes.
func (s *Spill) Size() int64 { return int64(len(s.data)) }

// Node reports the data node holding this spill file.
func (s *Spill) Node() int { return s.st.node }

// Lost reports whether the spill's node has been killed — its data is gone
// and readers must treat the run as unavailable (ErrNodeLost). It takes no
// lock, so a merge may ask before every record it decodes.
func (s *Spill) Lost() bool { return s.st.lost.Load() }

// Slice returns a view of the spill's bytes without charging any read
// accounting; pair it with ChargeRead as the view is actually consumed.
// Callers must check Lost() first — the simulation keeps the bytes in
// memory after a node death, but reading them would be cheating.
func (s *Spill) Slice(off, n int) []byte { return s.data[off : off+n] }

// ChargeRead adds consumed bytes to the spill read counters — callers
// decoding a Slice charge exactly what they decode, keeping spill read
// accounting as incremental as FileReader's. The count is an atomic that
// Metrics folds in, so charging takes no lock.
func (s *Spill) ChargeRead(n int64) { s.d.spillRead.Add(n) }

// Release frees the spill file's local-disk bytes. Releasing twice — or
// releasing a spill whose node already died (the death freed it) — is a
// no-op. Every spill a job creates must be released when the job finishes
// (or when the task that wrote it is retried), or the simulated local disk
// leaks — the engine and its fault-injection tests enforce this.
func (s *Spill) Release() {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if s.st.released {
		return
	}
	s.st.released = true
	s.d.spillUsed[s.st.node] -= s.st.charged
	s.d.metrics.SpillFilesReleased++
	delete(s.d.spillReg, s.st)
	s.data = nil
}

// SpillUsed reports total bytes currently held on node-local spill disks.
func (d *DFS) SpillUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total int64
	for _, u := range d.spillUsed {
		total += u
	}
	return total
}

// PeakSpillUsed reports the high-water mark of simultaneous node-local
// spill bytes — the transient disk footprint a bounded-memory shuffle
// trades RAM for.
func (d *DFS) PeakSpillUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peakSpillUsed
}

// SpillUsedPerNode returns a copy of the per-node local spill usage,
// sorted descending (for balance inspection in tests).
func (d *DFS) SpillUsedPerNode() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := append([]int64(nil), d.spillUsed...)
	sort.Slice(out, func(a, b int) bool { return out[a] > out[b] })
	return out
}
