package hdfs

import (
	"fmt"
	"io"

	"ntga/internal/chunk"
)

// Writer appends records to a file being created. It buffers records into
// blocks and places each full block on the cluster as it fills, so a write
// that exhausts cluster capacity fails while the file is being produced —
// mirroring a Hadoop job failing mid-reduce, not at commit time.
type Writer struct {
	d        *DFS
	name     string
	f        *file
	slab     []byte // the chunk Append copies records into
	pending  int64  // bytes appended since the last placed block
	wRecords int64  // records appended through this writer
	wBytes   int64  // logical bytes appended through this writer
	closed   bool
	failed   bool
}

// Create begins writing a new file. The file becomes visible immediately;
// concurrent readers of a file under construction are not supported (the MR
// engine never does this).
func (d *DFS) Create(name string) (*Writer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	f := &file{}
	d.files[name] = f
	d.metrics.FilesCreated++
	return &Writer{d: d, name: name, f: f}, nil
}

// Append adds one record. It returns ErrDiskFull (wrapped) if the cluster
// cannot hold the data; after a failure the writer is unusable and the file
// should be Abort()ed.
func (w *Writer) Append(record []byte) error {
	if w.closed {
		return fmt.Errorf("hdfs: append to closed writer for %s", w.name)
	}
	if w.failed {
		return fmt.Errorf("%w: writer for %s already failed", ErrDiskFull, w.name)
	}
	// Store our own copy, since callers reuse record buffers: appended to the
	// writer's chunk and clipped to its length, so a reader appending to one
	// record never writes into the next. A full chunk stays with the records
	// in it and the next is sized by chunk.Next; a record larger than chunk.Max
	// gets a chunk of its own size.
	if cap(w.slab)-len(w.slab) < len(record) {
		w.slab = make([]byte, 0, chunk.Next(cap(w.slab), len(record)))
	}
	start := len(w.slab)
	w.slab = append(w.slab, record...)
	cp := w.slab[start:len(w.slab):len(w.slab)]
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	w.f.records = append(w.f.records, cp)
	w.f.size += int64(len(cp))
	w.pending += int64(len(cp))
	w.wRecords++
	w.wBytes += int64(len(cp))
	w.d.metrics.BytesWritten += int64(len(cp))
	w.d.metrics.PhysicalBytesWritten += int64(len(cp)) * int64(w.d.cfg.Replication)
	w.d.metrics.RecordsWritten++
	for w.pending >= w.d.cfg.BlockSize {
		if err := w.placeLocked(w.d.cfg.BlockSize); err != nil {
			w.failed = true
			return err
		}
	}
	return nil
}

// placeLocked places a block of the given size. Caller holds d.mu.
func (w *Writer) placeLocked(size int64) error {
	nodes, err := w.d.placeBlock(size)
	if err != nil {
		return err
	}
	w.f.blocks = append(w.f.blocks, block{size: size, nodes: nodes})
	w.pending -= size
	return nil
}

// Close flushes the final partial block. The file remains if Close fails;
// callers should Abort on error.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.failed {
		return fmt.Errorf("%w: writer for %s failed before close", ErrDiskFull, w.name)
	}
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	if w.pending > 0 {
		if err := w.placeLocked(w.pending); err != nil {
			w.failed = true
			return err
		}
	}
	return nil
}

// Written reports the records and logical bytes appended through this
// writer so far. The MR engine uses it to attribute DFS-write spans to the
// task that streamed the bytes (per part file, including failed attempts'
// partial output before an Abort).
func (w *Writer) Written() (records, bytes int64) {
	return w.wRecords, w.wBytes
}

// Abort discards the partially-written file and frees its blocks.
func (w *Writer) Abort() {
	w.closed = true
	w.d.DeleteIfExists(w.name)
}

// ReadAll returns every record of a file, charging the file's logical size
// to the read counters. The returned slices alias DFS-owned storage and
// must not be mutated.
func (d *DFS) ReadAll(name string) ([][]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	d.chargeRead(f.size, int64(len(f.records)))
	return f.records, nil
}

// chargeRead adds delivered bytes and records to the read counters. They are
// atomics outside mu: a scan charges every record it streams, and a lock
// per record made them the hottest lock of a map-heavy query.
func (d *DFS) chargeRead(bytes, records int64) {
	d.bytesRead.Add(bytes)
	d.recordsRead.Add(records)
}

// FileReader streams a file's records one at a time, charging the read
// counters incrementally as records are consumed instead of all at once at
// open time. It is the streaming counterpart of ReadAll: a reader abandoned
// halfway charges only the bytes it actually delivered, and a re-executed
// task that re-opens its split re-charges the re-read — both faithful to
// how Hadoop accounts HDFS reads.
type FileReader struct {
	d    *DFS
	recs [][]byte // immutable snapshot of the file's records
	i    int
	end  int
}

// Open begins a streaming read of the whole file.
func (d *DFS) Open(name string) (*FileReader, error) {
	return d.OpenRange(name, 0, -1)
}

// OpenRange begins a streaming read of n records starting at record off
// (n < 0 means "through the end of the file"). The range is clamped to the
// file's current record count. MR map tasks use ranges so that several
// splits of one file each charge exactly the bytes they scan.
func (d *DFS) OpenRange(name string, off, n int) (*FileReader, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	off, end := clampRange(len(f.records), off, n)
	return &FileReader{d: d, recs: f.records, i: off, end: end}, nil
}

// clampRange bounds the record range [off, off+n) of an l-record file to
// [0, l]; n < 0 means "through the end". It never computes off+n, which a
// huge n from a remote caller would overflow.
func clampRange(l, off, n int) (start, end int) {
	start = min(max(off, 0), l)
	end = l
	if n >= 0 && n < l-start {
		end = start + n
	}
	return start, end
}

// Next returns the next record, or io.EOF when the range is exhausted. The
// returned slice aliases DFS-owned storage and must not be mutated.
func (r *FileReader) Next() ([]byte, error) {
	if r.i >= r.end {
		return nil, io.EOF
	}
	rec := r.recs[r.i]
	r.i++
	r.d.chargeRead(int64(len(rec)), 1)
	return rec, nil
}

// Remaining reports how many records of the range are left to read.
func (r *FileReader) Remaining() int { return r.end - r.i }

// ReadRange returns n records of a file starting at record off (n < 0 means
// "through the end"), charging exactly the delivered bytes to the read
// counters. It is the bulk remote-read surface the distributed coordinator
// serves map-task splits over: a worker's split scan becomes one call here
// instead of a streaming FileReader, with identical read accounting. The
// returned slices alias DFS-owned storage and must not be mutated.
func (d *DFS) ReadRange(name string, off, n int) ([][]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	off, end := clampRange(len(f.records), off, n)
	recs := f.records[off:end]
	var bytes int64
	for _, rec := range recs {
		bytes += int64(len(rec))
	}
	d.chargeRead(bytes, int64(len(recs)))
	return recs, nil
}

// Concat assembles dst from the given source files in order, transferring
// their records and already-placed blocks without charging any new write
// bytes — modelling HDFS concat, which splices block lists in the NameNode.
// The sources are removed. dst must not already exist. The MR engine uses
// this to commit per-reduce-task part files into the job's output file
// after every task has streamed (and paid for) its own writes.
func (d *DFS) Concat(dst string, srcs []string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[dst]; ok {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}
	parts := make([]*file, len(srcs))
	for i, s := range srcs {
		f, ok := d.files[s]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, s)
		}
		parts[i] = f
	}
	out := &file{}
	for _, f := range parts {
		out.records = append(out.records, f.records...)
		out.blocks = append(out.blocks, f.blocks...)
		out.size += f.size
	}
	for _, s := range srcs {
		delete(d.files, s)
	}
	d.files[dst] = out
	d.metrics.FilesCreated++
	d.metrics.FilesDeleted += int64(len(srcs))
	return nil
}

// WriteFile creates a file from a complete record slice, closing it on
// success and aborting on failure.
func (d *DFS) WriteFile(name string, records [][]byte) error {
	w, err := d.Create(name)
	if err != nil {
		return err
	}
	for _, rec := range records {
		if err := w.Append(rec); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Close(); err != nil {
		w.Abort()
		return err
	}
	return nil
}
