package hdfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"ntga/internal/chunk"
	"ntga/internal/codec"
)

// A file's records are stored in chunks, each record framed as a uvarint
// length and then its bytes — the frame a Records puts on the wire — so a
// file holds no slice per record: a chunk is one allocation however many
// records it frames. Every counter (a file's size, the read and write
// counters, block placement and the disk-full point) counts record bytes,
// never frame bytes.
type fileChunk struct {
	data  []byte // the frames
	first int    // the file index of the chunk's first record
}

// Writer appends records to a file being created. It frames records into
// chunks and places each full block on the cluster as it fills, so a write
// that exhausts cluster capacity fails while the file is being produced —
// mirroring a Hadoop job failing mid-reduce, not at commit time.
type Writer struct {
	d        *DFS
	name     string
	f        *file
	room     writtenFile // f, and the room it starts in
	slab     []byte      // the chunk Append frames records into: the file's last
	nodes    []int       // the slab the file's blocks take their replica lists from
	pending  int64       // bytes appended since the last placed block
	wRecords int64       // records appended through this writer
	wBytes   int64       // logical bytes appended through this writer
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
	w := &Writer{d: d, name: name}
	w.f = &w.room.file
	w.f.chunks, w.f.blocks, w.nodes = w.room.chunk1[:0], w.room.block1[:0], w.room.nodes1[:0]
	d.files[name] = w.f
	d.metrics.FilesCreated++
	return w, nil
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
	// Frame our own copy into the writer's chunk, since callers reuse record
	// buffers. A full chunk stays with the file and the next is sized by
	// chunk.Next; a record larger than chunk.Max gets a chunk of its own size.
	need := codec.UvarintLen(uint64(len(record))) + len(record)
	fresh := cap(w.slab)-len(w.slab) < need
	if fresh {
		w.slab = make([]byte, 0, chunk.Next(cap(w.slab), need))
	}
	w.slab = append(binary.AppendUvarint(w.slab, uint64(len(record))), record...)
	size := int64(len(record))
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	f := w.f
	if fresh {
		f.chunks = append(f.chunks, fileChunk{first: f.n})
	}
	f.chunks[len(f.chunks)-1].data = w.slab
	f.n++
	f.size += size
	w.pending += size
	w.wRecords++
	w.wBytes += size
	w.d.metrics.BytesWritten += size
	w.d.metrics.PhysicalBytesWritten += size * int64(w.d.cfg.Replication)
	w.d.metrics.RecordsWritten++
	for w.pending >= w.d.cfg.BlockSize {
		if err := w.placeLocked(w.d.cfg.BlockSize); err != nil {
			w.failed = true
			return err
		}
	}
	return nil
}

// placeLocked places a block of the given size, its replica list taken from
// the writer's node slab. Caller holds d.mu.
func (w *Writer) placeLocked(size int64) error {
	if rep := w.d.cfg.Replication; cap(w.nodes)-len(w.nodes) < rep {
		w.nodes = make([]int, 0, max(2*cap(w.nodes), 4*rep))
	}
	start := len(w.nodes)
	nodes, err := w.d.placeBlock(w.nodes, size)
	if err != nil {
		return err
	}
	w.nodes = nodes
	w.f.blocks = append(w.f.blocks, block{size: size, nodes: nodes[start:len(nodes):len(nodes)]})
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

// Name returns the name of the file being written.
func (w *Writer) Name() string { return w.name }

// Abort discards the partially-written file and frees its blocks.
func (w *Writer) Abort() {
	w.closed = true
	w.d.DeleteIfExists(w.name)
}

// Records is a run of consecutive records of one file, held as the file
// holds them: frames in one or more chunks, which it shares with the file
// rather than copying. It is also the wire form of a map split a master
// ships (Master.ReadRange): GobEncode writes the record count and then the
// frames, with one copy — the frame cluster.Records gives the same records
// — and GobDecode checks a frame and keeps one copy of it. A Records is read
// once, through Next, which advances it; a copy reads independently.
type Records struct {
	n    int         // records not yet read
	head []byte      // the frames not yet read of the current chunk
	rest []fileChunk // the chunks after head's; the last ends at tail
	tail int         // the frame bytes of the range in rest's last chunk
}

// Len reports how many records are left to read.
func (rs Records) Len() int { return rs.n }

// Next returns the next record, or io.EOF once every record has been read.
// The returned slice aliases the file's storage, capped at its own length,
// and must not be mutated.
func (rs *Records) Next() ([]byte, error) {
	if rs.n == 0 {
		return nil, io.EOF
	}
	for len(rs.head) == 0 {
		rs.head = rs.rest[0].data
		if len(rs.rest) == 1 {
			rs.head = rs.head[:rs.tail]
		}
		rs.rest = rs.rest[1:]
	}
	rs.n--
	var rec []byte
	rec, rs.head = nextFrame(rs.head)
	return rec, nil
}

// Slices returns every record left, as views like Next's (nil when none is
// left), without advancing rs.
func (rs Records) Slices() [][]byte {
	if rs.n == 0 {
		return nil
	}
	out := make([][]byte, rs.n)
	for i := range out {
		out[i], _ = rs.Next()
	}
	return out
}

// nextFrame splits the first frame off b, which the DFS framed itself.
func nextFrame(b []byte) (rec, rest []byte) {
	l, k := binary.Uvarint(b)
	end := k + int(l)
	return b[k:end:end], b[end:]
}

// skipFrames returns b after its first n frames.
func skipFrames(b []byte, n int) []byte {
	for ; n > 0; n-- {
		_, b = nextFrame(b)
	}
	return b
}

// GobEncode frames the records as cluster.Records does: the record count,
// then each record behind its uvarint length — which is how they are held,
// so the frames are copied whole.
func (rs Records) GobEncode() ([]byte, error) {
	size, parts := len(rs.head), rs.rest
	for i := range parts {
		size += rs.chunkLen(i)
	}
	b := make([]byte, 0, codec.UvarintLen(uint64(rs.n))+size)
	b = append(binary.AppendUvarint(b, uint64(rs.n)), rs.head...)
	for i := range parts {
		b = append(b, parts[i].data[:rs.chunkLen(i)]...)
	}
	return b, nil
}

// chunkLen is the frame bytes of the range in rest[i].
func (rs Records) chunkLen(i int) int {
	if i == len(rs.rest)-1 {
		return rs.tail
	}
	return len(rs.rest[i].data)
}

// GobDecode checks that a frame holds exactly its declared records, each
// within the frame, and keeps one copy of them. It runs inside an RPC
// client, so it checks the count against the bytes that remain before
// trusting it.
func (rs *Records) GobDecode(blob []byte) error {
	n, k := binary.Uvarint(blob)
	if k <= 0 {
		return fmt.Errorf("hdfs: Records frame: %w", errCorruptFrame)
	}
	body := blob[k:]
	if n > uint64(len(body)) { // every record takes at least its length byte
		return fmt.Errorf("hdfs: Records frame declares %d records in %d bytes: %w", n, len(body), errCorruptFrame)
	}
	b := body
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(b)
		if k <= 0 || l > uint64(len(b)-k) {
			return fmt.Errorf("hdfs: Records frame: record %d of %d overruns it: %w", i, n, errCorruptFrame)
		}
		b = b[k+int(l):]
	}
	if len(b) != 0 {
		return fmt.Errorf("hdfs: Records frame: %d trailing bytes: %w", len(b), errCorruptFrame)
	}
	*rs = Records{n: int(n)}
	if n > 0 {
		rs.head = bytes.Clone(body)
	}
	return nil
}

var errCorruptFrame = errors.New("corrupt frame")

// records returns the records [start, end) of f, sharing its chunks:
// a binary search for each end's chunk and a walk inside it. Caller holds
// d.mu.
func (f *file) records(start, end int) Records {
	if start == end {
		if f.n == 0 {
			return Records{}
		}
		// Non-nil, as a list's empty sub-slice was: gob sends it, where it
		// leaves a zero value off the stream.
		return Records{head: f.chunks[0].data[:0]}
	}
	// The chunks holding the first and the last record of the range.
	first := sort.Search(len(f.chunks), func(i int) bool { return f.chunks[i].first > start }) - 1
	last := first + sort.Search(len(f.chunks)-first, func(i int) bool { return f.chunks[first+i].first >= end }) - 1
	c := f.chunks[first]
	head := skipFrames(c.data, start-c.first)
	if first == last {
		head = head[:len(head)-len(skipFrames(head, end-start))]
		return Records{n: end - start, head: head}
	}
	lc := f.chunks[last]
	tail := len(lc.data) - len(skipFrames(lc.data, end-lc.first))
	return Records{n: end - start, head: head, rest: f.chunks[first+1 : last+1], tail: tail}
}

// ReadAll returns every record of a file, charging the file's logical size
// to the read counters. The returned slices alias DFS-owned storage, each
// capped at its own length, and must not be mutated.
func (d *DFS) ReadAll(name string) ([][]byte, error) {
	d.mu.Lock()
	f, ok := d.files[name]
	if !ok {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	rs, size := f.records(0, f.n), f.size
	d.mu.Unlock()
	d.chargeRead(size, int64(rs.n))
	return rs.Slices(), nil
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
	d  *DFS
	rs Records // the range's records not yet read
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
	return &FileReader{d: d, rs: f.records(clampRange(f.n, off, n))}, nil
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
	rec, err := r.rs.Next()
	if err == nil {
		r.d.chargeRead(int64(len(rec)), 1)
	}
	return rec, err
}

// Remaining reports how many records of the range are left to read.
func (r *FileReader) Remaining() int { return r.rs.n }

// ReadRange returns n records of a file starting at record off (n < 0 means
// "through the end"), charging exactly the delivered bytes to the read
// counters. It is the bulk remote-read surface the distributed coordinator
// serves map-task splits over: a worker's split scan becomes one call here
// instead of a streaming FileReader, with identical read accounting, and the
// records go on the wire as the frames they are stored in.
func (d *DFS) ReadRange(name string, off, n int) (Records, error) {
	d.mu.Lock()
	f, ok := d.files[name]
	if !ok {
		d.mu.Unlock()
		return Records{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	rs := f.records(clampRange(f.n, off, n))
	d.mu.Unlock()
	var bytes int64
	for scan := rs; scan.n > 0; {
		rec, _ := scan.Next()
		bytes += int64(len(rec))
	}
	d.chargeRead(bytes, int64(rs.n))
	return rs, nil
}

// Concat assembles dst from the given source files in order, transferring
// their chunks and already-placed blocks without charging any new write
// bytes — modelling HDFS concat, which splices block lists in the NameNode.
// The sources are removed. dst must not already exist. The MR engine uses
// this to commit per-task part files into the job's output file after every
// task has streamed (and paid for) its own writes; with no sources, dst is
// an empty file.
func (d *DFS) Concat(dst string, srcs []string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[dst]; ok {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}
	out := &file{}
	nChunks, nBlocks := 0, 0
	for _, s := range srcs {
		f, ok := d.files[s]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, s)
		}
		nChunks += len(f.chunks)
		nBlocks += len(f.blocks)
	}
	if len(srcs) == 1 {
		// One part is the output as it is.
		out = d.files[srcs[0]]
	} else if nChunks > 0 {
		out.chunks = make([]fileChunk, 0, nChunks)
		out.blocks = make([]block, 0, nBlocks)
		for _, s := range srcs {
			f := d.files[s]
			for _, c := range f.chunks {
				out.chunks = append(out.chunks, fileChunk{data: c.data, first: out.n + c.first})
			}
			out.blocks = append(out.blocks, f.blocks...)
			out.n += f.n
			out.size += f.size
		}
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
