package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ntga/internal/codec"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// The four bulk payloads of the protocol — a split's records, a shuffle
// segment, a task's output and a query's rows — would cost gob one
// allocation per element. Each travels instead as one gob byte string,
// framed like a spill run: a uvarint item count, then every item
// length-prefixed. An encoder sizes its frame exactly and allocates it once;
// a decoder allocates a fixed number of slabs whatever the item count, and
// every item it returns is a sub-slice of one of them capped at its own
// length, so appending to one item never overwrites the next. Nil and empty
// lists both decode as nil, and an empty record, key, value or row as nil,
// exactly as gob decodes the plain slice types. A split is the exception in
// one respect: it travels as the hdfs.Records the DFS read it as, whose
// frame is a Records frame and whose empty record is an empty view.
//
// A decoder runs inside the net/rpc server, so it returns an error for any
// malformed frame and checks every count against the bytes that remain
// before it allocates for it.

// Records is a list of DFS records: one output base of a task attempt's
// output (ReportArgs). A map split travels in the same frame as the
// hdfs.Records the DFS reads it as (ReadRangeReply).
type Records [][]byte

// KVs is one map task's sorted segment for one reduce partition
// (FetchReply). Its frame is the segment itself behind its pair count, so it
// is encoded with one copy and decoded with one check and one copy, never
// pair by pair. It keeps the name, and FetchReply the field name, of the
// pair list it replaced, so a FetchReply's gob encoding is byte-identical to
// that list's.
type KVs mapreduce.Segment

// Rows is a query's binding rows (RunReply).
type Rows []query.Row

// Texts is a query's rendered result rows (RunReply).
type Texts []string

// GobEncode frames the records.
func (rs Records) GobEncode() ([]byte, error) {
	n := codec.UvarintLen(uint64(len(rs)))
	for _, r := range rs {
		n += bytesLen(len(r))
	}
	b := codec.NewBuffer(n)
	b.PutUvarint(uint64(len(rs)))
	for _, r := range rs {
		b.PutBytes(r)
	}
	return b.Bytes(), nil
}

// GobDecode decodes a frame into records that share one copy of it: gob
// reuses the buffer it passes in.
func (rs *Records) GobDecode(blob []byte) (err error) {
	defer wrapFrameErr("Records", &err)
	n, body, err := openFrame(blob, 1, true)
	if err != nil {
		return err
	}
	r := codec.NewReader(body)
	var out Records
	if n > 0 {
		out = make(Records, n)
	}
	for i := range out {
		if out[i], err = item(r); err != nil {
			return err
		}
	}
	if err := closeFrame(r); err != nil {
		return err
	}
	*rs = out
	return nil
}

// GobEncode frames the segment: its pair count, then its framed pairs.
func (kvs KVs) GobEncode() ([]byte, error) {
	b := make([]byte, 0, codec.UvarintLen(uint64(kvs.Pairs))+len(kvs.Data))
	b = binary.AppendUvarint(b, uint64(kvs.Pairs))
	return append(b, kvs.Data...), nil
}

// GobDecode checks that a frame holds exactly its declared pairs, with the
// reader the reduce-side merge uses (Segment.Check), and keeps one copy of
// them as the segment.
func (kvs *KVs) GobDecode(blob []byte) (err error) {
	defer wrapFrameErr("KVs", &err)
	n, body, err := openFrame(blob, 2, false)
	if err != nil {
		return err
	}
	if err := (mapreduce.Segment{Pairs: n, Data: body}).Check(); err != nil {
		return err
	}
	*kvs = KVs{}
	if n > 0 {
		*kvs = KVs{Pairs: n, Data: bytes.Clone(body)}
	}
	return nil
}

// GobEncode frames the rows: the row count and the total ID count, then
// each row as a length-prefixed ID list.
func (rs Rows) GobEncode() ([]byte, error) {
	ids := 0
	n := codec.UvarintLen(uint64(len(rs)))
	for _, row := range rs {
		ids += len(row)
		n += codec.UvarintLen(uint64(len(row)))
		for _, id := range row {
			n += codec.UvarintLen(uint64(id))
		}
	}
	n += codec.UvarintLen(uint64(ids))
	b := codec.NewBuffer(n)
	b.PutUvarint(uint64(len(rs)))
	b.PutUvarint(uint64(ids))
	for _, row := range rs {
		b.PutIDs(row)
	}
	return b.Bytes(), nil
}

// GobDecode decodes a frame into rows that share one ID slab.
func (rs *Rows) GobDecode(blob []byte) (err error) {
	defer wrapFrameErr("Rows", &err)
	n, body, err := openFrame(blob, 1, false)
	if err != nil {
		return err
	}
	r := codec.NewReader(body)
	total, err := count(r, 1) // every ID takes at least one byte
	if err != nil {
		return err
	}
	var out Rows
	if n > 0 {
		out = make(Rows, n)
	}
	slab := make([]rdf.ID, 0, total)
	for i := range out {
		w, err := r.Uvarint()
		if err != nil {
			return err
		}
		if w > uint64(cap(slab)-len(slab)) {
			return fmt.Errorf("%w: more IDs than the frame declares", codec.ErrCorrupt)
		}
		start := len(slab)
		for ; w > 0; w-- {
			id, err := r.ID()
			if err != nil {
				return err
			}
			slab = append(slab, id)
		}
		if len(slab) > start {
			out[i] = slab[start:len(slab):len(slab)]
		}
	}
	if len(slab) != total {
		return fmt.Errorf("%w: %d of %d declared IDs", codec.ErrCorrupt, len(slab), total)
	}
	if err := closeFrame(r); err != nil {
		return err
	}
	*rs = out
	return nil
}

// GobEncode frames the text rows.
func (ts Texts) GobEncode() ([]byte, error) {
	n := codec.UvarintLen(uint64(len(ts)))
	for _, s := range ts {
		n += bytesLen(len(s))
	}
	b := codec.NewBuffer(n)
	b.PutUvarint(uint64(len(ts)))
	for _, s := range ts {
		b.PutString(s)
	}
	return b.Bytes(), nil
}

// GobDecode decodes a frame into rows that are substrings of one string
// copy of it.
func (ts *Texts) GobDecode(blob []byte) (err error) {
	defer wrapFrameErr("Texts", &err)
	n, body, err := openFrame(blob, 1, false)
	if err != nil {
		return err
	}
	r := codec.NewReader(body)
	var out Texts
	var text string
	if n > 0 {
		out = make(Texts, n)
		text = string(body)
	}
	for i := range out {
		p, err := r.Bytes()
		if err != nil {
			return err
		}
		end := len(body) - r.Remaining()
		out[i] = text[end-len(p) : end]
	}
	if err := closeFrame(r); err != nil {
		return err
	}
	*ts = out
	return nil
}

// bytesLen is the framed size of an n-byte item.
func bytesLen(n int) int { return codec.UvarintLen(uint64(n)) + n }

// openFrame reads a frame's item count, checked against the bytes that
// remain (every item takes at least minItem of them), and returns the items'
// bytes: a private copy of them when clone is set and there is an item to
// decode, since gob reuses the buffer it decodes from.
func openFrame(blob []byte, minItem int, clone bool) (int, []byte, error) {
	r := codec.NewReader(blob)
	n, err := count(r, minItem)
	if err != nil {
		return 0, nil, err
	}
	body := blob[len(blob)-r.Remaining():]
	if clone && n > 0 {
		body = bytes.Clone(body)
	}
	return n, body, nil
}

// count reads a uvarint count of items that each take at least minItem of
// the bytes that remain, and rejects a count those bytes cannot hold.
func count(r *codec.Reader, minItem int) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()/minItem) {
		return 0, fmt.Errorf("%w: %d items in %d bytes", codec.ErrCorrupt, n, r.Remaining())
	}
	return int(n), nil
}

// item reads one length-prefixed item, capped at its own length; an empty
// item is nil, as gob decodes it.
func item(r *codec.Reader) ([]byte, error) {
	p, err := r.Bytes()
	if err != nil || len(p) == 0 {
		return nil, err
	}
	return p[:len(p):len(p)], nil
}

// closeFrame rejects bytes left over after a frame's last item.
func closeFrame(r *codec.Reader) error {
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", codec.ErrCorrupt, r.Remaining())
	}
	return nil
}

// wrapFrameErr names the frame type in a decoding error.
func wrapFrameErr(typ string, err *error) {
	if *err != nil {
		*err = fmt.Errorf("cluster: decoding %s frame: %w", typ, *err)
	}
}
