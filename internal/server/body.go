package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The /query and /jobs/{id} bodies are written and read by this one codec.
//
// The encoder writes exactly the bytes json.Encoder writes for a Response or
// a JobStatus with SetEscapeHTML(false) — fields in struct order, the same
// omitempty rules and string escapes, a trailing newline — so any JSON
// client reads them; the term table's two arrays go straight into the one
// buffer the handler sends with its Content-Length in one Write.
//
// The decoder reads a whole body in one pass: top-level keys are matched by
// hand (exactly, then case-folded as encoding/json folds them), terms are
// unquoted into one string, cells parsed in place, and only the small
// header, join_order and jobs values go through encoding/json, each on its
// own exact span. What it accepts decodes as encoding/json decodes it, and
// it rejects only what encoding/json rejects plus null where no server
// writes one: a null body, and null items in terms or cells.

// maxBodyBytes bounds a body the client reads.
const maxBodyBytes = 64 << 20

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// encodeBufs holds the buffers handlers encode bodies into.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeBody sends the body encode appends as one Write with its
// Content-Length, so it is neither chunked nor re-scanned.
func writeBody(w http.ResponseWriter, code int, encode func([]byte) []byte) {
	bp := encodeBufs.Get().(*[]byte)
	b := encode((*bp)[:0])
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	_, _ = w.Write(b)
	*bp = b
	encodeBufs.Put(bp)
}

// appendResponse appends r as json.Encoder encodes it.
func appendResponse(dst []byte, r *Response) []byte {
	return append(appendResponseObject(dst, r), '\n')
}

// appendJobStatus appends st as json.Encoder encodes it.
func appendJobStatus(dst []byte, st *JobStatus) []byte {
	dst = appendString(append(dst, `{"id":`...), st.ID)
	dst = appendString(append(dst, `,"state":`...), string(st.State))
	if st.Error != "" {
		dst = appendString(append(dst, `,"error":`...), st.Error)
	}
	if st.Response != nil {
		dst = appendResponseObject(append(dst, `,"response":`...), st.Response)
	}
	return append(dst, "}\n"...)
}

func appendResponseObject(dst []byte, r *Response) []byte {
	dst = appendString(append(dst, `{"engine":`...), r.Engine)
	dst = appendString(append(dst, `,"cache":`...), r.Cache)
	dst = appendString(append(dst, `,"plan_cache":`...), r.PlanCache)
	dst = strconv.AppendBool(append(dst, `,"is_count":`...), r.IsCount)
	dst = strconv.AppendInt(append(dst, `,"count":`...), r.Count, 10)
	if len(r.Header) > 0 {
		dst = appendStrings(append(dst, `,"header":`...), r.Header)
	}
	if len(r.Terms) > 0 {
		dst = appendStrings(append(dst, `,"terms":`...), r.Terms)
	}
	if len(r.Cells) > 0 {
		dst = appendCells(append(dst, `,"cells":`...), r.Cells)
	}
	dst = strconv.AppendInt(append(dst, `,"total_rows":`...), int64(r.TotalRows), 10)
	if r.EmptyRows != 0 {
		dst = strconv.AppendInt(append(dst, `,"empty_rows":`...), int64(r.EmptyRows), 10)
	}
	dst = strconv.AppendInt(append(dst, `,"cycles":`...), int64(r.Cycles), 10)
	dst = strconv.AppendInt(append(dst, `,"shuffle_bytes":`...), r.ShuffleBytes, 10)
	dst = strconv.AppendInt(append(dst, `,"est_shuffle_bytes":`...), r.EstShuffleBytes, 10)
	dst = strconv.AppendInt(append(dst, `,"output_records":`...), r.OutputRecords, 10)
	dst = strconv.AppendInt(append(dst, `,"output_bytes":`...), r.OutputBytes, 10)
	dst = strconv.AppendInt(append(dst, `,"task_retries":`...), r.TaskRetries, 10)
	dst = strconv.AppendInt(append(dst, `,"temp_bytes_reclaimed":`...), r.TempBytesReclaimed, 10)
	dst = strconv.AppendInt(append(dst, `,"duration_ms":`...), r.DurationMS, 10)
	if len(r.JoinOrder) > 0 {
		dst = append(dst, `,"join_order":[`...)
		for i, j := range r.JoinOrder {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(j), 10)
		}
		dst = append(dst, ']')
	}
	if r.Tenant != "" {
		dst = appendString(append(dst, `,"tenant":`...), r.Tenant)
	}
	if len(r.Jobs) > 0 {
		dst = append(dst, `,"jobs":[`...)
		for i := range r.Jobs {
			j := &r.Jobs[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(append(dst, `{"job":`...), j.Job)
			dst = strconv.AppendInt(append(dst, `,"duration_ms":`...), j.DurationMS, 10)
			dst = strconv.AppendInt(append(dst, `,"map_input_bytes":`...), j.MapInputBytes, 10)
			dst = strconv.AppendInt(append(dst, `,"shuffle_bytes":`...), j.ShuffleBytes, 10)
			dst = strconv.AppendInt(append(dst, `,"reduce_output_bytes":`...), j.ReduceOutputBytes, 10)
			dst = strconv.AppendInt(append(dst, `,"spilled_bytes":`...), j.SpilledBytes, 10)
			dst = strconv.AppendInt(append(dst, `,"task_retries":`...), j.TaskRetries, 10)
			dst = strconv.AppendInt(append(dst, `,"temp_bytes_reclaimed":`...), j.TempBytesReclaimed, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.Timeline != "" {
		dst = appendString(append(dst, `,"timeline":`...), r.Timeline)
	}
	return append(dst, '}')
}

// appendCells appends the cells as a JSON integer array, writing each
// cell's digits in place: strconv.AppendUint's copy through a scratch
// buffer was two thirds of the encoder's time.
func appendCells(dst []byte, cells []uint32) []byte {
	dst = append(dst, '[')
	for i, c := range cells {
		if cap(dst)-len(dst) < 11 { // a comma and up to 10 digits
			dst = slices.Grow(dst, 11+4*(len(cells)-i))
		}
		n := len(dst)
		if i > 0 {
			dst = dst[:n+1]
			dst[n] = ','
			n++
		}
		w := 1
		for v := c; v >= 10; v /= 10 {
			w++
		}
		dst = dst[:n+w]
		for j := n + w - 1; j > n; j-- {
			dst[j] = byte('0' + c%10)
			c /= 10
		}
		dst[n] = byte('0' + c)
	}
	return append(dst, ']')
}

// appendStrings appends a JSON array of strings.
func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// plain marks the bytes a JSON string holds as themselves when HTML
// escaping is off: printable ASCII but the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes a string with HTML
// escaping off: a backslash before the quote and the backslash; \b, \f, \n,
// \r and \t; a six-byte \u escape for the other control bytes, for each
// byte of invalid UTF-8 (as U+FFFD), and for U+2028 and U+2029. Runs of
// plain bytes are copied whole.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plain[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// decoder reads one body. Pooled decoders keep their buffers — the body,
// and the scratch strings are unquoted into before they are copied out —
// so nothing a decoded value holds points into either.
type decoder struct {
	b     []byte // the body
	i     int    // read offset into b
	depth int    // arrays and objects open at i
	buf   []byte // unquoted string scratch
	ends  []int  // end offset in buf of each term read so far
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// readBody reads a success body whole into a pooled decoder: sized from
// Content-Length when the server sent one, which is refused above
// maxBodyBytes before anything is allocated, and read to EOF under the same
// limit otherwise. The caller puts the decoder back.
func readBody(resp *http.Response) (*decoder, error) {
	if resp.ContentLength > maxBodyBytes {
		return nil, fmt.Errorf("server: body of %d bytes exceeds the %d-byte limit", resp.ContentLength, maxBodyBytes)
	}
	d := decoders.Get().(*decoder)
	d.b, d.i, d.depth = d.b[:0], 0, 0
	var err error
	if n := int(resp.ContentLength); n >= 0 {
		d.b = slices.Grow(d.b, n)[:n]
		_, err = io.ReadFull(resp.Body, d.b)
	} else {
		buf := bytes.NewBuffer(d.b)
		_, err = buf.ReadFrom(io.LimitReader(resp.Body, maxBodyBytes+1))
		if d.b = buf.Bytes(); err == nil && len(d.b) > maxBodyBytes {
			err = fmt.Errorf("more than %d bytes", maxBodyBytes)
		}
	}
	if err != nil {
		decoders.Put(d)
		return nil, fmt.Errorf("server: reading the body: %w", err)
	}
	return d, nil
}

// responseBody decodes the body as a /query answer into r.
func (d *decoder) responseBody(r *Response) error {
	d.space()
	if err := d.response(r); err != nil {
		return err
	}
	return d.end()
}

// jobStatusBody decodes the body as a /jobs/{id} answer into st.
func (d *decoder) jobStatusBody(st *JobStatus) error {
	d.space()
	if err := d.jobStatus(st); err != nil {
		return err
	}
	return d.end()
}

// end checks that only whitespace follows the value.
func (d *decoder) end() error {
	if d.space(); d.i != len(d.b) {
		return d.errorf("%q after the value", d.b[d.i])
	}
	return nil
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("server: body byte %d: %s", d.i, fmt.Sprintf(format, args...))
}

var jobStatusKeys = []string{"id", "state", "error", "response"}

func (d *decoder) jobStatus(st *JobStatus) error {
	return d.object(func(key []byte) error { return d.jobStatusField(st, key) })
}

func (d *decoder) jobStatusField(st *JobStatus, key []byte) error {
	switch string(key) {
	case "id":
		return d.str(&st.ID)
	case "state":
		return d.str((*string)(&st.State))
	case "error":
		return d.str(&st.Error)
	case "response":
		if d.null() {
			st.Response = nil
			return nil
		}
		if st.Response == nil {
			st.Response = new(Response)
		}
		return d.response(st.Response)
	}
	if name := foldedKey(key, jobStatusKeys); name != "" {
		return d.jobStatusField(st, []byte(name))
	}
	return d.skip()
}

var responseKeys = []string{"engine", "cache", "plan_cache", "is_count", "count", "header", "terms", "cells",
	"total_rows", "empty_rows", "cycles", "shuffle_bytes", "est_shuffle_bytes", "output_records", "output_bytes",
	"task_retries", "temp_bytes_reclaimed", "duration_ms", "join_order", "tenant", "jobs", "timeline"}

func (d *decoder) response(r *Response) error {
	return d.object(func(key []byte) error { return d.responseField(r, key) })
}

func (d *decoder) responseField(r *Response, key []byte) error {
	switch string(key) {
	case "engine":
		return d.str(&r.Engine)
	case "cache":
		return d.str(&r.Cache)
	case "plan_cache":
		return d.str(&r.PlanCache)
	case "is_count":
		return d.bool(&r.IsCount)
	case "count":
		return d.int64(&r.Count)
	case "header":
		return d.std(&r.Header)
	case "terms":
		return d.terms(&r.Terms)
	case "cells":
		return d.cells(&r.Cells)
	case "total_rows":
		return d.int(&r.TotalRows)
	case "empty_rows":
		return d.int(&r.EmptyRows)
	case "cycles":
		return d.int(&r.Cycles)
	case "shuffle_bytes":
		return d.int64(&r.ShuffleBytes)
	case "est_shuffle_bytes":
		return d.int64(&r.EstShuffleBytes)
	case "output_records":
		return d.int64(&r.OutputRecords)
	case "output_bytes":
		return d.int64(&r.OutputBytes)
	case "task_retries":
		return d.int64(&r.TaskRetries)
	case "temp_bytes_reclaimed":
		return d.int64(&r.TempBytesReclaimed)
	case "duration_ms":
		return d.int64(&r.DurationMS)
	case "join_order":
		return d.std(&r.JoinOrder)
	case "tenant":
		return d.str(&r.Tenant)
	case "jobs":
		return d.std(&r.Jobs)
	case "timeline":
		return d.str(&r.Timeline)
	}
	if name := foldedKey(key, responseKeys); name != "" {
		return d.responseField(r, []byte(name))
	}
	return d.skip()
}

// foldedKey returns the name key matches under Unicode case folding, the
// match encoding/json falls back to when no field name equals a key; "" if
// none matches.
func foldedKey(key []byte, names []string) string {
	for _, name := range names {
		if strings.EqualFold(string(key), name) {
			return name
		}
	}
	return ""
}

// object reads an object, calling field with each key once the key's value
// is next; the key is valid only during the call.
func (d *decoder) object(field func(key []byte) error) error {
	if err := d.open('{'); err != nil {
		return err
	}
	if d.space(); d.peek() == '}' {
		return d.close()
	}
	for {
		d.space()
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.space(); d.peek() != ':' {
			return d.errorf("no colon after a key")
		}
		d.i++
		d.space()
		if err := field(key); err != nil {
			return err
		}
		switch d.space(); d.peek() {
		case ',':
			d.i++
		case '}':
			return d.close()
		default:
			return d.errorf("no comma or closing brace after a value")
		}
	}
}

// array reads an array, calling item with each item next.
func (d *decoder) array(item func() error) error {
	if err := d.open('['); err != nil {
		return err
	}
	if d.space(); d.peek() == ']' {
		return d.close()
	}
	for {
		d.space()
		if err := item(); err != nil {
			return err
		}
		switch d.space(); d.peek() {
		case ',':
			d.i++
		case ']':
			return d.close()
		default:
			return d.errorf("no comma or closing bracket after an item")
		}
	}
}

// open moves past the bracket or brace c that starts an array or object.
func (d *decoder) open(c byte) error {
	if d.peek() != c {
		return d.errorf("want %q", c)
	}
	d.i++
	if d.depth++; d.depth > maxDepth {
		return d.errorf("nested deeper than %d", maxDepth)
	}
	return nil
}

// close moves past the bracket or brace that ends an array or object.
func (d *decoder) close() error {
	d.i++
	d.depth--
	return nil
}

// key reads an object key. It aliases the body when the key has no escape
// and no byte outside printable ASCII, else d.buf.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errorf("key not a string")
	}
	start := d.i + 1
	for j := start; j < len(d.b); j++ {
		if c := d.b[j]; c == '"' {
			d.i = j + 1
			return d.b[start:j], nil
		} else if !plain[c] {
			break
		}
	}
	d.buf = d.buf[:0]
	err := d.unquote()
	return d.buf, err
}

// str reads a string into *dst; null leaves it.
func (d *decoder) str(dst *string) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.errorf("not a string")
	}
	d.buf = d.buf[:0]
	if err := d.unquote(); err != nil {
		return err
	}
	*dst = string(d.buf)
	return nil
}

// bool reads a boolean into *dst; null leaves it.
func (d *decoder) bool(dst *bool) error {
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	case !d.null():
		return d.errorf("not a boolean")
	}
	return nil
}

func (d *decoder) int64(dst *int64) error { return d.integer(dst, math.MaxInt64) }

func (d *decoder) int(dst *int) error {
	v := int64(*dst)
	err := d.integer(&v, math.MaxInt)
	*dst = int(v)
	return err
}

// integer reads an integer in [-max-1, max] into *dst; null leaves it. A
// fraction or an exponent is an error, as encoding/json makes it for an
// integer field.
func (d *decoder) integer(dst *int64, max int64) error {
	if d.null() {
		return nil
	}
	neg := d.peek() == '-'
	limit := uint64(max)
	if neg {
		d.i++
		limit++
	}
	v, err := d.uint(limit)
	if err != nil {
		return err
	}
	if *dst = int64(v); neg {
		*dst = -*dst
	}
	return nil
}

// uint reads the digits of an integer no larger than max (below 10^19).
func (d *decoder) uint(max uint64) (uint64, error) {
	b, start, i := d.b, d.i, d.i
	var v uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c) // wraps only past 19 digits, rejected below
	}
	d.i = i
	switch n := i - start; {
	case n == 0:
		return 0, d.errorf("not an integer")
	case n > 1 && b[start] == '0':
		return 0, d.errorf("leading zero")
	case n > 19 || v > max:
		return 0, d.errorf("integer above %d", max)
	case i < len(b) && (b[i] == '.' || b[i]|0x20 == 'e'):
		return 0, d.errorf("not an integer")
	}
	return v, nil
}

// terms reads the term array into one string of which every term is a
// substring; null sets the terms nil. A null item is an error.
func (d *decoder) terms(dst *[]string) error {
	if d.null() {
		*dst = nil
		return nil
	}
	d.buf, d.ends = d.buf[:0], d.ends[:0]
	err := d.array(func() error {
		if d.peek() != '"' {
			return d.errorf("term %d not a string", len(d.ends))
		}
		if err := d.unquote(); err != nil {
			return err
		}
		d.ends = append(d.ends, len(d.buf))
		return nil
	})
	if err != nil {
		return err
	}
	s := string(d.buf)
	out := make([]string, len(d.ends))
	start := 0
	for k, end := range d.ends {
		out[k], start = s[start:end], end
	}
	*dst = out
	return nil
}

// cells reads the cell array, integers in [0, math.MaxUint32]; null sets
// the cells nil. A null item is an error. The count of commas before the
// first closing bracket bounds the cells before they are allocated, and a
// count those bytes cannot hold is an error, so a hostile body cannot buy
// more memory than twice its own size.
func (d *decoder) cells(dst *[]uint32) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	if d.space(); d.peek() == ']' {
		*dst = []uint32{}
		return d.close()
	}
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		return d.errorf("unterminated cells")
	}
	n := bytes.Count(d.b[d.i:d.i+end], []byte{','}) + 1
	if n > (end+1)/2 { // every cell takes a digit and all but one a comma
		return d.errorf("malformed cells")
	}
	out := make([]uint32, 0, n)
	b, i := d.b, d.i
	for {
		// The fast path: at most 10 digits, no leading zero, then a comma.
		start := i
		var v uint64
		for i < len(b) && b[i]-'0' <= 9 {
			v = v*10 + uint64(b[i]-'0')
			i++
		}
		if w := i - start; w == 0 || w > 10 || w > 1 && b[start] == '0' || v > math.MaxUint32 {
			d.i = start
			_, err := d.uint(math.MaxUint32)
			return err
		}
		out = append(out, uint32(v))
		if i < len(b) && b[i] == ',' && i+1 < len(b) && b[i+1]-'0' <= 9 {
			i++
			continue
		}
		// Whitespace, the closing bracket, a fraction or an exponent.
		if d.i = i; i < len(b) && (b[i] == '.' || b[i]|0x20 == 'e') {
			return d.errorf("not an integer")
		}
		switch d.space(); d.peek() {
		case ',':
			d.i++
			d.space()
			i = d.i
		case ']':
			*dst = out
			return d.close()
		default:
			return d.errorf("no comma or closing bracket after a cell")
		}
	}
}

// std decodes the next value into v with encoding/json, on its exact span.
func (d *decoder) std(v any) error {
	start := d.i
	if err := d.skip(); err != nil {
		return err
	}
	if err := json.Unmarshal(d.b[start:d.i], v); err != nil {
		return fmt.Errorf("server: body byte %d: %w", start, err)
	}
	return nil
}

// skip reads any one value, checking it as encoding/json's scanner does.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		d.buf = d.buf[:0]
		return d.unquote()
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case d.literal("true") || d.literal("false") || d.null():
		return nil
	}
	return d.errorf("not a JSON value")
}

// number reads a number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.errorf("malformed number")
	}
	if d.peek() == '.' {
		if d.i++; d.digits() == 0 {
			return d.errorf("malformed number")
		}
	}
	if d.peek()|0x20 == 'e' {
		if d.i++; d.peek() == '+' || d.peek() == '-' {
			d.i++
		}
		if d.digits() == 0 {
			return d.errorf("malformed number")
		}
	}
	return nil
}

// digits moves past a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// literal moves past s if it is next.
func (d *decoder) literal(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

func (d *decoder) null() bool { return d.literal("null") }

// peek returns the next byte, 0 at the end (no JSON token starts with 0).
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// space moves past JSON whitespace.
func (d *decoder) space() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// unquote appends the string at d.i to d.buf, unescaped as encoding/json
// unescapes it — a lone surrogate or an invalid UTF-8 byte becomes U+FFFD —
// and moves past its closing quote. Runs of plain bytes are copied whole.
func (d *decoder) unquote() error {
	b, i := d.b, d.i+1
	for i < len(b) {
		run := i
		for i < len(b) && plain[b[i]] {
			i++
		}
		d.buf = append(d.buf, b[run:i]...)
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return nil
		case c < 0x20:
			d.i = i
			return d.errorf("control byte %#x in a string", c)
		case c == '\\':
			if i+1 == len(b) {
				d.i = i
				return d.errorf("unterminated string")
			}
			if e := escapes[b[i+1]]; e != 0 {
				d.buf = append(d.buf, e)
				i += 2
				continue
			}
			r, ok := hex4(b[i+2:])
			if b[i+1] != 'u' || !ok {
				d.i = i
				return d.errorf("invalid escape in a string")
			}
			i += 6
			if utf16.IsSurrogate(r) && i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
				if r2, ok := hex4(b[i+2:]); ok {
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
						i += 6
					}
				}
			}
			d.buf = utf8.AppendRune(d.buf, r) // a lone surrogate appends U+FFFD
		default:
			r, size := utf8.DecodeRune(b[i:])
			d.buf = utf8.AppendRune(d.buf, r) // so does an invalid byte
			i += size
		}
	}
	d.i = len(b)
	return d.errorf("unterminated string")
}

// escapes maps the byte after a backslash to the byte it stands for; 0 for
// u and for bytes that are no escape.
var escapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 reads the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
