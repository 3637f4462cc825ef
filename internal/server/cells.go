package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// A /query answer travels as a term table: every distinct rendered term once
// (Response.Terms, in order of first use), then one index into it per
// projected cell (Response.Cells, row-major, len(Header) wide). A term is
// sent once however many rows repeat it; the client joins each row's terms
// with '\t' to rebuild exactly the rows query.Render would have rendered.

// Cells is the cell section of a term table. It encodes as a plain JSON
// array of integers, written and parsed by hand: encoding/json decodes a
// []uint32 by reflection, one number at a time, which profiled at a fifth of
// the serve mix's CPU.
type Cells []uint32

// MarshalJSON writes the cells as a JSON integer array into one exactly
// sized buffer; nil encodes as null, as encoding/json encodes a nil slice.
func (c Cells) MarshalJSON() ([]byte, error) {
	if c == nil {
		return []byte("null"), nil
	}
	n := 2 + len(c) // brackets and commas, one comma too many when non-empty
	for _, v := range c {
		for v >= 10 {
			v /= 10
			n++
		}
	}
	b := make([]byte, 0, n)
	b = append(b, '[')
	for i, v := range c {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	return append(b, ']'), nil
}

// UnmarshalJSON parses a JSON array of integers in [0, math.MaxUint32], and
// nothing else: no sign, fraction, exponent or leading zero, and nothing
// after the closing bracket but whitespace. null leaves the cells as they
// are, the convention for an Unmarshaler. The count of commas bounds the
// cells before they are allocated, and a count the bytes cannot hold is an
// error, so a hostile body cannot buy more memory than twice its own size.
func (c *Cells) UnmarshalJSON(b []byte) error {
	b = bytes.Trim(b, jsonSpace)
	if string(b) == "null" {
		return nil
	}
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return errors.New("server: cells: not a JSON array")
	}
	body := b[1 : len(b)-1]
	if len(bytes.Trim(body, jsonSpace)) == 0 {
		*c = Cells{}
		return nil
	}
	n := bytes.Count(body, []byte{','}) + 1
	if n > (len(body)+1)/2 { // every cell takes a digit and all but one a comma
		return errors.New("server: cells: malformed array")
	}
	out := make(Cells, 0, n)
	for i := 0; ; {
		i = skipSpace(body, i)
		start := i
		for i < len(body) && body[i] >= '0' && body[i] <= '9' {
			i++
		}
		digits := body[start:i]
		switch {
		case len(digits) == 0:
			return fmt.Errorf("server: cells: cell %d: not an index", len(out))
		case len(digits) > 1 && digits[0] == '0':
			return fmt.Errorf("server: cells: cell %d: leading zero", len(out))
		}
		var v uint64
		for _, d := range digits {
			if v = v*10 + uint64(d-'0'); v > math.MaxUint32 {
				return fmt.Errorf("server: cells: cell %d: index above %d", len(out), uint32(math.MaxUint32))
			}
		}
		out = append(out, uint32(v))
		i = skipSpace(body, i)
		if i == len(body) {
			break
		}
		if body[i] != ',' {
			return fmt.Errorf("server: cells: cell %d: unexpected %q", len(out)-1, body[i])
		}
		i++
	}
	*c = out
	return nil
}

// Terms is the term section of a term table. It encodes as encoding/json
// encodes a []string, and decodes by hand into one string of which every
// term is a substring: encoding/json would allocate every term, and twice
// one with an escape, which every literal has (its quotes). The decoding is
// encoding/json's — the same escapes, a lone surrogate or an invalid UTF-8
// byte read as U+FFFD — but only for an array of strings: null items and
// anything after the closing bracket but whitespace are errors. The item
// count is taken in a first pass, so the term list is allocated once, no
// larger than the bytes can hold.
type Terms []string

// UnmarshalJSON parses a JSON array of strings; null leaves the terms as
// they are.
func (ts *Terms) UnmarshalJSON(b []byte) error {
	b = bytes.Trim(b, jsonSpace)
	if string(b) == "null" {
		return nil
	}
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return errors.New("server: terms: not a JSON array")
	}
	body := b[1 : len(b)-1]
	n, err := countStrings(body)
	if err != nil {
		return err
	}
	out := make(Terms, n)
	var sb strings.Builder
	sb.Grow(len(body))
	i := 0
	for k := range out {
		i = skipSpace(body, i)
		start := sb.Len()
		if i, err = unquote(&sb, body, i); err != nil {
			return fmt.Errorf("server: terms: term %d: %w", k, err)
		}
		out[k] = sb.String()[start:]
		i = skipSpace(body, i) + 1 // past the comma countStrings found
	}
	*ts = out
	return nil
}

// countStrings counts the items of the inside of a JSON array of strings,
// checking the commas, quotes and escape pairs that delimit them.
func countStrings(body []byte) (int, error) {
	n := 0
	i := skipSpace(body, 0)
	if i == len(body) {
		return 0, nil
	}
	for {
		if body[i] != '"' {
			return 0, fmt.Errorf("server: terms: term %d: not a string", n)
		}
		for i++; ; i++ {
			if i >= len(body) {
				return 0, fmt.Errorf("server: terms: term %d: unterminated string", n)
			}
			if body[i] == '\\' {
				i++
			} else if body[i] == '"' {
				break
			}
		}
		n++
		if i = skipSpace(body, i+1); i == len(body) {
			return n, nil
		}
		if body[i] != ',' {
			return 0, fmt.Errorf("server: terms: term %d: unexpected %q", n-1, body[i])
		}
		if i = skipSpace(body, i+1); i == len(body) {
			return 0, fmt.Errorf("server: terms: term %d: missing after a comma", n)
		}
	}
}

// unquote appends the JSON string that starts at b[i] to sb, unescaped, and
// returns the index just past its closing quote. Runs of bytes that need no
// decoding are copied whole.
func unquote(sb *strings.Builder, b []byte, i int) (int, error) {
	for i++; i < len(b); {
		run := i
		for i < len(b) && b[i] >= 0x20 && b[i] < utf8.RuneSelf && b[i] != '"' && b[i] != '\\' {
			i++
		}
		sb.Write(b[run:i])
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			return i + 1, nil
		case c < 0x20:
			return 0, fmt.Errorf("control byte %#x in a string", c)
		case c == '\\':
			if i+1 >= len(b) {
				return 0, errors.New("unterminated escape")
			}
			if r := escapes[b[i+1]]; r != 0 {
				sb.WriteByte(r)
				i += 2
				continue
			}
			if b[i+1] != 'u' {
				return 0, fmt.Errorf("invalid escape \\%c", b[i+1])
			}
			r, ok := hex4(b[i+2:])
			if !ok {
				return 0, errors.New("invalid \\u escape")
			}
			i += 6
			if utf16.IsSurrogate(r) && i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
				if r2, ok := hex4(b[i+2:]); ok {
					if d := utf16.DecodeRune(r, r2); d != utf8.RuneError {
						r = d
						i += 6
					}
				}
			}
			sb.WriteRune(r) // a lone surrogate writes U+FFFD
		default:
			r, size := utf8.DecodeRune(b[i:])
			sb.WriteRune(r) // an invalid byte writes U+FFFD
			i += size
		}
	}
	return 0, errors.New("unterminated string")
}

// escapes maps the byte after a backslash to the byte it stands for; 0 for
// \u and for bytes that are no escape.
var escapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 reads the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// jsonSpace is the whitespace JSON allows between tokens.
const jsonSpace = " \t\n\r"

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// maxRowBytes bounds the text tableRows rebuilds. A term table is smaller
// than its rows, so a body under the client's read limit could otherwise
// name one long term a million times and ask for terabytes.
const maxRowBytes = 1 << 30

// tableRows rebuilds a term table's rows, each the row's terms joined by
// '\t', into one exactly sized string of which every row is a substring. It
// returns an error, never panics, for a table no server could have sent:
// a cell naming a term that is not there, a cell count that does not fill
// whole rows width wide, or rows longer in total than maxRowBytes.
func tableRows(width int, terms []string, cells []uint32) ([]string, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	if width == 0 || len(cells)%width != 0 {
		return nil, fmt.Errorf("server: %d cells do not fill rows %d wide", len(cells), width)
	}
	nrows := len(cells) / width
	n := nrows * (width - 1) // the tabs
	for i, c := range cells {
		if uint64(c) >= uint64(len(terms)) {
			return nil, fmt.Errorf("server: cell %d names term %d of %d", i, c, len(terms))
		}
		if n += len(terms[c]); n > maxRowBytes {
			return nil, fmt.Errorf("server: rows exceed %d bytes", maxRowBytes)
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	rows := make([]string, nrows)
	for i := range rows {
		start := sb.Len()
		for j, c := range cells[i*width : (i+1)*width] {
			if j > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(terms[c])
		}
		rows[i] = sb.String()[start:]
	}
	return rows, nil
}

// unpackRows sets Rows from the response's term table.
func (r *Response) unpackRows() (err error) {
	r.Rows, err = tableRows(len(r.Header), r.Terms, r.Cells)
	return err
}
