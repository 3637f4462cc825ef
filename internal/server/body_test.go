package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ntga/internal/bench"
)

// stdEncode is what json.Encoder with SetEscapeHTML(false) writes for v.
func stdEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameAsStd checks the codec against encoding/json on one value: the bytes
// encode writes are encoding/json's, and they decode, by the codec and by
// encoding/json, back to the same value.
func sameAsStd[T any](t *testing.T, label string, v *T, encode func([]byte, *T) []byte, decode func(*decoder, *T) error) {
	t.Helper()
	got, want := encode(nil, v), stdEncode(t, v)
	if !bytes.Equal(got, want) {
		t.Errorf("%s: the codec differs from encoding/json at byte %d:\n got %.300q\nwant %.300q", label, diffAt(got, want), got, want)
		return
	}
	var dec, std T
	if err := decode(&decoder{b: got}, &dec); err != nil {
		t.Fatalf("%s: decoding its own body: %v", label, err)
	}
	if err := json.Unmarshal(got, &std); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, std) {
		t.Errorf("%s: decoded %+v, encoding/json decodes %+v", label, dec, std)
	}
}

func sameResponse(t *testing.T, label string, r *Response) {
	t.Helper()
	sameAsStd(t, label, r, appendResponse, (*decoder).responseBody)
}

func sameJobStatus(t *testing.T, label string, st *JobStatus) {
	t.Helper()
	sameAsStd(t, label, st, appendJobStatus, (*decoder).jobStatusBody)
}

func diffAt(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// nastyTerms hold every byte and rune the string encoder treats specially.
func nastyTerms() []string {
	terms := []string{`"say \"hi\""`, `a\b`, `<http://ex/a?x=1&y=<2>>`, "\x7f", "é ☃ 𝄞",
		"\xff", "a\xe2\x80", "\xc0\xaf", "\xed\xa0\x80", "line\u2028para\u2029end", ""}
	for c := 0; c < 0x20; c++ {
		terms = append(terms, fmt.Sprintf("%c<%c>", c, c))
	}
	return terms
}

// fullResponse sets every field of a Response but Rows, and of each
// JobSummary; TestBodyMatchesEncodingJSON fails if a field is added that it
// leaves zero, so a new field cannot skip the codec's golden.
func fullResponse() *Response {
	return &Response{
		Engine: "NTGA-Lazy", Cache: "miss", PlanCache: "hit", IsCount: true, Count: -7,
		Header: []string{"?s", "?o"}, Terms: nastyTerms(), Cells: []uint32{0, 1, 2, 3, 4, 42},
		TotalRows: 3, Cycles: 4, ShuffleBytes: 5, EstShuffleBytes: 6, OutputRecords: 7, OutputBytes: 8,
		TaskRetries: 9, TempBytesReclaimed: 10, DurationMS: 11, JoinOrder: []int{2, 0, 1}, Tenant: "t\"1",
		Jobs: []JobSummary{
			{Job: "ntga-job1", DurationMS: 1, MapInputBytes: 2, ShuffleBytes: 3, ReduceOutputBytes: 4, SpilledBytes: 5, TaskRetries: 6, TempBytesReclaimed: 7},
			{Job: "ntga-join", DurationMS: -1, MapInputBytes: 1 << 62},
		},
		Timeline: "job 1\n\tmap 0 ▇▇\n",
		Rows:     []string{"never sent"},
	}
}

// The codec writes exactly the bytes encoding/json writes, on every field,
// escape and omitempty case of a Response and a JobStatus.
func TestBodyMatchesEncodingJSON(t *testing.T) {
	full := fullResponse()
	for _, v := range []reflect.Value{reflect.ValueOf(*full), reflect.ValueOf(full.Jobs[0])} {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Tag.Get("json") != "-" && v.Field(i).IsZero() {
				t.Errorf("fullResponse leaves %s.%s zero", v.Type().Name(), f.Name)
			}
		}
	}
	sameResponse(t, "every field set", full)
	sameResponse(t, "zero", &Response{})
	sameResponse(t, "empty slices", &Response{Header: []string{}, Terms: []string{}, Cells: []uint32{}, JoinOrder: []int{}, Jobs: []JobSummary{}})
	sameResponse(t, "count", &Response{Engine: "Hive", Cache: "off", PlanCache: "miss", IsCount: true, Count: 1 << 40, Header: []string{"?n"}})
	for _, term := range nastyTerms() {
		sameResponse(t, fmt.Sprintf("term %q", term), &Response{Engine: term, Header: []string{term}, Terms: []string{term}, Cells: []uint32{0}, TotalRows: 1, Tenant: term, Timeline: term})
	}
	sameJobStatus(t, "running", &JobStatus{ID: "job-000001", State: JobRunning})
	sameJobStatus(t, "done", &JobStatus{ID: "job-000002", State: JobDone, Response: full})
	sameJobStatus(t, "done, empty answer", &JobStatus{ID: "job-000003", State: JobDone, Response: &Response{Engine: "NTGA-Lazy", Header: []string{"?x"}}})
	sameJobStatus(t, "failed", &JobStatus{ID: "job-000004", State: JobFailed, Error: "bad query: \"x\"\n<line 1>"})
}

// Every answer of the serve mix at BSBM scale 1 — with per-job metrics, as
// the benchmark asks for them — and a COUNT, an empty result, a truncated
// table and each async job's status encode exactly as encoding/json
// encodes them, so the bytes on the wire are the parent's.
func TestServeMixBodiesMatchEncodingJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve mix end to end")
	}
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{}, g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx := context.Background()
	type probe struct {
		label string
		req   Request
	}
	var probes []probe
	for _, id := range []string{"Q1a", "Q2a", "Q3a", "B5", "B0", "B1", "B2", "B7"} {
		cq, err := bench.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{id, Request{Query: cq.Src, NoCache: true, Metrics: true}})
	}
	b1, _ := bench.Lookup("B1")
	probes = append(probes,
		probe{"count", Request{Query: bsbmPrefix + `SELECT (COUNT(*) AS ?n) WHERE { ?prod bsbm:label ?l . ?prod bsbm:producer ?pr . }`, Metrics: true}},
		probe{"empty", Request{Query: bsbmPrefix + `SELECT * WHERE { ?prod bsbm:label ?l . ?prod bsbm:producer bsbm:noSuchProducer . }`}},
		probe{"B1 limit 3", Request{Query: b1.Src, NoCache: true, Limit: 3, Timeline: true, Tenant: "t1"}},
	)
	for _, p := range probes {
		resp, err := s.evaluateTable(ctx, p.req)
		if err != nil {
			t.Fatalf("%s: %v", p.label, err)
		}
		if p.label == "B1 limit 3" && (len(resp.Cells) != 3*len(resp.Header) || resp.Timeline == "") {
			t.Fatalf("%s: %d cells, timeline %q; want 3 rows and a timeline", p.label, len(resp.Cells), resp.Timeline)
		}
		sameResponse(t, p.label, resp)
		id, err := s.Submit(p.req)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.WaitJob(ctx, id)
		if err != nil || st.State != JobDone {
			t.Fatalf("%s: job %+v, %v", p.label, st, err)
		}
		sameJobStatus(t, p.label+" job", &st)
	}
}

// FuzzResponseDecode feeds arbitrary bytes to the body decoder, as a /query
// body and as a /jobs/{id} body. Any input must give an error or a value,
// never a panic. A body the decoder accepts decodes to what encoding/json
// decodes from it and encodes back to the bytes encoding/json writes for
// that value. The decoder rejects only what encoding/json rejects, or null
// where no server writes one: a null body, null items in terms or cells.
// Rows rebuilt from an accepted table are its cells' terms joined by tabs.
// The input also goes to the string encoder as one term. The seed corpus
// under testdata/fuzz holds the bodies of badTables and well-formed ones.
func FuzzResponseDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, std Response
		err := (&decoder{b: body}).responseBody(&got)
		if checkAgainstStd(t, "response", body, err, json.Unmarshal(body, &std), &got, &std) {
			if enc, want := appendResponse(nil, &got), stdEncode(t, &got); !bytes.Equal(enc, want) {
				t.Errorf("%+v encodes as %q, encoding/json gives %q", got, enc, want)
			}
			checkRows(t, &got)
		}
		var gotSt, stdSt JobStatus
		err = (&decoder{b: body}).jobStatusBody(&gotSt)
		if checkAgainstStd(t, "job status", body, err, json.Unmarshal(body, &stdSt), &gotSt, &stdSt) {
			if enc, want := appendJobStatus(nil, &gotSt), stdEncode(t, &gotSt); !bytes.Equal(enc, want) {
				t.Errorf("%+v encodes as %q, encoding/json gives %q", gotSt, enc, want)
			}
			if gotSt.Response != nil {
				checkRows(t, gotSt.Response)
			}
		}
		term := []string{string(body)}
		if enc, want := append(appendStrings(nil, term), '\n'), stdEncode(t, term); !bytes.Equal(enc, want) {
			t.Errorf("term %q encodes as %q, encoding/json gives %q", body, enc, want)
		}
	})
}

// checkAgainstStd compares the codec's decode of in with encoding/json's
// and reports whether the codec accepted it.
func checkAgainstStd[T any](t *testing.T, what string, in []byte, err, stdErr error, got, std *T) bool {
	t.Helper()
	switch {
	case err == nil && stdErr != nil:
		t.Errorf("%s %q: accepted as %+v, encoding/json rejects it: %v", what, in, *got, stdErr)
	case err == nil && !reflect.DeepEqual(got, std):
		t.Errorf("%s %q: decoded %+v, encoding/json gives %+v", what, in, *got, *std)
	case err != nil && stdErr == nil && !bytes.Contains(in, []byte("null")):
		t.Errorf("%s %q: rejected (%v), encoding/json decodes %+v", what, in, err, *std)
	}
	return err == nil
}

// checkRows checks the rows rebuilt from an accepted table, if it is one a
// server could send.
func checkRows(t *testing.T, r *Response) {
	t.Helper()
	if r.unpackRows() != nil {
		return
	}
	if len(r.Cells) == 0 {
		if r.Rows != nil {
			t.Errorf("no cells, %d rows", len(r.Rows))
		}
		return
	}
	w := len(r.Header)
	if len(r.Rows)*w != len(r.Cells) {
		t.Fatalf("%d rows %d wide from %d cells", len(r.Rows), w, len(r.Cells))
	}
	row := make([]string, w)
	for i, got := range r.Rows {
		for j, cell := range r.Cells[i*w : (i+1)*w] {
			row[j] = r.Terms[cell]
		}
		if want := strings.Join(row, "\t"); got != want {
			t.Errorf("row %d = %q, want %q", i, got, want)
		}
	}
}

// rawServer answers every request with the given bytes after the status
// line, written straight to the connection, which it then closes.
func rawServer(t *testing.T, raw string) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" + raw)
		_ = buf.Flush()
	}))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// A Content-Length above the read limit is refused from the header alone:
// the client allocates nothing near the body's size.
func TestClientRefusesOversizedBody(t *testing.T) {
	c := rawServer(t, fmt.Sprintf("Content-Length: %d\r\n\r\n{", maxBodyBytes+1))
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, qerr := c.Query(ctx, Request{Query: "q"})
	_, jerr := c.Job(ctx, "job-000001")
	runtime.ReadMemStats(&after)
	for _, err := range []error{qerr, jerr} {
		if err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("error = %v, want the body refused for its size", err)
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxBodyBytes/4 {
		t.Errorf("refusing two oversized bodies allocated %d bytes", grew)
	}
}

// A body cut short of its Content-Length or its last chunk, or followed by
// anything but whitespace, is an error, never a panic or a partial answer.
func TestClientRejectsShortOrTrailingBody(t *testing.T) {
	const value = `{"engine":"NTGA-Lazy","header":["?x"],"terms":["<a>"],"cells":[0],"total_rows":1}`
	job := `{"id":"job-000001","state":"done","response":` + value + `}`
	chunked := func(body string) string {
		return fmt.Sprintf("Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	}
	for _, tc := range []struct{ name, query, job string }{
		{"shorter than its Content-Length",
			fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(value)+10, value),
			fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(job)+10, job)},
		{"cut inside a chunk",
			fmt.Sprintf("Transfer-Encoding: chunked\r\n\r\n%x\r\n%s", len(value)+10, value),
			fmt.Sprintf("Transfer-Encoding: chunked\r\n\r\n%x\r\n%s", len(job)+10, job)},
		{"bytes after the value",
			fmt.Sprintf("Content-Length: %d\r\n\r\n%s x", len(value)+2, value),
			fmt.Sprintf("Content-Length: %d\r\n\r\n%s}", len(job)+1, job)},
		{"bytes after the value, chunked", chunked(value + "\n{}"), chunked(job + " 0")},
	} {
		ctx := context.Background()
		if resp, err := rawServer(t, tc.query).Query(ctx, Request{Query: "q"}); err == nil {
			t.Errorf("%s: Client.Query accepted it: %+v", tc.name, resp)
		}
		if st, err := rawServer(t, tc.job).Job(ctx, "job-000001"); err == nil {
			t.Errorf("%s: Client.Job accepted it: %+v", tc.name, st)
		}
	}
	// The same bodies, whole and followed only by whitespace, are answers.
	for _, raw := range []string{fmt.Sprintf("Content-Length: %d\r\n\r\n%s \r\n", len(value)+3, value), chunked(value + "\n\t")} {
		if resp, err := rawServer(t, raw).Query(context.Background(), Request{Query: "q"}); err != nil || len(resp.Rows) != 1 || resp.Rows[0] != "<a>" {
			t.Errorf("Client.Query = %+v, %v; want one row <a>", resp, err)
		}
	}
}

// BenchmarkResponseCodec encodes and decodes the body of one uncached B1
// /query at BSBM scale 1 (5,252 rows, 985 terms).
func BenchmarkResponseCodec(b *testing.B) {
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	cq, err := bench.Lookup("B1")
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{}, g)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	resp, err := s.evaluateTable(context.Background(), Request{Query: cq.Src, Metrics: true})
	if err != nil {
		b.Fatal(err)
	}
	body := appendResponse(nil, resp)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		buf := make([]byte, 0, len(body))
		for i := 0; i < b.N; i++ {
			buf = appendResponse(buf[:0], resp)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		d := &decoder{}
		for i := 0; i < b.N; i++ {
			var r Response
			d.b, d.i = body, 0
			if err := d.responseBody(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
