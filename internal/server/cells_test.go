package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ntga/internal/bench"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// Every path that answers a query — Client.Query over HTTP, an async job
// polled with Client.Job, and the in-process Evaluate — gives the same
// header, rows and row count for the serve mix's catalog queries over BSBM
// scale 1, whole, under Limit 1 and under a limit above the row count, and
// for a COUNT, an empty result and rows with no column. A truncated response ships exactly the
// prefix of the terms its cells name.
func TestTableParity(t *testing.T) {
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
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	ctx := context.Background()

	job := func(req Request) *Response {
		t.Helper()
		id, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
			st, err := c.Job(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == JobDone {
				return st.Response
			}
			if st.State != JobRunning || time.Now().After(deadline) {
				t.Fatalf("job %s: %+v", id, st)
			}
		}
	}
	same := func(label string, want, got *Response) {
		t.Helper()
		if !slices.Equal(got.Header, want.Header) || !slices.Equal(got.Rows, want.Rows) || got.TotalRows != want.TotalRows {
			t.Errorf("%s: header %q, %d rows of %d; Evaluate gives %q, %d rows of %d",
				label, got.Header, len(got.Rows), got.TotalRows, want.Header, len(want.Rows), want.TotalRows)
		}
	}

	type probe struct{ id, src string }
	var probes []probe
	for _, id := range []string{"Q1a", "Q2a", "Q3a", "B5", "B0", "B1", "B2", "B7"} {
		cq, err := bench.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{id, cq.Src})
	}
	probes = append(probes,
		probe{"count", bsbmPrefix + `SELECT (COUNT(*) AS ?n) WHERE { ?prod bsbm:label ?l . ?prod bsbm:producer ?pr . }`},
		probe{"empty", bsbmPrefix + `SELECT * WHERE { ?prod bsbm:label ?l . ?prod bsbm:producer bsbm:noSuchProducer . }`},
		// No variable, so rows with no column: one "" row, as ntga-run
		// prints it, whether or not the query asks for DISTINCT.
		probe{"zero-width", bsbmPrefix + `SELECT * WHERE { bsbm:Producer0 bsbm:label "producer 0" . }`},
		probe{"zero-width distinct", bsbmPrefix + `SELECT DISTINCT * WHERE { bsbm:Producer0 bsbm:label "producer 0" . bsbm:Producer0 bsbm:country bsbm:Country0 . }`},
	)
	for _, p := range probes {
		want, err := s.Evaluate(ctx, Request{Query: p.src, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		switch p.id {
		case "count":
			if !want.IsCount || want.Count == 0 || want.Rows != nil || want.Cells != nil {
				t.Fatalf("count: %+v, want a non-zero count and no rows", want)
			}
		case "empty":
			if want.TotalRows != 0 || want.Rows != nil || len(want.Header) == 0 {
				t.Fatalf("empty: %+v, want a header and no rows", want)
			}
		case "zero-width", "zero-width distinct":
			if want.TotalRows != 1 || !slices.Equal(want.Rows, []string{""}) || len(want.Header) != 0 {
				t.Fatalf("%s: header %q, rows %q of %d; want one \"\" row and no column", p.id, want.Header, want.Rows, want.TotalRows)
			}
		default:
			if want.TotalRows == 0 || len(want.Rows) != want.TotalRows {
				t.Fatalf("%s: %d rows of %d, want a whole non-empty answer", p.id, len(want.Rows), want.TotalRows)
			}
		}
		got, err := c.Query(ctx, Request{Query: p.src, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		same(p.id+" Client.Query", want, got)
		same(p.id+" Client.Job", want, job(Request{Query: p.src}))

		for _, limit := range []int{1, want.TotalRows + 1} {
			label := fmt.Sprintf("%s limit %d", p.id, limit)
			lwant := *want
			lwant.Rows = want.Rows[:min(limit, len(want.Rows))]
			if len(lwant.Rows) == 0 {
				lwant.Rows = nil
			}
			req := Request{Query: p.src, Limit: limit}
			ev, err := s.Evaluate(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			same(label+" Evaluate", &lwant, ev)
			cl, err := c.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			same(label+" Client.Query", &lwant, cl)
			same(label+" Client.Job", &lwant, job(req))

			used := 0
			for _, cell := range ev.Cells {
				used = max(used, int(cell)+1)
			}
			if !slices.Equal(ev.Terms, want.Terms[:used]) {
				t.Errorf("%s: %d terms shipped, want the %d-term prefix its cells name", label, len(ev.Terms), used)
			}
		}
	}
}

// TestEmptyRowsHonourLimit: an answer of three rows with no column (a
// query with no variable, three binding rows), rendered as the server
// renders it under each Limit, comes back from Evaluate's unpacking, from
// Client.Query and from Client.Job as the same min(Limit, 3) "" rows, with
// TotalRows 3. The MapReduce engines match a constant pattern once, so the
// answer is made here rather than by a query.
func TestEmptyRowsHonourLimit(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b"))
	q, err := query.Parse(`SELECT * WHERE { <http://ex/a> <http://ex/p> <http://ex/b> . }`, g.Dict)
	if err != nil {
		t.Fatal(err)
	}
	e := newResultEntry(q, "NTGA-Lazy", make([]query.Row, 3), false, 0, 3, 0)
	s := &Server{}
	var body []byte // the response the handler below sends
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/query" {
			_, _ = w.Write(body)
			return
		}
		_, _ = w.Write(appendJobStatus(nil, &JobStatus{ID: "job-000001", State: JobDone, Response: decodeResponse(t, body)}))
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	ctx := context.Background()

	for _, limit := range []int{0, 1, 2, 3, 4} {
		want := 3
		if limit > 0 {
			want = min(limit, 3)
		}
		ev := new(Response)
		s.renderRows(ev, e, limit)
		body = appendResponse(nil, ev)
		if err := ev.unpackRows(); err != nil {
			t.Fatal(err)
		}
		cl, err := c.Query(ctx, Request{Query: "q", Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Job(ctx, "job-000001")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			path string
			resp *Response
		}{{"Evaluate", ev}, {"Client.Query", cl}, {"Client.Job", st.Response}} {
			if len(r.resp.Header) != 0 || r.resp.TotalRows != 3 || len(r.resp.Rows) != want ||
				slices.ContainsFunc(r.resp.Rows, func(row string) bool { return row != "" }) {
				t.Errorf("limit %d, %s: header %q, rows %q of %d; want %d \"\" rows of 3",
					limit, r.path, r.resp.Header, r.resp.Rows, r.resp.TotalRows, want)
			}
		}
	}
}

// decodeResponse decodes a /query body.
func decodeResponse(t *testing.T, body []byte) *Response {
	t.Helper()
	var r Response
	if err := (&decoder{b: body}).responseBody(&r); err != nil {
		t.Fatal(err)
	}
	return &r
}

// bsbmPrefix is the prefix of the BSBM catalog queries.
const bsbmPrefix = "PREFIX bsbm: <http://bsbm.example.org/>\n"

// badTables are term tables no server sends, each as the JSON of its terms
// and of its cells plus the header width; testdata/fuzz/FuzzResponseDecode
// seeds the fuzz target with their bodies (tableBody).
var badTables = []struct {
	name         string
	terms, cells string
	width        int
}{
	{"malformed array", `["<a>"]`, `[0,,0]`, 1},
	{"unclosed array", `["<a>"]`, `[0,0`, 1},
	{"leading zero", `["<a>"]`, `[00]`, 1},
	{"above MaxUint32", `["<a>"]`, fmt.Sprintf("[%d]", uint64(math.MaxUint32)+1), 1},
	{"minus sign", `["<a>"]`, `[-0]`, 1},
	{"exponent", `["<a>"]`, `[0e0]`, 1},
	{"fraction", `["<a>"]`, `[0.0]`, 1},
	{"trailing bytes", `["<a>"]`, `[0]]`, 1},
	{"index past the terms", `["<a>","<b>"]`, `[0,2]`, 1},
	{"ragged rows", `["<a>"]`, `[0,0,0]`, 2},
	{"cells without a header", `["<a>"]`, `[0]`, 0},
	{"term not a string", `["<a>",7]`, `[0]`, 1},
	{"bad escape", `["\q"]`, `[0]`, 1},
}

// tableBody is a /query body carrying the given term table, width
// columns wide.
func tableBody(terms, cells string, width int) string {
	header := make([]string, width)
	for i := range header {
		header[i] = fmt.Sprintf(`"?v%d"`, i)
	}
	return fmt.Sprintf(`{"engine":"NTGA-Lazy","header":[%s],"terms":%s,"cells":%s,"total_rows":1}`,
		strings.Join(header, ","), terms, cells)
}

// Client.Query and Client.Job return an error, and never panic, for a term
// table no server could have sent.
func TestClientRejectsBadTable(t *testing.T) {
	for _, bt := range badTables {
		body := tableBody(bt.terms, bt.cells, bt.width)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			if r.URL.Path == "/query" {
				_, _ = io.WriteString(w, body)
				return
			}
			_, _ = io.WriteString(w, `{"id":"job-000001","state":"done","response":`+body+`}`)
		}))
		c := NewClient(ts.URL)
		if resp, err := c.Query(context.Background(), Request{Query: "q"}); err == nil {
			t.Errorf("%s: Client.Query accepted %s, rows %q", bt.name, body, resp.Rows)
		}
		if st, err := c.Job(context.Background(), "job-000001"); err == nil {
			t.Errorf("%s: Client.Job accepted %s, rows %q", bt.name, body, st.Response.Rows)
		}
		ts.Close()
	}
}

// A term table survives the wire: the rows the client rebuilds are the rows
// the server's table stands for, whatever the escapes in the terms.
func TestTableRoundTrip(t *testing.T) {
	terms := []string{`<http://ex/a>`, `"say \"hi\""`, "\"line\nfeed\ttab\"", `"é ☃ 𝄞"`, `_:b0`, `_`, ``, "\"\x01 </script>\""}
	resp := Response{Header: []string{"?x", "?y"}, Terms: terms, Cells: []uint32{0, 1, 2, 3, 4, 5, 6, 7, 7, 0}, TotalRows: 5}
	var got Response
	if err := (&decoder{b: appendResponse(nil, &resp)}).responseBody(&got); err != nil {
		t.Fatal(err)
	}
	if err := got.unpackRows(); err != nil {
		t.Fatal(err)
	}
	if err := resp.unpackRows(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Terms, resp.Terms) || !slices.Equal(got.Cells, resp.Cells) || !slices.Equal(got.Rows, resp.Rows) {
		t.Errorf("round trip gave terms %q cells %v rows %q; want %q %v %q",
			got.Terms, got.Cells, got.Rows, resp.Terms, resp.Cells, resp.Rows)
	}
	if want := "\"line\nfeed\ttab\"\t\"é ☃ 𝄞\""; got.Rows[1] != want {
		t.Errorf("row 1 = %q, want %q", got.Rows[1], want)
	}
}
