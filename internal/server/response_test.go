package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ntga/internal/bench"
)

// raceEnabled is set by race_test.go: allocation ceilings mean nothing under
// the race detector, whose instrumentation allocates.
var raceEnabled bool

// The client reads every /query body whole and must still leave every
// connection reusable: twenty sequential queries over keep-alive open
// exactly one connection. Every body here carries 8 KiB of whitespace after
// the JSON value — legal, and past the end of the value the decoder reads —
// half of them declared in a Content-Length, half sent chunked, so the
// client reads both kinds of body to EOF before it closes it; a connection
// whose body was not read to EOF is closed by the transport instead of
// pooled.
func TestClientReusesOneConnection(t *testing.T) {
	s := newTestServer(t, Config{})
	var opened, served atomic.Int64
	pad := bytes.Repeat([]byte(" "), 8<<10)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		body := append(rec.Body.Bytes(), pad...)
		if served.Add(1)%2 == 0 {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c := NewClient(ts.URL)
	c.HTTPClient = &http.Client{Transport: tr}

	ctx := context.Background()
	for i := 0; i < 20; i++ {
		resp, err := c.Query(ctx, Request{Query: twoStarQuery, NoCache: i%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		if resp.TotalRows == 0 || len(resp.Rows) != resp.TotalRows {
			t.Fatalf("query %d: %d rows of %d", i, len(resp.Rows), resp.TotalRows)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("20 sequential queries opened %d connections, want 1", n)
	}
}

// A /query body is compact JSON with HTML escaping off, sent with its
// Content-Length: IRIs keep their angle brackets, and no line is indented.
// The rows travel as a term table only: terms, then integer cells, and no
// "rows" key.
func TestQueryBodyIsCompact(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(Request{Query: twoStarQuery})
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	out := rec.Body.String()
	if rec.Code != http.StatusOK || !strings.Contains(out, `"terms":["<http://ex/`) || !strings.Contains(out, `"cells":[`) {
		t.Fatalf("HTTP %d, body %.200s", rec.Code, out)
	}
	if strings.Contains(out, `"rows"`) {
		t.Errorf("body still carries a rows key: %.200s", out)
	}
	if strings.Contains(out, `\u003c`) || strings.Count(out, "\n") != 1 {
		t.Errorf("body is not compact unescaped JSON: %.200s", out)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(out)) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, len(out))
	}
}

// b1Handler serves BSBM scale 1 and returns the handler with the body of an
// uncached B1 /query (5,252 rows of 5 cells, 985 distinct terms).
func b1Handler(t *testing.T) (http.Handler, []byte) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("runs B1 end to end")
	}
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := bench.Lookup("B1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{}, g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	body, _ := json.Marshal(Request{Query: cq.Src, NoCache: true})
	return s.Handler(), body
}

// TestQueryAllocationCeiling gates the server side of one uncached B1
// /query over BSBM scale 1: plan, run, render the term table and encode,
// ≈ 3,060 allocations and none per row or term (63,756 when every term was
// its own string, at commit 19832f0); the rest is planning and the MR jobs.
func TestQueryAllocationCeiling(t *testing.T) {
	h, body := b1Handler(t)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // warm the plan cache and the pools
	const ceiling = 3_400
	if n := testing.AllocsPerRun(5, serve); n > ceiling {
		t.Errorf("one uncached B1 /query: %.0f allocations, want ≤ %d", n, ceiling)
	}
}

// TestClientDecodeAllocationCeiling gates the client side of one B1 /query:
// Client.Query sending the request, reading the body whole into a pooled
// buffer, decoding it and rebuilding the rows. The terms decode into one
// string, the cells into one slice and the rows into one string, so the
// count is a fixed handful whatever the number of terms or rows: 10,650
// allocations when the body carried every row as a JSON string, ≈ 139 for
// the term table under encoding/json, ≈ 121 with the one-pass decoder.
func TestClientDecodeAllocationCeiling(t *testing.T) {
	h, req := b1Handler(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(req)))
	body := rec.Body.Bytes()
	var table Response
	if err := json.Unmarshal(body, &table); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c := NewClient(ts.URL)
	c.HTTPClient = &http.Client{Transport: tr}
	query := func() {
		resp, err := c.Query(context.Background(), Request{Query: "B1"})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != table.TotalRows {
			t.Fatalf("%d rows, want %d", len(resp.Rows), table.TotalRows)
		}
	}
	query() // open the connection
	const ceiling = 200
	if n := testing.AllocsPerRun(5, query); n > ceiling {
		t.Errorf("Client.Query of one B1 body: %.0f allocations, want ≤ %d (%d terms, %d rows)",
			n, ceiling, len(table.Terms), table.TotalRows)
	}
}
