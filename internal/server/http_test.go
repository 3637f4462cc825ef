package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

func newHTTPServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

func TestHTTPQueryRoundTrip(t *testing.T) {
	_, c := newHTTPServer(t, Config{})
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Triples == 0 || h.DatasetVersion == "" {
		t.Fatalf("health = %+v", h)
	}

	first, err := c.Query(ctx, Request{Query: twoStarQuery, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" || first.TotalRows == 0 || first.Cycles == 0 {
		t.Fatalf("first = cache=%s rows=%d cycles=%d", first.Cache, first.TotalRows, first.Cycles)
	}
	if len(first.Jobs) != first.Cycles {
		t.Errorf("metrics jobs = %d, want one per cycle (%d)", len(first.Jobs), first.Cycles)
	}

	second, err := c.Query(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" || second.Cycles != 0 {
		t.Fatalf("second = cache=%s cycles=%d, want hit/0", second.Cache, second.Cycles)
	}
	if strings.Join(second.Rows, "\n") != strings.Join(first.Rows, "\n") {
		t.Error("cached rows differ over HTTP")
	}

	withTimeline, err := c.Query(ctx, Request{Query: twoStarQuery, NoCache: true, Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(withTimeline.Timeline, "timeline") {
		t.Errorf("timeline missing from response: %q", withTimeline.Timeline)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 3 || m.ResultCache.Hits != 1 || m.Slots["map"].Capacity == 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestHTTPAsyncJob(t *testing.T) {
	_, c := newHTTPServer(t, Config{})
	ctx := context.Background()
	id, err := c.Submit(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobRunning {
			if st.State != JobDone || st.Response == nil || st.Response.TotalRows == 0 {
				t.Fatalf("job = %+v, want done with rows", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(`{"query": "SELECT WHERE {"}`); code != http.StatusBadRequest {
		t.Errorf("syntax error → %d, want 400", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Errorf("bad body → %d, want 400", code)
	}

	// Oversize bodies are refused at the cap, typed on both sides of the wire.
	if code := post(`{"query": "` + strings.Repeat(" ", maxQueryBodyBytes) + `"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize query body → %d, want 413", code)
	}
	if _, err := c.Ingest(ctx, io.LimitReader(spaces{}, maxIngestBodyBytes+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize ingest batch err = %v, want ErrTooLarge", err)
	}

	// Fill the admission window, then both sync and async must 429.
	r1, err := s.admit()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.admit()
	if err != nil {
		t.Fatal(err)
	}
	if code := post(`{"query": "SELECT * WHERE { ?s ?p ?o . }"}`); code != http.StatusTooManyRequests {
		t.Errorf("overload → %d, want 429", code)
	}
	if _, err := c.Submit(ctx, Request{Query: twoStarQuery}); err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("async overload err = %v, want HTTP 429", err)
	}
	r1()
	r2()

	// Deadline exceeded → 504.
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query": "PREFIX ex: <http://ex/> SELECT * WHERE { ?g ex:label ?gl . ?g ex:xGO ?go . ?go ex:label ?gol . ?go ex:type ?t . }", "no_cache": true, "timeout_ms": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK {
		t.Errorf("deadline → %d, want 504 (or 200 if the run won the race)", resp.StatusCode)
	}

	// Unknown job → 404.
	jr, err := http.Get(ts.URL + "/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job → %d, want 404", jr.StatusCode)
	}

	// Wrong method → 405 from the method-aware mux.
	gr, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query → %d, want 405", gr.StatusCode)
	}
}

// spaces is an endless stream of blanks.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestClientAddrNormalization(t *testing.T) {
	if c := NewClient("127.0.0.1:7457"); c.BaseURL != "http://127.0.0.1:7457" {
		t.Errorf("BaseURL = %q", c.BaseURL)
	}
	if c := NewClient("https://svc.example/"); c.BaseURL != "https://svc.example" {
		t.Errorf("BaseURL = %q", c.BaseURL)
	}
}

// TestHTTPQueryBodyIsOneValue: a /query body is exactly one JSON object.
// Trailing whitespace is allowed and answers as the bare object does;
// anything else after the object — garbage, or a second request — is a bad
// request, and an oversized body is still refused at the cap.
func TestHTTPQueryBodyIsOneValue(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(body string) (int, Response) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r Response
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, r
	}
	q, err := json.Marshal(Request{Query: twoStarQuery, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	req := string(q)
	code, want := post(req)
	if code != http.StatusOK || want.TotalRows == 0 {
		t.Fatalf("bare request → %d with %d rows, want 200 with rows", code, want.TotalRows)
	}
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"trailing garbage", req + " trailing garbage", http.StatusBadRequest},
		{"second request", req + `{"query":"SELECT * WHERE { ?s ?p ?o . }"}`, http.StatusBadRequest},
		{"second request after newline", req + "\n" + req, http.StatusBadRequest},
		{"trailing newline", req + "\n", http.StatusOK},
		{"trailing spaces", req + "  \t\r\n  ", http.StatusOK},
		{"oversized", `{"query": "` + strings.Repeat(" ", maxQueryBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		code, got := post(tc.body)
		if code != tc.code {
			t.Errorf("%s → %d, want %d", tc.name, code, tc.code)
			continue
		}
		if code == http.StatusOK && (got.TotalRows != want.TotalRows || !slices.Equal(got.Header, want.Header) ||
			!slices.Equal(got.Terms, want.Terms) || !slices.Equal(got.Cells, want.Cells)) {
			t.Errorf("%s answered %d rows, the bare request %d (or the tables differ)", tc.name, got.TotalRows, want.TotalRows)
		}
	}
}
