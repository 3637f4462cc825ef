package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"ntga/internal/ingest"
)

// Client is the HTTP client for a running ntga-serve daemon; ntga-run's
// -server mode and the smoke tests go through it.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7457".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient normalizes addr ("host:port" or a full URL) into a client.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{BaseURL: strings.TrimRight(addr, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Query evaluates a request synchronously on the server and rebuilds the
// answer's Rows from its term table.
func (c *Client) Query(ctx context.Context, req Request) (*Response, error) {
	var resp Response
	if err := c.post(ctx, "/query", req, func(d *decoder) error { return d.responseBody(&resp) }); err != nil {
		return nil, err
	}
	if err := resp.unpackRows(); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Submit starts an async query and returns its job ID.
func (c *Client) Submit(ctx context.Context, req Request) (string, error) {
	var out struct {
		JobID string `json:"job_id"`
	}
	if err := c.post(ctx, "/query?async=1", req, jsonBody(&out)); err != nil {
		return "", err
	}
	return out.JobID, nil
}

// Job polls an async job; a finished job's Rows are rebuilt from its term
// table.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.get(ctx, "/jobs/"+id, func(d *decoder) error { return d.jobStatusBody(&st) }); err != nil {
		return nil, err
	}
	if st.Response != nil {
		if err := st.Response.unpackRows(); err != nil {
			return nil, err
		}
	}
	return &st, nil
}

// Metrics fetches the service metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	var m Metrics
	if err := c.get(ctx, "/metrics", jsonBody(&m)); err != nil {
		return nil, err
	}
	return &m, nil
}

// Ingest posts a raw N-Triples batch to /ingest.
func (c *Client) Ingest(ctx context.Context, batch io.Reader) (*IngestResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/ingest", batch)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/n-triples")
	var res IngestResult
	if err := c.do(req, jsonBody(&res)); err != nil {
		return nil, err
	}
	return &res, nil
}

// Compact asks the server to fold its delta chain into a new base
// generation.
func (c *Client) Compact(ctx context.Context) (*ingest.CompactResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/compact", nil)
	if err != nil {
		return nil, err
	}
	var res ingest.CompactResult
	if err := c.do(req, jsonBody(&res)); err != nil {
		return nil, err
	}
	return &res, nil
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.get(ctx, "/healthz", jsonBody(&h)); err != nil {
		return nil, err
	}
	if h.Status != "ok" {
		return &h, fmt.Errorf("server unhealthy: status=%q", h.Status)
	}
	return &h, nil
}

func (c *Client) post(ctx context.Context, path string, body any, decode func(*decoder) error) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, decode)
}

func (c *Client) get(ctx context.Context, path string, decode func(*decoder) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, decode)
}

// jsonBody decodes a body into v with encoding/json.
func jsonBody(v any) func(*decoder) error {
	return func(d *decoder) error { return json.Unmarshal(d.b, v) }
}

// do sends req and decodes a success body, read whole (readBody), with
// decode. The body is drained before it is closed: a connection whose body
// was not read to EOF is not reused by HTTP keep-alive. An error body is
// read whole, so its message and typed error survive the round trip.
func (c *Client) do(req *http.Request, decode func(*decoder) error) error {
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if err != nil {
			return err
		}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			// Rebuild the typed error the status stands for, so errors.Is
			// round-trips through the wire (ErrOverloaded, ErrBadQuery, …).
			return errorForStatus(resp.StatusCode, e.Error)
		}
		return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	d, err := readBody(resp)
	if err != nil {
		return err
	}
	err = decode(d)
	decoders.Put(d)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
