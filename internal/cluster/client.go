package cluster

import (
	"context"
	"fmt"

	"ntga/internal/ingest"
	"ntga/internal/mapreduce"
)

// ErrMasterLost marks a front-end call that could not reach the master (or
// lost it mid-call): the cluster substrate is unavailable, not the query
// wrong. It wraps mapreduce.ErrClusterUnavailable so callers can match the
// whole family with errors.Is.
var ErrMasterLost = fmt.Errorf("cluster: master lost: %w", mapreduce.ErrClusterUnavailable)

// Client is a front-end connection to a master: query submission and
// cluster status, used by ntga-run -cluster. The
// underlying connection re-dials lazily, so a client outlives master
// restarts and healed partitions.
type Client struct {
	rc *rclient
}

// Dial connects to the master at addr (nil transport defaults to TCP).
// Dialing is verified eagerly so a bad address fails here, but the returned
// client re-dials on demand after any later connection loss.
func Dial(tr Transport, addr string) (*Client, error) {
	return DialRetry(tr, addr, RetryPolicy{})
}

// DialRetry is Dial with an explicit retry policy for Status (and the
// re-dial backoff of all calls).
func DialRetry(tr Transport, addr string, pol RetryPolicy) (*Client, error) {
	if tr == nil {
		tr = TCP()
	}
	rc := newRClient(tr, addr, pol, nil)
	if _, err := rc.conn(); err != nil {
		return nil, err
	}
	return &Client{rc: rc}, nil
}

// Stats reports the transport-recovery counters this client has absorbed:
// retried calls and re-dials after connection loss.
func (c *Client) Stats() (retries, redials int64) { return c.rc.Stats() }

// Run submits a query and waits for the result. Submission is never
// replayed blindly — a query is not idempotent from out here (the master
// would run it twice) — so a broken wire before or during the call maps to
// ErrMasterLost and the caller decides. A cancelled context abandons the wait
// client-side; the master also enforces args.TimeoutMS on its own clock, so
// pass the deadline there to stop the actual work.
func (c *Client) Run(ctx context.Context, args *RunArgs) (*RunReply, error) {
	reply := new(RunReply)
	if err := c.rc.CallNoRetry(ctx, "Master.Run", args, reply); err != nil {
		if isTransportErr(err) {
			return nil, fmt.Errorf("%w: %v", ErrMasterLost, err)
		}
		return nil, err
	}
	return reply, nil
}

// Ingest submits one raw N-Triples batch to the master's versioned dataset
// store. Like Run, the call is never replayed blindly — appending a batch is
// not idempotent (a replay would double-ingest it) — so a broken wire maps
// to ErrMasterLost and the caller decides whether the batch landed (compare
// dataset versions via Status).
func (c *Client) Ingest(ctx context.Context, batch []byte) (*IngestReply, error) {
	reply := new(IngestReply)
	if err := c.rc.CallNoRetry(ctx, "Master.Ingest", &IngestArgs{Batch: batch}, reply); err != nil {
		if isTransportErr(err) {
			return nil, fmt.Errorf("%w: %v", ErrMasterLost, err)
		}
		return nil, err
	}
	return reply, nil
}

// Compact asks the master to fold its delta chain into a new base
// generation. Not retried for the same reason as Ingest: a replay would
// race the compaction it already triggered.
func (c *Client) Compact(ctx context.Context) (*ingest.CompactResult, error) {
	reply := new(CompactReply)
	if err := c.rc.CallNoRetry(ctx, "Master.Compact", &CompactArgs{}, reply); err != nil {
		if isTransportErr(err) {
			return nil, fmt.Errorf("%w: %v", ErrMasterLost, err)
		}
		return nil, err
	}
	return &reply.Result, nil
}

// Status fetches the master's cluster snapshot, retrying transient
// transport failures (status is idempotent). Exhausted retries map to
// ErrMasterLost.
func (c *Client) Status(ctx context.Context) (*StatusReply, error) {
	reply := new(StatusReply)
	if err := c.rc.Call(ctx, "Master.Status", &StatusArgs{}, reply); err != nil {
		if isTransportErr(err) {
			return nil, fmt.Errorf("%w: %v", ErrMasterLost, err)
		}
		return nil, err
	}
	return reply, nil
}

// Close tears down the connection.
func (c *Client) Close() { c.rc.Close() }
