package cluster

import (
	"context"
	"errors"
	"fmt"
)

// ErrMasterLost marks a front-end call that could not reach the master (or
// lost it mid-call): the cluster substrate is unavailable, not the query
// wrong.
var ErrMasterLost = errors.New("cluster: master lost")

// Client submits queries to a master over its Run RPC. A deployment's own
// front end is ntga-serve -workers, which hosts the master and calls
// Master.Execute in-process; Client is for in-process harnesses that drive
// the RPC directly. The underlying connection re-dials lazily, so a client
// outlives master restarts and healed partitions.
type Client struct {
	rc *rclient
}

// Dial connects to the master at addr (nil transport defaults to TCP).
// Dialing is verified eagerly so a bad address fails here, but the returned
// client re-dials on demand after any later connection loss.
func Dial(tr Transport, addr string) (*Client, error) {
	if tr == nil {
		tr = TCP()
	}
	rc := newRClient(tr, addr, RetryPolicy{}, nil)
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

// Close tears down the connection.
func (c *Client) Close() { c.rc.Close() }
