// Package cluster is the distributed execution substrate behind
// mapreduce.EngineConfig.Runner: a coordinator (Master) that owns the DFS and
// leases map/reduce task attempts to network-registered Workers over
// net/rpc + gob, with heartbeat-based liveness, lease deadlines, and
// re-execution of work (including committed map output) lost to dead
// workers.
//
// The master runs inside its one front end, ntga-serve -workers: the server
// plans, caches, ingests and compacts over the master's warehouse and runs
// every query through Master.Execute. The RPC surface is the worker
// protocol (Register, Heartbeat, Sync, Lease, Report, ReadRange) plus Run,
// which in-process harnesses drive through Client.
//
// Jobs cross the wire as (query, engine, join order) specs, not closures:
// every worker deterministically rebuilds the same physical plan from the
// query text and the master-shipped dictionary, so a TaskSpec only needs to
// say *which* job of the plan and *which* slice of the input to run.
// Intermediate file names differ between processes (they come from a
// process-global counter), so specs carry the master's input names and
// workers translate them positionally into their own rebuilt plan.
package cluster

import (
	"time"

	"ntga/internal/engines"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/rdf"
)

// QuerySpec is everything a worker needs to rebuild one query's physical
// plan bit-for-bit: the SPARQL text, the master's front-door Choice
// (concrete engine, φ_m, join order), and the DFS name of the base triple
// relation.
type QuerySpec struct {
	Query  string
	Choice engines.Choice
	Input  string
	// Input, Deltas and PartDir/PartBuckets are the master's plan.Source.
	// PartDir/PartBuckets name its partitioned triple layout (PartBuckets
	// 0 = none, or the request opted out). Workers rebuild the same
	// Partitioning — the bucket-file names are deterministic under the dir
	// — and plan through the same engine.Plan, so whether the layout is
	// used (not beside an uncompacted chain) is decided identically.
	PartDir     string
	PartBuckets int
	// Deltas is the uncompacted delta chain the master overlays on the base
	// relation (engine.Plan). Delta-block names are
	// process-independent (they come from the manifest sequence, not a
	// process counter), so workers widen their rebuilt scans identically and
	// the positional JobInputs translation stays aligned.
	Deltas []string
	// DictLen is the master's dictionary size when the query was admitted: a
	// worker whose dictionary is shorter must sync the newly ingested terms
	// (Master.Sync) before rebuilding the plan, or the compile would miss
	// terms the delta blocks reference.
	DictLen int
}

// MapLoc tells a reduce task where one map task's committed output lives.
type MapLoc struct {
	Task   int
	Worker int
	Addr   string
}

// TaskSpec is one leased task attempt.
type TaskSpec struct {
	QueryID string
	Spec    QuerySpec
	// JobID is the master's execution-scoped job instance ID; JobName is
	// the plan job's deterministic name the worker resolves against its
	// rebuilt plan.
	JobID   int64
	JobName string
	// Kind is "map", "maponly", or "reduce". Map-kind worker slots run
	// both "map" and "maponly" specs.
	Kind    string
	Task    int
	Attempt int
	// NumReducers is the resolved reduce partition count (map tasks
	// partition their output by it).
	NumReducers int
	// JobInputs are the master-side job input names, positionally aligned
	// with the worker's rebuilt job.Inputs — the name-translation table.
	JobInputs []string
	// Split is the map input range (map/maponly kinds), named by the
	// master-side DFS file.
	Split mapreduce.Split
	// SideInput is the master-side DFS file whose full contents the task
	// loads before its scan (whole-file map-only kinds; "" = none).
	SideInput string
	// Partition is the reduce partition index (reduce kind).
	Partition int
	// Maps locates every map task's committed output (reduce kind).
	Maps []MapLoc
}

// RegisterArgs announces a worker: the address its Fetch service listens on
// and how many concurrent tasks of each kind it runs. PrevWorker non-zero
// marks a *re*-registration after sustained master loss: a master that
// still remembers the ID from its own boot (PrevEpoch is its Epoch) revives
// the existing worker record (same ID, no double-counted slots); any other
// master — one that restarted — assigns a fresh ID. Either way the worker
// keeps its committed map segments servable, and its transport counts fold
// in as a heartbeat's would, so a revived worker never reads alive without
// them.
type RegisterArgs struct {
	Addr        string
	MapSlots    int
	ReduceSlots int
	PrevWorker  int
	PrevEpoch   int64
	// KnownVersion is the dataset version the worker currently holds ("" on
	// first registration). The master accepts any version in its ingest
	// lineage — the worker's dictionary is a prefix of the master's, and a
	// Sync brings it forward — but refuses a version it has never served:
	// that worker's dictionary belongs to a genuinely different dataset.
	KnownVersion string
	TransportCounts
}

// RegisterReply assigns the worker its ID and ships the dataset dictionary
// in ID order, so re-encoding the terms in order reproduces the master's
// IDs exactly. Epoch names the master's boot: a restarted master numbers
// its workers from 1 again, so every later call names the worker by ID and
// epoch, and a call from another boot's ID is answered "unknown worker".
type RegisterReply struct {
	Worker         int
	Epoch          int64
	Terms          []rdf.Term
	DatasetVersion string
	Input          string
	HeartbeatEvery time.Duration
	LeaseEvery     time.Duration
}

// TransportCounts are a worker's cumulative transport-recovery totals:
// master-link retries, re-dials across master and peer links, and transient
// shuffle-fetch retries. The master max-merges them per worker — they only
// grow, and heartbeats can race registrations — and sums them into
// StatusReply.
type TransportCounts struct {
	RPCRetries   int64
	Redials      int64
	FetchRetries int64
}

// HeartbeatArgs is a worker liveness ping with its transport counts and
// the attempts it holds. The master reclaims a lease of the worker that
// Held does not name, if it was granted before the worker's previous
// heartbeat.
type HeartbeatArgs struct {
	Worker int
	Epoch  int64
	TransportCounts
	Held []HeldAttempt
}

// HeldAttempt names one task attempt a worker holds: from the moment its
// lease reply arrives until its Report call returns.
type HeldAttempt struct {
	JobID   int64
	Kind    string
	Task    int
	Attempt int
}

// HeartbeatReply carries the IDs of queries still in flight, so workers can
// drop cached plans and map outputs of settled queries, plus the master's
// current dataset version so the fleet tracks ingest-driven movement
// between queries.
type HeartbeatReply struct {
	LiveQueries    []string
	DatasetVersion string
}

// SyncArgs asks the master for dictionary terms from index Have onward —
// the incremental counterpart of RegisterReply.Terms after ingests minted
// new terms.
type SyncArgs struct {
	Have int
}

// SyncReply carries the master's terms from index From in ID order (From
// echoes the Have the reply was computed against, so a worker that raced
// another sync can skip the prefix it already applied) and the current
// dataset version.
type SyncReply struct {
	Terms          []rdf.Term
	From           int
	DatasetVersion string
}

// LeaseArgs asks for one task of the given kind ("map" or "reduce").
type LeaseArgs struct {
	Worker int
	Epoch  int64
	Kind   string
}

// LeaseReply holds the granted task, or nil when nothing is pending.
type LeaseReply struct {
	Task *TaskSpec
}

// ReportArgs is a task attempt's outcome. Map results stay on the worker
// (only counts travel); reduce and map-only results ship their collected
// output records for the master to commit.
type ReportArgs struct {
	Worker  int
	Epoch   int64 // the master boot that granted the lease
	QueryID string
	JobID   int64
	Kind    string
	Task    int
	Attempt int

	OK  bool
	Err string
	// LostMaps lists map tasks whose output could not be fetched; the
	// master re-queues them (and this reduce) — the "map output lost,
	// re-running map task" path.
	LostMaps []int

	// Outputs are the task's collected records per output base (reduce and
	// maponly kinds), ordered like Job.OutputBases.
	Outputs []Records
	Groups  int64
	Records int64
	Bytes   int64
	// InPairs/InBytes count a reduce task's merged shuffle input (skew
	// accounting).
	InPairs int64
	InBytes int64

	Duration time.Duration
	// Counters are the attempt's own (mapreduce.Counters).
	Counters mapreduce.Counters
}

// ReportReply is empty; acknowledgement is the RPC return itself.
type ReportReply struct{}

// ReadRangeArgs asks the master for a record range of a DFS file (a map
// task reading its split through the coordinator's DFS).
type ReadRangeArgs struct {
	Name string
	Off  int
	N    int
}

// ReadRangeReply carries the records as the DFS frames them. gob names the
// field's type by its unqualified name, so the reply is byte-identical to
// one carrying the same records as a Records list.
type ReadRangeReply struct {
	Records hdfs.Records
}

// FetchArgs asks a worker for one map task's committed output segment for
// one reduce partition.
type FetchArgs struct {
	QueryID   string
	JobID     int64
	Task      int
	Partition int
}

// FetchReply carries the (key, value)-sorted, combiner-folded segment.
type FetchReply struct {
	KVs KVs
}

// RunArgs submits a query to the master. Engine "" selects "ntga-lazy";
// "auto" asks the master's catalog advisor. The compiled join order runs
// unchanged: the master never searches. Reducers/SplitRecords of 0 select
// the master's defaults.
type RunArgs struct {
	Query        string
	Engine       string
	PhiM         int
	Reducers     int
	SplitRecords int
	TimeoutMS    int64
	// NoPartition forces the flat plan even when the master holds a
	// partitioned layout (parity baselines, A/B measurement).
	NoPartition bool
}

// RunReply is a completed query: the raw binding rows (for callers holding
// the master's dictionary) and the master-rendered header and rows (for
// callers without one), plus the workflow metrics a local run would report.
// The rendered rows travel as a term table, every distinct term once and
// one index per projected cell (Table); Client.Run rebuilds RowsText from
// it. The master leaves RowsText empty, so it does not travel.
type RunReply struct {
	Engine    string
	IsCount   bool
	Count     int64
	Rows      Rows
	Header    []string
	Table     Table
	RowsText  Texts
	TotalRows int

	Counters      map[string]int64
	OutputRecords int64
	OutputBytes   int64
	PeakDFSUsed   int64
	Workflow      mapreduce.WorkflowMetrics
}

// WorkerStatus is one worker's row in the master's status report.
type WorkerStatus struct {
	ID              int    `json:"id"`
	Addr            string `json:"addr"`
	Alive           bool   `json:"alive"`
	MapSlots        int    `json:"map_slots"`
	ReduceSlots     int    `json:"reduce_slots"`
	MapBusy         int    `json:"map_busy"`
	ReduceBusy      int    `json:"reduce_busy"`
	LastHeartbeatMS int64  `json:"last_heartbeat_ms"`
	TasksDone       int64  `json:"tasks_done"`
	TasksFailed     int64  `json:"tasks_failed"`
}

// StatusReply is the master's cluster snapshot (Master.Status; a hosting
// ntga-serve shows it in /metrics). The four transport-recovery counters
// aggregate what the fleet's retrying RPC layer absorbed:
// RPCRetries/Redials/FetchTransientRetries sum the workers' shipped
// TransportCounts, WorkerReregistrations counts re-registrations this
// master has accepted (returning workers after a healed partition, or a
// fleet re-joining a restarted master).
type StatusReply struct {
	Triples         int64
	DatasetVersion  string
	Workers         []WorkerStatus
	WorkersLost     int64
	ActiveQueries   int
	TasksDispatched int64

	RPCRetries            int64
	Redials               int64
	FetchTransientRetries int64
	WorkerReregistrations int64

	// AffineLeases counts bucket-affine task grants: whole-file map-only
	// tasks leased to the worker that already processed the same bucket
	// earlier in the query (warm-path scheduling over the layout).
	AffineLeases int64

	// LeasesExpired counts leases ended by their deadline (LeaseTimeout);
	// LeasesReclaimed counts leases a heartbeat ended because the worker no
	// longer held them (a grant or a report lost on the wire).
	LeasesExpired   int64
	LeasesReclaimed int64
}
