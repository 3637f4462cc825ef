package cluster_test

import (
	"context"
	"slices"
	"testing"

	"ntga/internal/bench"
	"ntga/internal/cluster"
	"ntga/internal/enginetest"
	"ntga/internal/trace"
)

// tableProbes are the bsbm queries beside the catalog that the term table
// must carry: DISTINCT rows, a COUNT (a header and no rows), and rows with
// no column at all, each of which renders as "".
var tableProbes = []string{
	bsbmPrefix + `SELECT DISTINCT ?p WHERE { ?s ?p ?o . ?s bsbm:producer ?pr . }`,
	bsbmPrefix + `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . ?s bsbm:producer ?pr . }`,
	bsbmPrefix + `SELECT * WHERE { bsbm:Producer0 bsbm:label "producer 0" . }`,
	bsbmPrefix + `SELECT DISTINCT * WHERE { bsbm:Producer0 bsbm:label "producer 0" . }`,
}

const bsbmPrefix = "PREFIX bsbm: <http://bsbm.example.org/>\n"

// TestRunReplyTableIsRender: for every catalog query, and the probes, over
// a loopback cluster, the rows Client.Run rebuilds from the reply's term
// table are byte for byte the rows query.Render renders from the reply's
// binding rows with the master's dictionary, under the same header; and the
// master renders each table inside a render span.
func TestRunReplyTableIsRender(t *testing.T) {
	ctx := context.Background()
	byDataset := make(map[string][]string)
	for _, cq := range bench.Catalog() {
		byDataset[cq.Dataset] = append(byDataset[cq.Dataset], cq.Src)
	}
	byDataset["bsbm"] = append(byDataset["bsbm"], tableProbes...)
	for ds, srcs := range byDataset {
		t.Run(ds, func(t *testing.T) {
			g, err := bench.Dataset(ds, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New()
			tc := startTestCluster(t, g, 3, cluster.WorkerConfig{MapSlots: 2, ReduceSlots: 2}, cluster.MasterConfig{Reducers: parityReducers, SplitRecords: paritySplit, Tracer: tr})
			var bindings []int64
			for _, src := range srcs {
				q := enginetest.Compile(t, g, src)
				reply, err := tc.client.Run(ctx, &cluster.RunArgs{Query: src, TimeoutMS: 120_000})
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				header, text := q.Render(reply.Rows)
				if !slices.Equal(reply.Header, header) || !slices.Equal(reply.RowsText, text) || reply.TotalRows != len(text) {
					t.Errorf("%s: header %q, %d rows (TotalRows %d); Render gives %q, %d rows", src, reply.Header, len(reply.RowsText), reply.TotalRows, header, len(text))
				}
				bindings = append(bindings, int64(len(reply.Rows)))
			}
			// Each Run renders its table inside a render span of its own.
			var rendered []int64
			for _, root := range tr.Roots() {
				if root.Kind == trace.KindRender {
					rendered = append(rendered, root.Records)
				}
			}
			if !slices.Equal(rendered, bindings) {
				t.Errorf("render spans over %v binding rows; the runs returned %v", rendered, bindings)
			}
		})
	}
}
