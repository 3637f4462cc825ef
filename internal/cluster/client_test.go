package cluster_test

import (
	"context"
	"errors"
	"testing"

	"ntga/internal/cluster"
	"ntga/internal/rdf"
)

// TestClientRunMasterLost: a query submitted after the master has gone
// fails with ErrMasterLost, so a caller can tell a lost master from a
// failed query.
func TestClientRunMasterLost(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/o"))
	m, err := cluster.NewMaster(cluster.MasterConfig{}, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Dial(nil, m.Addr())
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	defer c.Close()
	m.Close()

	_, err = c.Run(context.Background(), &cluster.RunArgs{
		Query: `SELECT * WHERE { ?s ?p ?o . }`, Engine: "ntga-lazy",
	})
	if !errors.Is(err, cluster.ErrMasterLost) {
		t.Fatalf("Run against a closed master = %v, want ErrMasterLost", err)
	}
}
