package ntga_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkHarnessVets keeps the nested benchmark module inside tier-1:
// benchmark/adapter.go compiles against internal/ signatures that
// `go build ./... && go test ./...` at the root cannot see (the harness is a
// module of its own), so a change that breaks it would otherwise surface
// only when the driver runs the benchmark.
func TestBenchmarkHarnessVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	// The vet runs in a child process, which the test cache cannot see: stat
	// the harness sources here so an edit to them invalidates a cached pass.
	srcs, _ := filepath.Glob("benchmark/*")
	for _, f := range srcs {
		os.Stat(f)
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
