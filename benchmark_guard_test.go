package ntga_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
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

// TestToolingReferencesResolve keeps Makefile, scripts/ and CI naming each
// other consistently, and every ./cmd/<name> path the docs, Makefile,
// scripts and CI build or run naming a command that exists, so deleting a
// script, a target or a binary cannot leave a dangling reference that only
// fails when somebody runs it. Every command also has a main_test.go, so
// no binary's flag handling goes untested. Every -run and -fuzz pattern of
// the check target selects a test in each package its line names: go test
// passes silently when a pattern matches nothing, so renaming a test could
// otherwise turn a race or fuzz step into a no-op.
func TestToolingReferencesResolve(t *testing.T) {
	read := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	makefile, ci := read("Makefile"), read(filepath.Join(".github", "workflows", "ci.yml"))

	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`).FindAllStringSubmatch(makefile, -1) {
		targets[m[1]] = true
	}
	phony := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindAllStringSubmatch(makefile, -1) {
		for _, name := range strings.Fields(m[1]) {
			phony[name] = true
		}
	}
	for name := range targets {
		if !phony[name] {
			t.Errorf("Makefile target %s is missing from .PHONY", name)
		}
	}
	for name := range phony {
		if !targets[name] {
			t.Errorf(".PHONY lists %s, which the Makefile does not define", name)
		}
	}

	named := map[string]bool{}
	for _, script := range regexp.MustCompile(`scripts/[A-Za-z0-9_.-]+\.sh`).FindAllString(makefile, -1) {
		named[script] = true
		if _, err := os.Stat(script); err != nil {
			t.Errorf("Makefile names %s: %v", script, err)
		}
	}
	onDisk, err := filepath.Glob("scripts/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, script := range onDisk {
		if !named[filepath.ToSlash(script)] {
			t.Errorf("%s is not run by any Makefile target", script)
		}
	}

	for _, m := range regexp.MustCompile(`\bmake +([A-Za-z0-9_-]+)`).FindAllStringSubmatch(ci, -1) {
		if !targets[m[1]] {
			t.Errorf("ci.yml runs `make %s`, which the Makefile does not define", m[1])
		}
	}

	cmds, err := filepath.Glob(filepath.Join("cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range cmds {
		if _, err := os.Stat(filepath.Join(cmd, "main_test.go")); err != nil {
			t.Errorf("%s has no main_test.go", filepath.ToSlash(cmd))
		}
	}

	check := regexp.MustCompile(`(?ms)^check:\n(.*?)\n\n`).FindStringSubmatch(makefile)
	if check == nil {
		t.Fatal("Makefile has no check target")
	}
	pattern := regexp.MustCompile(`-(run|fuzz) '([^']*)'`)
	for _, line := range strings.Split(strings.ReplaceAll(check[1], "$$", "$"), "\n") {
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		for _, m := range pattern.FindAllStringSubmatch(line, -1) {
			flag, expr := m[1], m[2]
			if expr == "^$" {
				continue // selects no test on purpose: a fuzz step's -run
			}
			re, err := regexp.Compile(expr)
			if err != nil {
				t.Errorf("Makefile check: -%s '%s': %v", flag, expr, err)
				continue
			}
			for _, pkg := range pkgs {
				if !matchesTestFunc(t, pkg, re, flag == "fuzz") {
					t.Errorf("Makefile check: -%s '%s' matches no test in %s", flag, expr, pkg)
				}
			}
		}
	}

	// Paths only: engine names such as ntga-lazy share the binaries' prefix.
	docs := append([]string{"README.md", "DESIGN.md", "Makefile", filepath.Join(".github", "workflows", "ci.yml")}, onDisk...)
	cmdPath := regexp.MustCompile(`\./cmd/([A-Za-z0-9_-]+)`)
	for _, doc := range docs {
		for _, m := range cmdPath.FindAllStringSubmatch(read(doc), -1) {
			if _, err := os.Stat(filepath.Join("cmd", m[1])); err != nil {
				t.Errorf("%s names %s, which does not exist", filepath.ToSlash(doc), m[0])
			}
		}
	}
}

// matchesTestFunc reports whether re matches the name of a func Test… or
// func Fuzz… (only Fuzz… when fuzzOnly) in the test files of the package at
// dir, as go test's -run and -fuzz select them.
func matchesTestFunc(t *testing.T, dir string, re *regexp.Regexp, fuzzOnly bool) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((Test|Fuzz)[A-Za-z0-9_]*)\(`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			if (!fuzzOnly || m[2] == "Fuzz") && re.MatchString(m[1]) {
				return true
			}
		}
	}
	return false
}

// TestOneQueryFrontDoor keeps the decisions taken before any job exists in
// one place: every process parses through query.Parse, chooses through
// engines.Choose and applies through Choice.Apply. A direct call to what
// those wrap, outside the packages that own it, is a new front door.
func TestOneQueryFrontDoor(t *testing.T) {
	frontDoor := []string{"internal/query/", "internal/plan/", "internal/engines/"}
	rules := []struct {
		call    *regexp.Regexp
		allowed []string
	}{
		{regexp.MustCompile(`\bsparql\.Parse\(|\bplan\.AdviseUnnest\(|\bplan\.Optimize\(|\.JoinsForOrder\(`), frontDoor},
		// bench.EngineByName is the harness's one-line forward to the table.
		{regexp.MustCompile(`\bengines\.ByName\(`), []string{"internal/engines/", "internal/bench/runner.go"}},
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, r := range rules {
			if !r.call.Match(raw) || hasAnyPrefix(path, r.allowed) {
				continue
			}
			t.Errorf("%s calls %s directly; go through query.Parse, engines.Choose and Choice.Apply",
				path, r.call.FindString(string(raw)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
