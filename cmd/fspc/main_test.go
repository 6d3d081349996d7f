package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fspnet/internal/guard"
)

const figure3 = `
process P { start s1; s1 a s2 }
process Q { start t1; t1 a t2; t1 tau t3 }
`

const linearChain = `
process P0 { start a0; a0 x a1 }
process P1 { start b0; b0 x b1; b1 y b2 }
process P2 { start c0; c0 y c1 }
`

const cyclicPair = `
process P { start s0; s0 a s0 }
process Q { start t0; t0 a t0 }
`

func runFspc(t *testing.T, stdin string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, strings.NewReader(stdin), &out)
	return out.String(), err
}

func TestRunStdinReference(t *testing.T) {
	out, err := runFspc(t, figure3, "-algo", "reference", "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "S_u=false S_a=false S_c=true") {
		t.Errorf("unexpected verdict output:\n%s", out)
	}
	if !strings.Contains(out, "C_N: tree") {
		t.Errorf("missing C_N description:\n%s", out)
	}
}

func TestRunAutoPicksLinear(t *testing.T) {
	out, err := runFspc(t, linearChain, "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "algorithm: linear (auto)") {
		t.Errorf("auto must pick linear:\n%s", out)
	}
	if !strings.Contains(out, "S_u = S_a = S_c = true") {
		t.Errorf("chain must succeed:\n%s", out)
	}
}

func TestRunTreeAlgo(t *testing.T) {
	out, err := runFspc(t, figure3, "-algo", "tree", "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Theorem 3: S_u=false S_a=false S_c=true") {
		t.Errorf("tree verdict missing:\n%s", out)
	}
}

func TestRunCyclicReference(t *testing.T) {
	out, err := runFspc(t, cyclicPair, "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cyclic, §4") || !strings.Contains(out, "S_u=true S_a=true S_c=true") {
		t.Errorf("cyclic verdict missing:\n%s", out)
	}
}

func TestRunUnary(t *testing.T) {
	out, err := runFspc(t, cyclicPair, "-algo", "unary", "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Theorem 4: S_c = true") {
		t.Errorf("unary verdict missing:\n%s", out)
	}
}

func TestRunDot(t *testing.T) {
	out, err := runFspc(t, figure3, "-dot", "-")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "digraph") != 2 {
		t.Errorf("expected two digraphs:\n%s", out)
	}
}

func TestRunFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.fsp")
	if err := os.WriteFile(path, []byte(figure3), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runFspc(t, "", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "network: 2 processes") {
		t.Errorf("file input failed:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := runFspc(t, figure3, "-p", "9", "-"); err == nil {
		t.Error("out-of-range index must fail")
	}
	if _, err := runFspc(t, "", "/does/not/exist.fsp"); err == nil {
		t.Error("missing file must fail")
	}
	if _, err := runFspc(t, figure3); err == nil {
		t.Error("missing positional argument must fail")
	}
	if _, err := runFspc(t, figure3, "-algo", "nope", "-"); err == nil {
		t.Error("unknown algorithm must fail")
	}
	if _, err := runFspc(t, "process P {", "-"); err == nil {
		t.Error("syntax error must fail")
	}
	twoSymbols := "process P { start s0; s0 a s1; s1 b s2 } process Q { start t0; t0 a t1; t1 b t2 }"
	if _, err := runFspc(t, twoSymbols, "-algo", "unary", "-"); err == nil {
		t.Error("unary on a two-symbol edge must fail")
	}
}

func TestRunAll(t *testing.T) {
	out, err := runFspc(t, linearChain, "-all", "-")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"P0", "P1", "P2"} {
		if !strings.Contains(out, name) {
			t.Errorf("missing %s in -all output:\n%s", name, out)
		}
	}
}

func TestRunWitness(t *testing.T) {
	out, err := runFspc(t, figure3, "-algo", "reference", "-witness", "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "collaboration schedule") || !strings.Contains(out, "blocking trace") {
		t.Errorf("witness output:\n%s", out)
	}
	if !strings.Contains(out, "P⇄Q: a") {
		t.Errorf("missing handshake step:\n%s", out)
	}
}

func TestRunWitnessCyclic(t *testing.T) {
	out, err := runFspc(t, cyclicPair, "-witness", "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no blocking trace: S_u holds") {
		t.Errorf("cyclic witness output:\n%s", out)
	}
}

func TestRunStrategy(t *testing.T) {
	// P branches on a; only the right branch wins.
	src := `
process P { start r; r a l; r a rr; l c d }
process Q { start q0; q0 a q1; q1 c q2; q1 tau q3 }
`
	out, err := runFspc(t, src, "-algo", "reference", "-strategy", "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "winning strategy (S_a):") || !strings.Contains(out, "on a go to rr") {
		t.Errorf("strategy output:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	out, err := runFspc(t, figure3, "-json", "-")
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]interface{}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if _, ok := rep["results"]; !ok {
		t.Errorf("missing results key:\n%s", out)
	}
	if !strings.Contains(out, `"collaboration": true`) {
		t.Errorf("expected collaboration=true:\n%s", out)
	}
}

func TestRunJSONAll(t *testing.T) {
	out, err := runFspc(t, linearChain, "-json", "-all", "-")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, `"process":`) != 3 {
		t.Errorf("expected 3 result entries:\n%s", out)
	}
}

func TestRunPossAlgo(t *testing.T) {
	out, err := runFspc(t, figure3, "-algo", "poss", "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Lemmas 3–4 (possibility calculus): S_u=false S_c=true") {
		t.Errorf("poss algo output:\n%s", out)
	}
	if !strings.Contains(out, "Lemma 4 blocking witness: s=ε") {
		t.Errorf("missing Lemma 4 witness:\n%s", out)
	}
}

func TestRunTestdataCorpus(t *testing.T) {
	tests := []struct {
		file string
		args []string
		want string
	}{
		{"figure3.fsp", []string{"-algo", "reference"}, "S_u=false S_a=false S_c=true"},
		{"crossing.fsp", nil, "S_u = S_a = S_c = false"},
		{"philosophers2.fsp", nil, "S_u=false S_a=false S_c=true"},
		{"protocol.fsp", []string{"-algo", "tree"}, "S_u=false S_a=false S_c=true"},
	}
	for _, tt := range tests {
		t.Run(tt.file, func(t *testing.T) {
			args := append(append([]string{}, tt.args...), filepath.Join("../../testdata", tt.file))
			out, err := runFspc(t, "", args...)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, tt.want) {
				t.Errorf("missing %q in:\n%s", tt.want, out)
			}
		})
	}
}

func TestRunTimeoutExitCode3(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-timeout", "1ns", "-"}, strings.NewReader(cyclicPair), &out)
	if err == nil {
		t.Fatal("run with an already-expired deadline must fail")
	}
	var le *guard.LimitErr
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want a *guard.LimitErr", err)
	}
	var stderr bytes.Buffer
	if code := exitCode(&stderr, err); code != 3 {
		t.Fatalf("exit code = %d, want 3 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "partial:") {
		t.Errorf("stderr diagnostic missing the partial verdict: %s", stderr.String())
	}
}

func TestRunEngineExplore(t *testing.T) {
	// -engine explore selects the compose-free backend (S_a via the
	// bitset belief game); it must print the compose oracle's verdict line.
	want, err := runFspc(t, figure3, "-algo", "reference", "-engine", "compose", "-")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runFspc(t, figure3, "-algo", "reference", "-engine", "explore", "-")
	if err != nil {
		t.Fatal(err)
	}
	if gotLine, wantLine := verdictLine(t, out), verdictLine(t, want); gotLine != wantLine {
		t.Errorf("-engine explore: %q, compose oracle: %q", gotLine, wantLine)
	}
	for _, engine := range []string{"bogus", "belief"} {
		if _, err := runFspc(t, figure3, "-engine", engine, "-"); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("-engine %s: err = %v, want the unknown-engine error", engine, err)
		}
	}
}

func verdictLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "S_u=") {
			return strings.TrimSpace(line)
		}
	}
	t.Fatalf("no verdict line in:\n%s", out)
	return ""
}

// TestRunEngineExploreTimeoutJSON exhausts the deadline under -engine
// explore and requires the structured verdictjson partial with exit 3.
func TestRunEngineExploreTimeoutJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-engine", "explore", "-json", "-timeout", "1ns", "-"},
		strings.NewReader(cyclicPair), &out)
	if err == nil {
		t.Fatal("run with an already-expired deadline must fail")
	}
	var stderr bytes.Buffer
	if code := exitCode(&stderr, err); code != 3 {
		t.Fatalf("exit code = %d, want 3 (stderr: %s)", code, stderr.String())
	}
	var rep map[string]interface{}
	if jerr := json.Unmarshal(out.Bytes(), &rep); jerr != nil {
		t.Fatalf("partial report is not valid JSON: %v\n%s", jerr, out.String())
	}
	if !strings.Contains(out.String(), `"partial"`) {
		t.Errorf("JSON report missing the partial record:\n%s", out.String())
	}
}

func TestExitCodeMapping(t *testing.T) {
	var sb strings.Builder
	if code := exitCode(&sb, nil); code != 0 {
		t.Errorf("exitCode(nil) = %d, want 0", code)
	}
	if code := exitCode(&sb, errors.New("boom")); code != 1 {
		t.Errorf("exitCode(plain error) = %d, want 1", code)
	}
	le := &guard.LimitErr{Reason: guard.ErrDeadline, Partial: guard.Partial{Pass: "bfs", States: 3}}
	if code := exitCode(&sb, fmt.Errorf("analysis: %w", le)); code != 3 {
		t.Errorf("exitCode(wrapped LimitErr) = %d, want 3", code)
	}
}

const lintDirty = `
process P { start s0; s0 lonely s1; s0 tau s0 }
`

// lintWarned is a valid network (the builder accepts it) that still
// lints dirty: P can diverge on its τ-self-loop.
const lintWarned = `
process P { start s0; s0 a s0; s0 tau s0 }
process Q { start t0; t0 a t0 }
`

func TestRunLintDirty(t *testing.T) {
	out, err := runFspc(t, lintDirty, "-lint", "-")
	if !errors.Is(err, errLint) {
		t.Fatalf("want errLint, got %v", err)
	}
	if !strings.Contains(out, "unmatched") || !strings.Contains(out, "taudiv") {
		t.Errorf("lint output missing findings:\n%s", out)
	}
	if !strings.Contains(out, "stdin:2:") {
		t.Errorf("lint output missing positions:\n%s", out)
	}
}

func TestRunLintClean(t *testing.T) {
	out, err := runFspc(t, figure3, "-lint", "-")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("clean spec must print nothing, got:\n%s", out)
	}
}

func TestRunLintAcceptsInvalidNetwork(t *testing.T) {
	// ParseString rejects lintDirty outright; -lint must still produce
	// positioned diagnostics from the validation-free spec layer.
	if _, err := runFspc(t, lintDirty, "-"); err == nil {
		t.Fatal("analysis of the invalid network must fail")
	}
	if _, err := runFspc(t, lintDirty, "-lint", "-"); !errors.Is(err, errLint) {
		t.Fatalf("want errLint, got %v", err)
	}
}

func TestRunLintJSON(t *testing.T) {
	out, err := runFspc(t, lintDirty, "-lint", "-json", "-")
	if !errors.Is(err, errLint) {
		t.Fatalf("want errLint, got %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var d map[string]interface{}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("non-JSON line %q: %v", line, err)
		}
		for _, key := range []string{"file", "line", "col", "analyzer", "message"} {
			if _, ok := d[key]; !ok {
				t.Errorf("diagnostic missing %q: %s", key, line)
			}
		}
	}
}

func TestRunAnalyzeWarningsText(t *testing.T) {
	out, err := runFspc(t, lintWarned, "-algo", "reference", "-p", "1", "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "warning: stdin:") || !strings.Contains(out, "taudiv") {
		t.Errorf("analyze output missing lint warnings:\n%s", out)
	}
}

func TestRunAnalyzeWarningsJSON(t *testing.T) {
	out, err := runFspc(t, lintWarned, "-json", "-")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Warnings []map[string]interface{} `json:"warnings"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(rep.Warnings) == 0 {
		t.Fatalf("expected warnings in report:\n%s", out)
	}
	if rep.Warnings[0]["analyzer"] == "" {
		t.Errorf("warning missing analyzer: %v", rep.Warnings[0])
	}
}

func TestExitCodeLint(t *testing.T) {
	var buf bytes.Buffer
	if code := exitCode(&buf, errLint); code != 2 {
		t.Errorf("errLint exit code = %d, want 2", code)
	}
}
