// Fault-injection sweeps for the belief engine: cancellation, deadline
// expiry, and budget exhaustion injected at every worklist barrier
// ("ctx-bfs" levels, "ctx-adj"/"ctx-scc" strides, "game" positions,
// "fixpoint" removals) must surface as a well-formed *guard.LimitErr
// naming the pass, never as a hang or a wrong verdict. Run under -race
// via `make test-fault`.
package belief_test

import (
	"errors"
	"testing"

	"fspnet/internal/bench"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/guard"
	"fspnet/internal/guard/faultinject"
	"fspnet/internal/reduce"
	"fspnet/internal/sat"
)

func faultOpts(h guard.Hook) game.Options {
	return game.Options{Guard: guard.New(guard.Config{Hook: h})}
}

// noProbe pins the witness probe off so the cyclic sweeps exercise the
// enumeration passes — on the ring fixture the probe otherwise decides
// the game before any injectable barrier is reached.
var noProbe = belief.Tuning{NoProbe: true}

// beliefPasses are every governor pass the engine polls, in run order for
// the cyclic semantics ("ctx-scc" and "fixpoint" are cyclic-only,
// "shape" acyclic-only). "game" and "fixpoint" are polled at the head of
// every sweep level and elimination round, and on a stride inside it.
var beliefPasses = []string{"ctx-bfs", "ctx-adj", "ctx-scc", "game", "fixpoint"}

// TestFaultInjectBeliefCyclicCancelSweep cancels the cyclic engine at
// levels 0..3 of every pass on the philosophers ring. An injection that
// fires must produce a LimitErr wrapping ErrCanceled whose partial names
// the injected pass; one that the run completes before must reproduce
// the full verdict.
func TestFaultInjectBeliefCyclicCancelSweep(t *testing.T) {
	n, err := bench.Philosophers(4)
	if err != nil {
		t.Fatal(err)
	}
	full, fullStats, err := belief.SolveCyclicTuned(n, 0, game.Options{}, noProbe)
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]bool{}
	for _, pass := range beliefPasses {
		for lvl := 0; lvl <= 3; lvl++ {
			got, _, err := belief.SolveCyclicTuned(n, 0, faultOpts(faultinject.CancelAt(pass, lvl)), noProbe)
			if err == nil {
				if got != full {
					t.Fatalf("%s@%d: completed run disagrees: got %v, want %v", pass, lvl, got, full)
				}
				continue
			}
			fired[pass] = true
			var le *guard.LimitErr
			if !errors.As(err, &le) {
				t.Fatalf("%s@%d: error %v is not a *guard.LimitErr", pass, lvl, err)
			}
			if !errors.Is(err, guard.ErrCanceled) {
				t.Fatalf("%s@%d: reason %v, want ErrCanceled", pass, lvl, err)
			}
			if le.Partial.Pass != pass {
				t.Errorf("%s@%d: partial names pass %q", pass, lvl, le.Partial.Pass)
			}
		}
	}
	for _, pass := range []string{"ctx-bfs", "ctx-scc", "game", "fixpoint"} {
		if !fired[pass] {
			t.Errorf("pass %s: no injection ever fired (stats %+v)", pass, fullStats)
		}
	}
}

// TestFaultInjectBeliefAcyclicCancelSweep is the acyclic sweep on a
// Theorem 2 gadget (the pass list drops the cyclic-only passes and gains
// the shape check).
func TestFaultInjectBeliefAcyclicCancelSweep(t *testing.T) {
	n, err := reduce.QbfGadget(bench.QbfInstance(11, 3))
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := belief.SolveAcyclic(n, 0, game.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, pass := range []string{"shape", "ctx-bfs", "ctx-adj", "game"} {
		for lvl := 0; lvl <= 3; lvl++ {
			got, _, err := belief.SolveAcyclic(n, 0, faultOpts(faultinject.CancelAt(pass, lvl)))
			if err == nil {
				if got != full {
					t.Fatalf("%s@%d: completed run disagrees: got %v, want %v", pass, lvl, got, full)
				}
				continue
			}
			fired = true
			var le *guard.LimitErr
			if !errors.As(err, &le) || !errors.Is(err, guard.ErrCanceled) {
				t.Fatalf("%s@%d: error %v, want LimitErr wrapping ErrCanceled", pass, lvl, err)
			}
		}
	}
	if !fired {
		t.Error("no injection ever fired on the acyclic path")
	}
}

// TestFaultInjectBeliefProbeCancel cancels the default configuration at
// the "probe" pass, which on the ring fires before any other barrier:
// the stop must surface as a LimitErr naming the probe, never as a
// decided (and thus potentially wrong) verdict.
func TestFaultInjectBeliefProbeCancel(t *testing.T) {
	n, err := bench.Philosophers(4)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = belief.SolveCyclic(n, 0, faultOpts(faultinject.CancelAt("probe", 0)))
	var le *guard.LimitErr
	if !errors.As(err, &le) || !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("error %v, want LimitErr wrapping ErrCanceled", err)
	}
	if le.Partial.Pass != "probe" {
		t.Errorf("partial names pass %q, want probe", le.Partial.Pass)
	}
}

// TestFaultInjectBeliefDeadline spot-checks that an injected deadline
// surfaces as ErrDeadline with the pass recorded.
func TestFaultInjectBeliefDeadline(t *testing.T) {
	n, err := bench.Philosophers(4)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = belief.SolveCyclicTuned(n, 0, faultOpts(faultinject.DeadlineAt("ctx-bfs", 1)), noProbe)
	var le *guard.LimitErr
	if !errors.As(err, &le) || !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("error %v, want LimitErr wrapping ErrDeadline", err)
	}
	if le.Partial.Pass != "ctx-bfs" {
		t.Errorf("partial names pass %q, want ctx-bfs", le.Partial.Pass)
	}
}

// TestFaultInjectBeliefPartialDeterminism cancels at the same barrier
// twice and requires byte-identical partial verdicts — the worklists are
// sequential, so a stop point determines the progress measure.
func TestFaultInjectBeliefPartialDeterminism(t *testing.T) {
	n, err := bench.Philosophers(4)
	if err != nil {
		t.Fatal(err)
	}
	partial := func() guard.Partial {
		t.Helper()
		_, _, err := belief.SolveCyclicTuned(n, 0, faultOpts(faultinject.CancelAt("ctx-bfs", 2)), noProbe)
		var le *guard.LimitErr
		if !errors.As(err, &le) {
			t.Fatalf("error %v is not a *guard.LimitErr", err)
		}
		p := le.Partial
		p.Elapsed = 0 // wall time is the one legitimately varying field
		return p
	}
	if a, b := partial(), partial(); a != b {
		t.Fatalf("partial verdicts differ across identical runs: %+v vs %+v", a, b)
	}
}

// TestFaultInjectBeliefBudgetVerdictSound exhausts the budget at every
// threshold up to the full run's position count; whenever the engine
// still completes, the verdict must match, and otherwise the error must
// carry the budget sentinel.
func TestFaultInjectBeliefBudgetVerdictSound(t *testing.T) {
	q := &sat.QBF{
		Prefix: []sat.Quantifier{sat.Exists, sat.ForAll},
		Matrix: sat.CNF{Vars: 2, Clauses: []sat.Clause{{1, 2}}},
	}
	n, err := reduce.QbfGadget(q)
	if err != nil {
		t.Fatal(err)
	}
	full, stats, err := belief.SolveAcyclic(n, 0, game.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= stats.Positions+1; b++ {
		got, _, err := belief.SolveAcyclic(n, 0, game.Options{Budget: b})
		if err == nil {
			if got != full {
				t.Fatalf("budget %d: verdict %v, want %v", b, got, full)
			}
			continue
		}
		if !errors.Is(err, game.ErrBudget) {
			t.Fatalf("budget %d: err = %v, want game.ErrBudget", b, err)
		}
	}
}
