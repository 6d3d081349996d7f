// Fault-injection sweeps for the governed engine: cancellation, deadline
// expiry, and synthetic panics injected at every BFS level and pass
// boundary must always surface as a well-formed *guard.LimitErr — never
// a hang, an unrecovered panic, or a partial verdict the uncancelled run
// contradicts. Run under -race via `make test-fault`
// (go test -race -run FaultInject ./...).
package explore_test

import (
	"errors"
	"math/rand"
	"testing"

	"fspnet/internal/bench"
	"fspnet/internal/explore"
	"fspnet/internal/fsptest"
	"fspnet/internal/guard"
	"fspnet/internal/guard/faultinject"
	"fspnet/internal/network"
)

// faultOpts returns engine options governed by the given hook.
func faultOpts(h guard.Hook) explore.Options {
	return explore.Options{Guard: guard.New(guard.Config{Hook: h})}
}

// faultOptsTuned is faultOpts with explicit symmetry tuning, for sweeps
// that must reach the exhaustive passes the witness probes would skip.
func faultOptsTuned(h guard.Hook, tune explore.Tuning) explore.Options {
	o := faultOpts(h)
	o.Tune = tune
	return o
}

// acyclicFixture is an 8-process tree network; the seed is fixed so every
// sweep sees the same joint graph.
func acyclicFixture() *network.Network {
	r := rand.New(rand.NewSource(42))
	return fsptest.TreeNetwork(r, fsptest.NetConfig{Procs: 8, ActionsPerEdge: 2, MaxStates: 4, TauProb: 0.1})
}

func cyclicFixture(t *testing.T) *network.Network {
	t.Helper()
	n, err := bench.Philosophers(4)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFaultInjectAcyclicCancelSweep cancels the acyclic analysis at every
// BFS level and checks the partial verdict: stopped exactly at the
// injected level, state count monotone in the cancellation level, and
// no decided bound contradicting the uncancelled run.
func TestFaultInjectAcyclicCancelSweep(t *testing.T) {
	n := acyclicFixture()
	full, err := explore.AnalyzeAcyclic(n, 0, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prevStates := -1
	for lvl := 0; lvl <= full.Stats.Depth+1; lvl++ {
		res, err := explore.AnalyzeAcyclic(n, 0, faultOpts(faultinject.CancelAt("bfs", lvl)))
		if err == nil {
			// The run completed before the injected level was polled;
			// the verdict must then be the full one.
			if res.Su != full.Su || res.Sc != full.Sc {
				t.Fatalf("level %d: completed run disagrees: got (%v,%v), want (%v,%v)",
					lvl, res.Su, res.Sc, full.Su, full.Sc)
			}
			continue
		}
		var le *guard.LimitErr
		if !errors.As(err, &le) {
			t.Fatalf("level %d: error %v is not a *guard.LimitErr", lvl, err)
		}
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("level %d: reason %v, want ErrCanceled", lvl, err)
		}
		if le.Partial.Pass != "bfs" || le.Partial.Depth != lvl {
			t.Errorf("level %d: partial reports pass=%s depth=%d", lvl, le.Partial.Pass, le.Partial.Depth)
		}
		if le.Partial.States < prevStates {
			t.Errorf("level %d: states %d < states %d at the previous level — not monotone",
				lvl, le.Partial.States, prevStates)
		}
		prevStates = le.Partial.States
		if le.Partial.Su.Contradicts(full.Su) {
			t.Errorf("level %d: partial S_u=%s contradicts full %v", lvl, le.Partial.Su, full.Su)
		}
		if le.Partial.Sc.Contradicts(full.Sc) {
			t.Errorf("level %d: partial S_c=%s contradicts full %v", lvl, le.Partial.Sc, full.Sc)
		}
	}
}

// TestFaultInjectCyclicCancelSweep is the cancel sweep under the Section
// 4 semantics, which runs the BFS to completion plus the sequential
// post-passes. The witness probes are tuned off so the sweep actually
// reaches the BFS levels (with probes on, the ring is decided before
// any level and every injected run completes with the full verdict).
func TestFaultInjectCyclicCancelSweep(t *testing.T) {
	n := cyclicFixture(t)
	noProbe := explore.Tuning{NoProbe: true}
	full, err := explore.AnalyzeCyclic(n, 0, explore.Options{Tune: noProbe})
	if err != nil {
		t.Fatal(err)
	}
	prevStates := -1
	for lvl := 0; lvl <= full.Stats.Depth+1; lvl++ {
		res, err := explore.AnalyzeCyclic(n, 0, faultOptsTuned(faultinject.CancelAt("bfs", lvl), noProbe))
		if err == nil {
			if res.Su != full.Su || res.Sc != full.Sc {
				t.Fatalf("level %d: completed run disagrees: got (%v,%v), want (%v,%v)",
					lvl, res.Su, res.Sc, full.Su, full.Sc)
			}
			continue
		}
		var le *guard.LimitErr
		if !errors.As(err, &le) {
			t.Fatalf("level %d: error %v is not a *guard.LimitErr", lvl, err)
		}
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("level %d: reason %v, want ErrCanceled", lvl, err)
		}
		if le.Partial.Pass != "bfs" || le.Partial.Depth != lvl {
			t.Errorf("level %d: partial reports pass=%s depth=%d", lvl, le.Partial.Pass, le.Partial.Depth)
		}
		if le.Partial.States < prevStates {
			t.Errorf("level %d: states %d < states %d at the previous level — not monotone",
				lvl, le.Partial.States, prevStates)
		}
		prevStates = le.Partial.States
		if le.Partial.Su.Contradicts(full.Su) {
			t.Errorf("level %d: partial S_u=%s contradicts full %v", lvl, le.Partial.Su, full.Su)
		}
		if le.Partial.Sc.Contradicts(full.Sc) {
			t.Errorf("level %d: partial S_c=%s contradicts full %v", lvl, le.Partial.Sc, full.Sc)
		}
	}
}

// TestFaultInjectCyclicPassBoundaries cancels at the boundary of each
// cyclic post-pass, in both the symmetry-reduced shape (sym-adj builds
// the quotient adjacency, the cycle passes run on the j-tracking cover,
// canon sums the collapsed states) and the unreduced legacy shape. The
// handshake-cycle pass always runs when S_c is wanted, so that
// injection must fire; a τ-cycle injection may be skipped (the pass is
// elided once a blocking witness decides ¬S_u), in which case the run
// must complete with the full verdict.
func TestFaultInjectCyclicPassBoundaries(t *testing.T) {
	n := cyclicFixture(t)
	for _, tc := range []struct {
		name   string
		tune   explore.Tuning
		passes []string
	}{
		{"sym", explore.Tuning{NoProbe: true}, []string{"sym-adj", "tau-cycle", "handshake-cycle", "canon"}},
		{"legacy", explore.Tuning{NoProbe: true, NoSymmetry: true}, []string{"tau-cycle", "handshake-cycle"}},
	} {
		full, err := explore.AnalyzeCyclic(n, 0, explore.Options{Tune: tc.tune})
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range tc.passes {
			res, err := explore.AnalyzeCyclic(n, 0, faultOptsTuned(faultinject.CancelAt(pass, 0), tc.tune))
			if err == nil {
				if pass == "handshake-cycle" || pass == "sym-adj" || pass == "canon" {
					t.Fatalf("%s/%s injection never fired", tc.name, pass)
				}
				if res.Su != full.Su || res.Sc != full.Sc {
					t.Fatalf("%s/%s: completed run disagrees with full run", tc.name, pass)
				}
				continue
			}
			var le *guard.LimitErr
			if !errors.As(err, &le) || !errors.Is(err, guard.ErrCanceled) {
				t.Fatalf("%s/%s: error %v, want LimitErr wrapping ErrCanceled", tc.name, pass, err)
			}
			if le.Partial.Pass != pass {
				t.Errorf("%s/%s: partial reports pass=%s", tc.name, pass, le.Partial.Pass)
			}
			if le.Partial.Su.Contradicts(full.Su) || le.Partial.Sc.Contradicts(full.Sc) {
				t.Errorf("%s/%s: partial (%s,%s) contradicts full (%v,%v)",
					tc.name, pass, le.Partial.Su, le.Partial.Sc, full.Su, full.Sc)
			}
			if pass == "handshake-cycle" && !le.Partial.Su.Known() {
				t.Errorf("%s: handshake-cycle partial must carry the already-decided S_u", tc.name)
			}
			if pass == "canon" && (!le.Partial.Su.Known() || !le.Partial.Sc.Known()) {
				t.Errorf("%s: canon partial must carry the fully decided verdict", tc.name)
			}
		}
	}
}

// TestFaultInjectProbeCancel cancels inside the witness probes (the
// default cyclic fast path): the partial must name the probe pass and
// never contradict the full verdict.
func TestFaultInjectProbeCancel(t *testing.T) {
	n := cyclicFixture(t)
	full, err := explore.AnalyzeCyclic(n, 0, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = explore.AnalyzeCyclic(n, 0, faultOpts(faultinject.CancelAt("probe", 0)))
	var le *guard.LimitErr
	if !errors.As(err, &le) || !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("error %v, want LimitErr wrapping ErrCanceled", err)
	}
	if le.Partial.Pass != "probe" {
		t.Errorf("partial reports pass=%s, want probe", le.Partial.Pass)
	}
	if le.Partial.Su.Contradicts(full.Su) || le.Partial.Sc.Contradicts(full.Sc) {
		t.Errorf("probe partial (%s,%s) contradicts full (%v,%v)",
			le.Partial.Su, le.Partial.Sc, full.Su, full.Sc)
	}
}

// TestFaultInjectPanicSweep injects a panic at every BFS level; the
// level must recover it, discard the panicked level, and report the same
// level-accurate partial state count a cancellation at that level
// reports.
func TestFaultInjectPanicSweep(t *testing.T) {
	n := acyclicFixture()
	full, err := explore.AnalyzeAcyclic(n, 0, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for lvl := 0; lvl <= full.Stats.Depth+1; lvl++ {
		_, cancelErr := explore.AnalyzeAcyclic(n, 0, faultOpts(faultinject.CancelAt("bfs", lvl)))
		_, panicErr := explore.AnalyzeAcyclic(n, 0, faultOpts(faultinject.PanicAt("bfs", lvl)))
		if cancelErr == nil {
			// Past the last polled level neither hook fires.
			if panicErr != nil {
				t.Fatalf("level %d: cancel completed but panic run failed: %v", lvl, panicErr)
			}
			continue
		}
		var le *guard.LimitErr
		if !errors.As(panicErr, &le) {
			t.Fatalf("level %d: panic error %v is not a *guard.LimitErr", lvl, panicErr)
		}
		if !errors.Is(panicErr, guard.ErrPanic) {
			t.Fatalf("level %d: reason %v, want ErrPanic", lvl, panicErr)
		}
		var cle *guard.LimitErr
		if !errors.As(cancelErr, &cle) {
			t.Fatalf("level %d: cancel error %v is not a *guard.LimitErr", lvl, cancelErr)
		}
		if le.Partial.States != cle.Partial.States || le.Partial.Depth != cle.Partial.Depth {
			t.Errorf("level %d: panic partial (states=%d depth=%d) differs from cancel partial (states=%d depth=%d)",
				lvl, le.Partial.States, le.Partial.Depth, cle.Partial.States, cle.Partial.Depth)
		}
	}
}

// TestFaultInjectDeadline spot-checks that an injected deadline surfaces
// as ErrDeadline with the same partial shape as a cancellation.
func TestFaultInjectDeadline(t *testing.T) {
	n := acyclicFixture()
	_, err := explore.AnalyzeAcyclic(n, 0, faultOpts(faultinject.DeadlineAt("bfs", 1)))
	var le *guard.LimitErr
	if !errors.As(err, &le) || !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("error %v, want LimitErr wrapping ErrDeadline", err)
	}
	if le.Partial.Pass != "bfs" || le.Partial.Depth != 1 {
		t.Errorf("partial reports pass=%s depth=%d, want bfs depth=1", le.Partial.Pass, le.Partial.Depth)
	}
}

// TestFaultInjectCyclicPanic exercises panic recovery on the cyclic path
// too (probes off, so the BFS actually runs).
func TestFaultInjectCyclicPanic(t *testing.T) {
	n := cyclicFixture(t)
	_, err := explore.AnalyzeCyclic(n, 0,
		faultOptsTuned(faultinject.PanicAt("bfs", 0), explore.Tuning{NoProbe: true}))
	var le *guard.LimitErr
	if !errors.As(err, &le) || !errors.Is(err, guard.ErrPanic) {
		t.Fatalf("error %v, want LimitErr wrapping ErrPanic", err)
	}
	if le.Partial.Depth != 0 || le.Partial.States != 1 {
		t.Errorf("partial reports depth=%d states=%d, want the start level (depth=0 states=1)",
			le.Partial.Depth, le.Partial.States)
	}
}
