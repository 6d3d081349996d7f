// Package guard is the resource governor threaded through every solver:
// the paper's hardness results (Theorems 1–2) mean each analysis can
// legitimately run forever-sized, so every entry point must be
// cancellable, deadline-bounded, and able to report what it learned
// before stopping.
//
// A G carries a context.Context (cancellation and context deadlines), an
// optional wall-clock deadline, and a joint state/step budget shared by
// every pass of one analysis. Solvers consult it through two calls:
//
//   - Poll(pass, level) at coarse-grained barriers — BFS level barriers,
//     pass boundaries, or every-N-nodes amortization points — returning
//     ErrCanceled or ErrDeadline when the run must stop;
//   - Charge(n) when interning n new states or positions, returning
//     ErrBudget once the joint budget is exhausted.
//
// Both are nil-receiver safe, so an ungoverned call site simply passes a
// nil *G. On exhaustion solvers wrap the reason in a *LimitErr carrying a
// Partial verdict — states interned, frontier depth, the pass in
// progress, and the best S_u/S_c/S_a bounds established so far — so a
// caller under a request deadline still gets everything the truncated run
// proved.
//
// The Hook seam exists for package guard/faultinject, which injects
// cancellation, deadline expiry, or synthetic panics at chosen
// BFS levels and pass boundaries; production code leaves it nil.
package guard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Sentinel reasons for stopping an analysis early. Every governed solver
// returns a *LimitErr whose Reason wraps exactly one of them, so callers
// have a single errors.Is target per cause.
var (
	// ErrBudget reports an exhausted state/step budget — the package-level
	// sentinels poss.ErrBudget, game.ErrBudget, ilp.ErrNodeBudget, and
	// explore.ErrBudget all wrap it.
	ErrBudget = errors.New("guard: state/step budget exhausted")
	// ErrCanceled reports that the run's context was canceled.
	ErrCanceled = errors.New("guard: analysis canceled")
	// ErrDeadline reports an expired wall-clock or context deadline.
	ErrDeadline = errors.New("guard: deadline exceeded")
	// ErrPanic reports a panic inside a BFS level, recovered by the engine.
	ErrPanic = errors.New("guard: worker panicked")
)

// IsLimit reports whether err is (or wraps) one of the governor's stop
// reasons, as opposed to a domain error such as a shape violation.
func IsLimit(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrDeadline) || errors.Is(err, ErrPanic)
}

// Hook intercepts governor polls — the fault-injection seam used by
// guard/faultinject. Implementations must be safe for concurrent use:
// BFS workers consult Panic from multiple goroutines.
type Hook interface {
	// Fire returns a non-nil reason (wrapping ErrCanceled or ErrDeadline)
	// to make the poll at (pass, level) report exhaustion.
	Fire(pass string, level int) error
	// Panic reports whether the solver polling at (pass, level) should
	// panic, exercising its recovery path.
	Panic(pass string, level int) bool
}

// Config assembles a governor.
type Config struct {
	// Context supplies cancellation (and, if it has one, a deadline).
	// nil means context.Background().
	Context context.Context
	// Deadline is an absolute wall-clock bound; zero means none. It is
	// checked only at Poll sites, so overshoot is bounded by the longest
	// inter-barrier stretch.
	Deadline time.Time
	// Budget bounds the joint states/steps Charge()d across every pass of
	// the analysis; 0 or negative means unlimited.
	Budget int
	// Hook is the fault-injection seam; production code leaves it nil.
	Hook Hook
}

// G is one analysis run's governor. A nil *G is valid and never stops
// anything. A single G may be shared by concurrent solvers (AnalyzeAll):
// the budget counter is atomic and the remaining fields are immutable.
type G struct {
	ctx      context.Context
	deadline time.Time
	budget   int64
	used     atomic.Int64
	start    time.Time
	hook     Hook
}

// New builds a governor from c.
func New(c Config) *G {
	g := &G{ctx: c.Context, deadline: c.Deadline, budget: int64(c.Budget), hook: c.Hook}
	g.start = time.Now() //fsplint:ignore detrand start stamp so partial verdicts can report elapsed wall time
	return g
}

// Poll checks the hook, cancellation, and deadlines. pass names the
// solver stage ("bfs", "tau-cycle", "game", …) and level its progress
// (BFS depth, or an amortized node count); both exist for diagnostics
// and fault injection. Returns nil, or a reason wrapping ErrCanceled or
// ErrDeadline.
func (g *G) Poll(pass string, level int) error {
	if g == nil {
		return nil
	}
	if g.hook != nil {
		if err := g.hook.Fire(pass, level); err != nil {
			return err
		}
	}
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("%w: %w", ErrDeadline, err)
			}
			return fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	if !g.deadline.IsZero() {
		if now := time.Now(); now.After(g.deadline) { //fsplint:ignore detrand wall-clock deadline check, amortized at level barriers
			return fmt.Errorf("%w: %s past the deadline", ErrDeadline, now.Sub(g.deadline).Round(time.Microsecond))
		}
	}
	return nil
}

// Charge consumes n units of the joint state/step budget, returning a
// reason wrapping ErrBudget once it is exhausted.
func (g *G) Charge(n int) error {
	if g == nil || g.budget <= 0 {
		return nil
	}
	if g.used.Add(int64(n)) > g.budget {
		return fmt.Errorf("%w: joint budget of %d states/steps", ErrBudget, g.budget)
	}
	return nil
}

// Used returns the states/steps charged so far.
func (g *G) Used() int {
	if g == nil {
		return 0
	}
	return int(g.used.Load())
}

// ShouldPanic reports whether the fault-injection hook wants the solver
// polling at (pass, level) to panic. Always false without a hook.
func (g *G) ShouldPanic(pass string, level int) bool {
	return g != nil && g.hook != nil && g.hook.Panic(pass, level)
}

// Limit wraps a stop reason and a partial verdict into a *LimitErr,
// stamping the elapsed wall time when the governor has a start time.
// Valid on a nil receiver (the error then carries no elapsed time).
func (g *G) Limit(reason error, p Partial) *LimitErr {
	if g != nil && !g.start.IsZero() {
		p.Elapsed = time.Since(g.start) //fsplint:ignore detrand elapsed-time stamp for the partial-verdict diagnostic
	}
	return &LimitErr{Reason: reason, Partial: p}
}
