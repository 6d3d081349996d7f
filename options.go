package fspnet

import (
	"context"
	"time"

	"fspnet/internal/guard"
	"fspnet/internal/success"
)

// Options govern a reference analysis end to end. The zero value means
// ungoverned: no cancellation, no deadline, no joint budget, default
// parallelism. When any of Context, Deadline, or Budget is set, the run
// is checked at every BFS level, game stride, and pass boundary;
// exhaustion surfaces as a *LimitErr whose Partial verdict reports how
// far the run got and any predicate it had already decided.
type Options struct {
	// Context supplies cancellation (and, if it carries one, a deadline).
	Context context.Context
	// Deadline is an absolute wall-clock bound; zero means none.
	Deadline time.Time
	// Budget bounds the joint states/steps interned across every pass of
	// the analysis; 0 or negative means unlimited.
	Budget int
	// MaxStates is the explore engine's own joint-state budget (≤ 0:
	// the engine default).
	MaxStates int
}

// Governed runtime vocabulary, re-exported so callers can match the
// typed error and inspect partial verdicts without importing internals.
type (
	// LimitErr is the typed error a governed analysis returns on
	// exhaustion; match it with errors.As.
	LimitErr = guard.LimitErr
	// PartialVerdict is what a truncated analysis still proved.
	PartialVerdict = guard.Partial
	// Bound is a three-valued predicate answer inside a PartialVerdict.
	Bound = guard.Bound
)

// Stop reasons, matchable with errors.Is on any governed error.
var (
	// ErrBudget reports an exhausted state/step budget.
	ErrBudget = guard.ErrBudget
	// ErrCanceled reports that Options.Context was canceled.
	ErrCanceled = guard.ErrCanceled
	// ErrDeadline reports an expired deadline.
	ErrDeadline = guard.ErrDeadline
	// ErrPanic reports a panic inside a BFS level, recovered by the engine.
	ErrPanic = guard.ErrPanic
)

// Bound values.
const (
	BoundUnknown = guard.Unknown
	BoundFalse   = guard.False
	BoundTrue    = guard.True
)

// successOptions lowers the public Options onto the internal analysis
// options, building a governor only when one of the governing fields is
// set.
func (o Options) successOptions() success.Options {
	s := success.Options{MaxStates: o.MaxStates}
	if o.Context != nil || !o.Deadline.IsZero() || o.Budget > 0 {
		s.Guard = guard.New(guard.Config{Context: o.Context, Deadline: o.Deadline, Budget: o.Budget})
	}
	return s
}

// AnalyzeAcyclicOpts is AnalyzeAcyclic under the given Options.
func AnalyzeAcyclicOpts(n *Network, i int, o Options) (Verdict, error) {
	return success.AnalyzeAcyclicOpts(n, i, o.successOptions())
}

// AnalyzeCyclicOpts is AnalyzeCyclic under the given Options.
func AnalyzeCyclicOpts(n *Network, i int, o Options) (Verdict, error) {
	return success.AnalyzeCyclicOpts(n, i, o.successOptions())
}

// AnalyzeAllOpts is AnalyzeAll under the given Options; the governor
// (and its joint budget, if any) is shared by every per-process
// analysis. Options.Context both cancels the dispatch loop and stops
// in-flight per-process analyses at their next barrier.
func AnalyzeAllOpts(n *Network, cyclic bool, workers int, o Options) ([]Result, error) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return success.AnalyzeAllOpts(ctx, n, cyclic, workers, o.successOptions())
}
