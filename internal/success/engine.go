package success

import (
	"context"
	"errors"
	"fmt"

	"fspnet/internal/explore"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/guard"
	"fspnet/internal/network"
)

// Backend selects how the network-level analyses decide S_u and S_c.
type Backend int

const (
	// BackendExplore — the default — never composes the context: S_u and
	// S_c come from the on-the-fly joint-vector engine of
	// internal/explore, and S_a from internal/game/belief, which plays
	// the Figure 4 game directly against the context as joint state
	// vectors with bitset beliefs over the reachable context space.
	BackendExplore Backend = iota
	// BackendCompose materializes the context with ‖ and runs the
	// original pairwise procedures — the compose-then-explore path, kept
	// as the cross-check oracle.
	BackendCompose
)

// Options configure the network-level analyses.
type Options struct {
	Backend   Backend
	MaxStates int // explore joint-state budget (≤ 0: explore.DefaultMaxStates)
	// Guard, when non-nil, governs the analysis end to end: the explore
	// engine polls it at the head of every BFS level, the S_a game every stride of
	// positions, and the compose backend at stage boundaries. Exhaustion
	// surfaces as a *guard.LimitErr whose partial verdict carries any
	// predicate already decided.
	Guard *guard.G
	// BeliefStats, when non-nil, receives the S_a belief-engine counters
	// of the run (context states, beliefs, positions, antichain activity,
	// sweep workers, symmetry quotient, probe). The compose backend never
	// touches it.
	BeliefStats *belief.Stats
	// ExploreStats, when non-nil, receives the S_u/S_c explore-engine
	// counters of the last engine run (states, moves, symmetry group
	// order, orbit hits, probe). The compose backend never touches it.
	ExploreStats *explore.Stats
	// NoSymmetry disables orbit-canonical state interning in both the
	// explore engine and the belief engine's context quotient, and the
	// witness probes with it — the unreduced differential oracle. It
	// changes only how verdicts are computed, never the verdicts.
	NoSymmetry bool
}

func engineOpts(o Options) explore.Options {
	return explore.Options{MaxStates: o.MaxStates, Guard: o.Guard,
		Tune: explore.Tuning{NoSymmetry: o.NoSymmetry, NoProbe: o.NoSymmetry}}
}

func gameOpts(o Options) game.Options {
	return game.Options{Guard: o.Guard}
}

func beliefTuning(o Options) belief.Tuning {
	return belief.Tuning{NoSymmetry: o.NoSymmetry, NoProbe: o.NoSymmetry}
}

// recordExplore copies the engine counters out for callers that asked
// for them.
func recordExplore(o Options, st explore.Stats) {
	if o.ExploreStats != nil {
		*o.ExploreStats = st
	}
}

// composePoll is the compose-path governor check: one poll per stage
// boundary (composition, then each predicate). The composed stages
// themselves are the oracle path and stay uninterruptible inside.
func composePoll(g *guard.G, level int) error {
	if err := g.Poll("compose", level); err != nil {
		return g.Limit(fmt.Errorf("success: compose backend: %w", err), guard.Partial{Pass: "compose"})
	}
	return nil
}

// enrichGameLimit copies the engine-decided S_u/S_c verdicts into a
// *guard.LimitErr produced by the S_a game, so the partial verdict
// reports everything the run had already proved.
func enrichGameLimit(err error, su, sc bool) error {
	var le *guard.LimitErr
	if errors.As(err, &le) {
		le.Partial.Su = guard.Of(su)
		le.Partial.Sc = guard.Of(sc)
	}
	return err
}

// wrapEngineErr keeps the package's error contract across backends: a
// domain violation reported by the engine also satisfies
// errors.Is(err, success.ErrShape). Other engine errors (budget, bad
// index) pass through with their own sentinels.
func wrapEngineErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, explore.ErrShape) {
		return fmt.Errorf("%w: %w", ErrShape, err)
	}
	return err
}

// AnalyzeAcyclicOpts is AnalyzeAcyclic with an explicit backend choice.
func AnalyzeAcyclicOpts(n *network.Network, i int, o Options) (Verdict, error) {
	if o.Backend == BackendCompose {
		return analyzeAcyclicCompose(n, i, o)
	}
	res, err := explore.AnalyzeAcyclic(n, i, engineOpts(o))
	if err != nil {
		return Verdict{}, wrapEngineErr(err)
	}
	recordExplore(o, res.Stats)
	v := Verdict{Su: res.Su, Sc: res.Sc}
	var st belief.Stats
	if v.Sa, st, err = belief.SolveAcyclicTuned(n, i, gameOpts(o), beliefTuning(o)); err != nil {
		return Verdict{}, enrichGameLimit(err, v.Su, v.Sc)
	}
	if o.BeliefStats != nil {
		*o.BeliefStats = st
	}
	return v, nil
}

// AnalyzeCyclicOpts is AnalyzeCyclic with an explicit backend choice.
func AnalyzeCyclicOpts(n *network.Network, i int, o Options) (Verdict, error) {
	if o.Backend == BackendCompose {
		return analyzeCyclicCompose(n, i, o)
	}
	res, err := explore.AnalyzeCyclic(n, i, engineOpts(o))
	if err != nil {
		return Verdict{}, wrapEngineErr(err)
	}
	recordExplore(o, res.Stats)
	v := Verdict{Su: res.Su, Sc: res.Sc}
	var st belief.Stats
	if v.Sa, st, err = belief.SolveCyclicTuned(n, i, gameOpts(o), beliefTuning(o)); err != nil {
		return Verdict{}, enrichGameLimit(err, v.Su, v.Sc)
	}
	if o.BeliefStats != nil {
		*o.BeliefStats = st
	}
	return v, nil
}

// UnavoidableAcyclicNetOpts is UnavoidableAcyclicNet with an explicit
// backend choice.
func UnavoidableAcyclicNetOpts(n *network.Network, i int, o Options) (bool, error) {
	if o.Backend == BackendCompose {
		return unavoidableAcyclicNetCompose(n, i, o)
	}
	su, st, err := explore.UnavoidableAcyclic(n, i, engineOpts(o))
	recordExplore(o, st)
	return su, wrapEngineErr(err)
}

// CollaborationAcyclicNetOpts is CollaborationAcyclicNet with an explicit
// backend choice.
func CollaborationAcyclicNetOpts(n *network.Network, i int, o Options) (bool, error) {
	if o.Backend == BackendCompose {
		return collaborationAcyclicNetCompose(n, i, o)
	}
	sc, st, err := explore.CollaborationAcyclic(n, i, engineOpts(o))
	recordExplore(o, st)
	return sc, wrapEngineErr(err)
}

// UnavoidableCyclicNetOpts is UnavoidableCyclicNet with an explicit
// backend choice.
func UnavoidableCyclicNetOpts(n *network.Network, i int, o Options) (bool, error) {
	if o.Backend == BackendCompose {
		return unavoidableCyclicNetCompose(n, i, o)
	}
	su, st, err := explore.UnavoidableCyclic(n, i, engineOpts(o))
	recordExplore(o, st)
	return su, wrapEngineErr(err)
}

// CollaborationCyclicNetOpts is CollaborationCyclicNet with an explicit
// backend choice.
func CollaborationCyclicNetOpts(n *network.Network, i int, o Options) (bool, error) {
	if o.Backend == BackendCompose {
		return collaborationCyclicNetCompose(n, i, o)
	}
	sc, st, err := explore.CollaborationCyclic(n, i, engineOpts(o))
	recordExplore(o, st)
	return sc, wrapEngineErr(err)
}

// AnalyzeAllOpts is AnalyzeAll with an explicit backend choice threaded
// into every per-process analysis.
func AnalyzeAllOpts(ctx context.Context, n *network.Network, cyclic bool, workers int, o Options) ([]Result, error) {
	return analyzeAll(ctx, n, cyclic, workers, o)
}
