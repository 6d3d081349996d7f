package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"fspnet/internal/fsp"
	"fspnet/internal/game"
	"fspnet/internal/guard"
	"fspnet/internal/linear"
	"fspnet/internal/network"
	"fspnet/internal/poss"
	"fspnet/internal/reduce"
	"fspnet/internal/sat"
	"fspnet/internal/success"
	"fspnet/internal/treesolve"
	"fspnet/internal/unary"
	"fspnet/internal/verdictjson"
)

// Experiment is one claim-reproduction run. The governor g (nil for
// ungoverned runs) is polled at every row boundary and threaded into the
// solver calls of the heavier experiments, so a deadline stops a sweep
// with the rows already computed intact.
type Experiment struct {
	ID    string
	Claim string
	Run   func(quick bool, g *guard.G) (*Table, error)
}

// All returns the experiments in EXPERIMENTS.md order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Proposition 1: all-linear networks decided in near-linear time", E1},
		{"E2", "Theorem 1(1): S_c/¬S_u ≡ 3SAT on tree networks with one non-linear FSP", E2},
		{"E3", "Theorem 1(2): S_c/¬S_u ≡ 3SAT on networks of O(1) tree FSPs", E3},
		{"E4", "Theorem 2: S_a ≡ QBF validity (game of partial information)", E4},
		{"E5", "Theorem 3: possibility normal forms vs global search on tree networks", E5},
		{"E6", "Theorem 3 at k=2: rings folded per Figure 8a", E6},
		{"E7", "Section 4: cyclic analysis and the dⁿ game bound (dining philosophers)", E7},
		{"E8", "Theorem 4: unary numeric normal forms vs explicit composition", E8},
		{"E9", "Lemma 2: normal-form sizes and congruence throughput", E9},
		{"E10", "Ablation: Theorem 3 with vs without the possibility normal form", E10},
		{"E11", "Engine: on-the-fly joint-vector exploration vs compose-then-explore", E11},
		{"E12", "Engine: compose-free bitset belief game vs compose-then-recurse S_a", E12},
	}
}

// rowPoll is the per-row governor check of an experiment sweep: on
// exhaustion the sweep stops at a row boundary and the caller returns its
// partially filled table alongside the *guard.LimitErr.
func rowPoll(g *guard.G, t *Table) error {
	if err := g.Poll("bench", len(t.Rows)); err != nil {
		return g.Limit(fmt.Errorf("bench: sweep stopped after %d rows: %w", len(t.Rows), err),
			guard.Partial{Pass: "bench", Depth: len(t.Rows)})
	}
	return nil
}

// RunAll renders every experiment table to w with no governor.
func RunAll(w io.Writer, quick bool) error {
	_, err := RunAllRecords(w, quick, nil)
	return err
}

// RunAllRecords renders every experiment table to w and returns the rows
// as machine-readable records, one per table row. When the governor stops
// a sweep, the rows computed so far are still rendered and returned,
// followed by one Status "timeout" record carrying the partial-verdict
// diagnostic, and the *guard.LimitErr is returned for the caller's exit
// code; other errors abort with no records as before.
func RunAllRecords(w io.Writer, quick bool, g *guard.G) ([]Record, error) {
	var recs []Record
	for _, e := range All() {
		t, err := e.Run(quick, g)
		if err != nil {
			var le *guard.LimitErr
			if errors.As(err, &le) {
				if t != nil && len(t.Rows) > 0 {
					t.Caption = e.ID + ": " + e.Claim + " (partial: stopped by governor)"
					if rerr := t.Render(w); rerr != nil {
						return nil, rerr
					}
					recs = append(recs, t.Records(e.ID, e.Claim)...)
				}
				recs = append(recs, TimeoutRecord(e, le))
				return recs, fmt.Errorf("%s: %w", e.ID, err)
			}
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		t.Caption = e.ID + ": " + e.Claim
		if err := t.Render(w); err != nil {
			return nil, err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return nil, err
		}
		recs = append(recs, t.Records(e.ID, e.Claim)...)
	}
	return recs, nil
}

// TimeoutRecord is the machine-readable form of a governor stop: Row −1
// so it cannot be mistaken for a data row, Status "timeout", and the
// partial verdict in the shared verdictjson encoding.
func TimeoutRecord(e Experiment, le *guard.LimitErr) Record {
	return Record{
		Experiment: e.ID,
		Claim:      e.Claim,
		Row:        -1,
		Status:     "timeout",
		Reason:     le.Reason.Error(),
		Partial:    verdictjson.PartialOf(le.Partial),
	}
}

// E1 times Proposition 1 on growing all-linear chains.
func E1(quick bool, g *guard.G) (*Table, error) {
	sizes := []int{10, 100, 1000, 10000}
	if quick {
		sizes = []int{10, 100, 1000}
	}
	t := &Table{Header: []string{"processes", "network size", "verdict", "linear algo", "ns per size unit"}}
	for _, m := range sizes {
		if err := rowPoll(g, t); err != nil {
			return t, err
		}
		n, err := LinearChain(m, 2)
		if err != nil {
			return nil, err
		}
		var verdict bool
		d, err := timed(func() error {
			var err error
			verdict, err = linear.Analyze(n, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(m, n.Size(), verdict, d, float64(d.Nanoseconds())/float64(n.Size()))
	}
	return t, nil
}

// E2 cross-validates the case (1) gadgets against DPLL and times the
// reference decision as formulas grow.
func E2(quick bool, g *guard.G) (*Table, error) {
	varSizes := []int{2, 4, 6, 8, 10}
	if quick {
		varSizes = []int{2, 4, 6}
	}
	return satExperimentSizes(varSizes, g, reduce.SatGadgetCase1, reduce.BlockingGadgetCase1)
}

// E3 is E2 for the case (2) gadgets. The case (2) network has one process
// per variable AND per clause, so its global state space outgrows the
// case (1) star much sooner; the sweep stays below that wall.
func E3(quick bool, g *guard.G) (*Table, error) {
	sizes := []int{2, 3, 4, 5, 6}
	if quick {
		sizes = []int{2, 3, 4}
	}
	return satExperimentSizes(sizes, g, reduce.SatGadgetCase2, reduce.BlockingGadgetCase2)
}

func satExperimentSizes(varSizes []int, g *guard.G,
	satGadget, blockGadget func(*sat.CNF) (*network.Network, error)) (*Table, error) {
	t := &Table{Header: []string{
		"vars", "clauses", "net size", "SAT", "S_c", "¬S_u", "agree", "S_c time", "DPLL time"}}
	for i, vars := range varSizes {
		if err := rowPoll(g, t); err != nil {
			return t, err
		}
		f := SatInstance(int64(1000+i), vars)
		want, _ := sat.Solve(f)
		var dpllTime time.Duration
		dpllTime, _ = timed(func() error { _, _ = sat.Solve(f); return nil })

		n, err := satGadget(f)
		if err != nil {
			return nil, err
		}
		q, err := n.Context(0, false)
		if err != nil {
			return nil, err
		}
		var sc bool
		scTime, err := timed(func() error {
			var err error
			sc, err = success.CollaborationAcyclic(n.Process(0), q)
			return err
		})
		if err != nil {
			return nil, err
		}
		bn, err := blockGadget(f)
		if err != nil {
			return nil, err
		}
		bq, err := bn.Context(0, false)
		if err != nil {
			return nil, err
		}
		su, err := success.UnavoidableAcyclic(bn.Process(0), bq)
		if err != nil {
			return nil, err
		}
		agree := sc == want && !su == want
		t.Add(vars, len(f.Clauses), n.Size(), want, sc, !su, agree, scTime, dpllTime)
	}
	return t, nil
}

// E4 cross-validates the QBF gadget against the QBF solver and times the
// belief-set game.
func E4(quick bool, g *guard.G) (*Table, error) {
	varSizes := []int{2, 3, 4, 5}
	if quick {
		varSizes = []int{2, 3}
	}
	t := &Table{Header: []string{
		"vars", "net size", "ctx states", "valid", "S_a", "agree", "game pairs", "game time", "QBF time"}}
	for i, vars := range varSizes {
		if err := rowPoll(g, t); err != nil {
			return t, err
		}
		q := QbfInstance(int64(2000+i), vars)
		want, err := sat.SolveQBF(q)
		if err != nil {
			return nil, err
		}
		qbfTime, _ := timed(func() error { _, err := sat.SolveQBF(q); return err })
		n, err := reduce.QbfGadget(q)
		if err != nil {
			return nil, err
		}
		ctx, err := n.Context(0, false)
		if err != nil {
			return nil, err
		}
		var sa bool
		gameTime, err := timed(func() error {
			var err error
			sa, err = success.AdversityAcyclic(n.Process(0), ctx)
			return err
		})
		if err != nil {
			return nil, err
		}
		pairs, err := game.ReachablePairsOpts(n.Process(0), ctx, game.Options{Guard: g})
		if err != nil {
			return nil, err
		}
		t.Add(vars, n.Size(), ctx.NumStates(), want, sa, sa == want, pairs, gameTime, qbfTime)
	}
	return t, nil
}

// E5 compares the Theorem 3 solver with the global reference on growing
// tree networks.
func E5(quick bool, g *guard.G) (*Table, error) {
	sizes := []int{3, 5, 7, 9, 11}
	if quick {
		sizes = []int{3, 5, 7}
	}
	t := &Table{Header: []string{
		"processes", "net size", "treesolve", "reference", "match", "treesolve time", "reference time"}}
	for i, m := range sizes {
		if err := rowPoll(g, t); err != nil {
			return t, err
		}
		n, err := TreeNetwork(int64(3000+i), m)
		if err != nil {
			return nil, err
		}
		var tv success.Verdict
		treeTime, err := timed(func() error {
			var err error
			tv, err = treesolve.Analyze(n, 0, treesolve.Options{Guard: g})
			return err
		})
		if err != nil {
			return t, err
		}
		var rv success.Verdict
		refTime, err := timed(func() error {
			var err error
			rv, err = success.AnalyzeAcyclicOpts(n, 0, success.Options{Guard: g})
			return err
		})
		if err != nil {
			return t, err
		}
		t.Add(m, n.Size(), tv, rv, tv == rv, treeTime, refTime)
	}
	return t, nil
}

// E6 analyzes rings through the Figure 8a folding (k = 2).
func E6(quick bool, g *guard.G) (*Table, error) {
	sizes := []int{4, 6, 8, 10}
	if quick {
		sizes = []int{4, 6}
	}
	t := &Table{Header: []string{
		"ring size", "classes", "ktree verdict", "reference", "match", "ktree time", "reference time"}}
	for i, m := range sizes {
		if err := rowPoll(g, t); err != nil {
			return t, err
		}
		n, err := RingNetwork(int64(4000+i), m)
		if err != nil {
			return nil, err
		}
		partition := network.RingPartition(m)
		var kv success.Verdict
		kTime, err := timed(func() error {
			var err error
			kv, err = treesolve.AnalyzeKTree(n, 0, partition, treesolve.Options{Guard: g})
			return err
		})
		if err != nil {
			return t, err
		}
		var rv success.Verdict
		rTime, err := timed(func() error {
			var err error
			rv, err = success.AnalyzeAcyclicOpts(n, 0, success.Options{Guard: g})
			return err
		})
		if err != nil {
			return t, err
		}
		t.Add(m, len(partition), kv, rv, kv == rv, kTime, rTime)
	}
	return t, nil
}

// E7 analyzes dining-philosopher rings: the greedy ring deadlocks
// (potential blocking), the asymmetric fix removes it, and the game's
// pair count grows exponentially (the dⁿ bound of Proposition 2).
func E7(quick bool, g *guard.G) (*Table, error) {
	sizes := []int{2, 3, 4, 5}
	if quick {
		sizes = []int{2, 3}
	}
	t := &Table{Header: []string{
		"philosophers", "variant", "S_u", "S_a", "S_c", "game pairs", "analysis time"}}
	for _, m := range sizes {
		for _, variant := range []string{"greedy", "polite"} {
			if err := rowPoll(g, t); err != nil {
				return t, err
			}
			var (
				n   *network.Network
				err error
			)
			if variant == "greedy" {
				n, err = Philosophers(m)
			} else {
				n, err = PhilosophersPolite(m)
			}
			if err != nil {
				return nil, err
			}
			var v success.Verdict
			d, err := timed(func() error {
				var err error
				v, err = success.AnalyzeCyclicOpts(n, 0, success.Options{Guard: g})
				return err
			})
			if err != nil {
				return t, err
			}
			q, err := n.Context(0, true)
			if err != nil {
				return nil, err
			}
			pairs, err := game.ReachablePairsOpts(n.Process(0), q, game.Options{Guard: g})
			if err != nil {
				return t, err
			}
			t.Add(m, variant, v.Su, v.Sa, v.Sc, pairs, d)
		}
	}
	return t, nil
}

// E8 compares the Theorem 4 numeric reduction with the explicit cyclic
// composition on multiply-by-2 chains (budgets of 2^m need binary coding).
func E8(quick bool, g *guard.G) (*Table, error) {
	sizes := []int{2, 4, 8, 16, 32}
	if quick {
		sizes = []int{2, 4, 8}
	}
	refLimit := 8 // the explicit composition blows up beyond this
	t := &Table{Header: []string{
		"chain length", "root budget", "S_c (unary)", "unary time", "S_c (reference)", "reference time"}}
	for _, m := range sizes {
		if err := rowPoll(g, t); err != nil {
			return t, err
		}
		n, err := DoublingChain(m, 3, false)
		if err != nil {
			return nil, err
		}
		var (
			sc    bool
			iface map[string]string
		)
		_ = iface
		uTime, err := timed(func() error {
			var err error
			sc, err = unary.Collaboration(n, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		counts, err := unary.Interface(n, 0)
		if err != nil {
			return nil, err
		}
		budget := counts["x0"].String()
		refCell, refTime := "skipped", "-"
		if m <= refLimit {
			q, err := n.Context(0, true)
			if err != nil {
				return nil, err
			}
			var rsc bool
			d, err := timed(func() error {
				var err error
				rsc, err = success.CollaborationCyclic(n.Process(0), q)
				return err
			})
			if err != nil {
				return nil, err
			}
			refCell = fmt.Sprint(rsc)
			refTime = formatDuration(d)
		}
		t.Add(m, budget, sc, uTime, refCell, refTime)
	}
	return t, nil
}

// E9 measures possibility-set sizes and normal-form construction
// throughput (the Lemma 2 machinery).
func E9(quick bool, g *guard.G) (*Table, error) {
	sizes := []int{4, 8, 12, 16}
	if quick {
		sizes = []int{4, 8}
	}
	t := &Table{Header: []string{
		"max states", "|Poss(Q)|", "NF states", "NF time", "congruence holds"}}
	for i, maxStates := range sizes {
		if err := rowPoll(g, t); err != nil {
			return t, err
		}
		p, q := RandomAcyclicPair(int64(5000+i), maxStates)
		set, err := poss.OfGuarded(q, poss.DefaultBudget, g)
		if err != nil {
			return t, err
		}
		var nfStates int
		d, err := timed(func() error {
			nf, err := poss.NormalForm("NF", set)
			if err != nil {
				return err
			}
			nfStates = nf.NumStates()
			return nil
		})
		if err != nil {
			return nil, err
		}
		nf, err := poss.NormalForm("NF", set)
		if err != nil {
			return nil, err
		}
		congruent := poss.Equivalent(
			composeForTest(p, q), composeForTest(p, nf))
		t.Add(maxStates, set.Len(), nfStates, d, congruent)
	}
	return t, nil
}

// composeForTest wraps fsp.Compose for E9.
func composeForTest(p, q *fsp.FSP) *fsp.FSP { return fsp.Compose(p, q) }

// E10 is the normal-form ablation: Theorem 3 with and without the
// possibility normal form on deep chains, where the raw subtree
// composition grows with depth but the interface behavior does not.
func E10(quick bool, g *guard.G) (*Table, error) {
	sizes := []int{4, 8, 12, 16}
	if quick {
		sizes = []int{4, 8}
	}
	t := &Table{Header: []string{
		"chain length", "leaf size (NF)", "leaf size (raw)", "verdict match",
		"time (NF)", "time (raw)"}}
	for i, m := range sizes {
		if err := rowPoll(g, t); err != nil {
			return t, err
		}
		n, err := DeepChain(int64(6000+i), m)
		if err != nil {
			return nil, err
		}
		var vNF, vRaw success.Verdict
		star, err := treesolve.Reduce(n, 0, treesolve.Options{Guard: g})
		if err != nil {
			return t, err
		}
		nfSize := sum(star.LeafSizes())
		dNF, err := timed(func() error {
			var err error
			vNF, err = treesolve.Analyze(n, 0, treesolve.Options{Guard: g})
			return err
		})
		if err != nil {
			return t, err
		}
		rawStar, err := treesolve.Reduce(n, 0, treesolve.Options{NoNormalForm: true, Guard: g})
		if err != nil {
			return t, err
		}
		rawSize := sum(rawStar.LeafSizes())
		dRaw, err := timed(func() error {
			var err error
			vRaw, err = treesolve.Analyze(n, 0, treesolve.Options{NoNormalForm: true, Guard: g})
			return err
		})
		if err != nil {
			return t, err
		}
		t.Add(m, nfSize, rawSize, vNF == vRaw, dNF, dRaw)
	}
	return t, nil
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
