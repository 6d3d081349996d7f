// Command fspc analyzes a network of communicating finite state processes
// written in the fsplang notation: it classifies the network, decides the
// three success predicates of Kanellakis & Smolka (unavoidable success,
// success in adversity, success with collaboration) for a distinguished
// process, and optionally emits Graphviz renderings.
//
// Usage:
//
//	fspc [-p N] [-algo auto|reference|tree|linear|unary] [-format text|json] [-timeout 10s] [-dot] [-lint] file.fsp
//
// With "-" as the file, input is read from stdin. When -timeout expires
// before the analysis finishes, fspc exits with code 3 and prints the
// partial verdict (states explored, pass in progress, elapsed time) on
// stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fspnet/internal/fsp"
	"fspnet/internal/fsplang"
	"fspnet/internal/game"
	"fspnet/internal/guard"
	"fspnet/internal/linear"
	"fspnet/internal/network"
	"fspnet/internal/poss"
	"fspnet/internal/speclint"
	"fspnet/internal/success"
	"fspnet/internal/treesolve"
	"fspnet/internal/unary"
	"fspnet/internal/verdictjson"
)

// errLint reports that -lint found diagnostics; it maps to exit code 2,
// matching fsplint's convention for "the input is understood but dirty".
var errLint = errors.New("specification has lint findings")

func main() {
	os.Exit(exitCode(os.Stderr, run(os.Args[1:], os.Stdin, os.Stdout)))
}

// exitCode maps run's outcome to the process exit code, writing the
// diagnostic to stderr: 0 on success, 3 on a governor stop (deadline,
// budget, cancellation — the run produced a well-formed partial verdict),
// 2 on lint findings under -lint, 1 on any other failure.
func exitCode(stderr io.Writer, err error) int {
	if err == nil {
		return 0
	}
	var le *guard.LimitErr
	if errors.As(err, &le) {
		fmt.Fprintln(stderr, "fspc:", le.Reason)
		fmt.Fprintln(stderr, "fspc: partial:", le.Partial)
		return 3
	}
	if errors.Is(err, errLint) {
		fmt.Fprintln(stderr, "fspc:", err)
		return 2
	}
	fmt.Fprintln(stderr, "fspc:", err)
	return 1
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("fspc", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		dist = fs.Int("p", 0, "index of the distinguished process")
		algo = fs.String("algo", "auto",
			"decision algorithm: auto, reference, tree (Theorem 3), linear (Proposition 1), unary (Theorem 4), poss (Lemmas 3–4)")
		engine = fs.String("engine", "explore",
			"backend for the reference algorithm: explore (compose-free — on-the-fly joint vectors for S_u/S_c, the bitset belief game for S_a) or compose (materialized context); on budget or deadline exhaustion fspc exits 3 with a partial verdict (structured verdictjson under -json)")
		dot      = fs.Bool("dot", false, "emit Graphviz for every process instead of analyzing")
		all      = fs.Bool("all", false, "analyze every process (concurrently) instead of just -p")
		format   = fs.String("format", "text", "output format: text, or json (reference algorithm, verdictjson records — byte-identical to the fspd service)")
		jsonOut  = fs.Bool("json", false, "shorthand for -format json")
		witness  = fs.Bool("witness", false, "print collaboration and blocking traces (acyclic networks)")
		strategy = fs.Bool("strategy", false, "print a winning strategy for the adversity game when one exists")
		timeout  = fs.Duration("timeout", 0, "wall-clock deadline for the analysis (0 = none); exits 3 with a partial verdict")
		lint     = fs.Bool("lint", false, "lint the specification with speclint and exit without analyzing; exits 2 on findings")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h is a successful outcome, not a failure
		}
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one input file, got %d", fs.NArg())
	}
	var src io.Reader
	name := fs.Arg(0)
	if name == "-" {
		src = stdin
		name = "stdin"
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	data, err := io.ReadAll(src)
	if err != nil {
		return err
	}
	if *lint {
		// Lint mode works on the validation-free spec layer, so specs
		// that network construction would reject (an unmatched action, an
		// unreachable state) still get positioned diagnostics instead of
		// one opaque error.
		diags, err := speclint.Run(name, string(data))
		if err != nil {
			return err
		}
		for _, d := range diags {
			if *jsonOut || *format == "json" {
				line, err := json.Marshal(d)
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, string(line))
			} else {
				fmt.Fprintln(stdout, d)
			}
		}
		if len(diags) > 0 {
			return errLint
		}
		return nil
	}
	n, err := fsplang.ParseString(string(data))
	if err != nil {
		return err
	}
	// ParseSpec accepts everything ParseString accepts, so the lint pass
	// cannot fail here; its non-waived findings become analyze warnings.
	warnings, _ := speclint.Run(name, string(data))
	opts, err := engineOptions(*engine)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		opts.Guard = guard.New(guard.Config{Deadline: time.Now().Add(*timeout)}) //fsplint:ignore detrand deadline anchor for the -timeout flag
	}
	if *dist < 0 || *dist >= n.Len() {
		return fmt.Errorf("process index %d out of range [0,%d)", *dist, n.Len())
	}
	if *dot {
		for i := 0; i < n.Len(); i++ {
			if err := n.Process(i).WriteDOT(stdout); err != nil {
				return err
			}
		}
		return nil
	}
	switch *format {
	case "text":
		if *jsonOut {
			return jsonReport(stdout, n, *dist, *all, opts, warnings)
		}
	case "json":
		return jsonReport(stdout, n, *dist, *all, opts, warnings)
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
	describe(stdout, n, *dist)
	for _, d := range warnings {
		fmt.Fprintf(stdout, "warning: %s\n", d)
	}
	if *all {
		return analyzeAll(stdout, n, opts)
	}
	if err := analyze(stdout, n, *dist, *algo, opts); err != nil {
		return err
	}
	if *witness {
		if err := printWitnesses(stdout, n, *dist); err != nil {
			return err
		}
	}
	if *strategy {
		if err := printStrategy(stdout, n, *dist); err != nil {
			return err
		}
	}
	return nil
}

// engineOptions maps the -engine flag to the success backend options:
// "explore" is the compose-free default (S_u/S_c from internal/explore,
// S_a from internal/game/belief), "compose" the compose-then-explore
// oracle.
func engineOptions(name string) (success.Options, error) {
	switch name {
	case "explore":
		return success.Options{Backend: success.BackendExplore}, nil
	case "compose":
		return success.Options{Backend: success.BackendCompose}, nil
	default:
		return success.Options{}, fmt.Errorf("unknown engine %q (want explore or compose)", name)
	}
}

// analyzeAll runs the concurrent whole-network analysis.
func analyzeAll(w io.Writer, n *network.Network, opts success.Options) error {
	cyclic := n.MaxClass() == fsp.ClassCyclic
	results, err := success.AnalyzeAllOpts(context.Background(), n, cyclic, 0, opts)
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%-12s error: %v\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-12s %s\n", r.Name, r.Verdict)
	}
	return nil
}

// printWitnesses prints a collaboration schedule and, if one exists, a
// blocking trace for the distinguished process.
func printWitnesses(w io.Writer, n *network.Network, dist int) error {
	cyclic := n.MaxClass() == fsp.ClassCyclic
	if cyclic {
		tr, ok, err := success.BlockingWitnessCyclicNet(n, dist)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Fprintln(w, "no blocking trace: S_u holds")
			return nil
		}
		fmt.Fprintln(w, "blocking trace (¬S_u):")
		fmt.Fprint(w, tr)
		return nil
	}
	tr, ok, err := success.CollaborationWitnessNet(n, dist)
	if err != nil {
		return err
	}
	if ok {
		fmt.Fprintln(w, "collaboration schedule (S_c):")
		fmt.Fprint(w, tr)
	} else {
		fmt.Fprintln(w, "no collaboration schedule: S_c fails")
	}
	btr, blocked, err := success.BlockingWitnessNet(n, dist)
	if err != nil {
		return err
	}
	if blocked {
		fmt.Fprintln(w, "blocking trace (¬S_u):")
		fmt.Fprint(w, btr)
	} else {
		fmt.Fprintln(w, "no blocking trace: S_u holds")
	}
	return nil
}

// printStrategy prints a winning strategy for the adversity game.
func printStrategy(w io.Writer, n *network.Network, dist int) error {
	q, err := n.Context(dist, false)
	if err != nil {
		return err
	}
	win, strat, err := game.AcyclicStrategy(n.Process(dist), q)
	if err != nil {
		return err
	}
	if !win {
		fmt.Fprintln(w, "no winning strategy: S_a fails")
		return nil
	}
	if len(strat) == 0 {
		fmt.Fprintln(w, "winning strategy: trivial (start state is a leaf)")
		return nil
	}
	fmt.Fprintln(w, "winning strategy (S_a):")
	fmt.Fprint(w, strat)
	return nil
}

func describe(w io.Writer, n *network.Network, dist int) {
	fmt.Fprintf(w, "network: %d processes, size %d\n", n.Len(), n.Size())
	g := n.Graph()
	shape := "general"
	switch {
	case g.IsTree():
		shape = "tree"
	case g.IsRing():
		shape = "ring"
	}
	fmt.Fprintf(w, "C_N: %s (%d edges, largest biconnected block %d)\n",
		shape, g.NumEdges(), g.MaxBlockSize())
	for i := 0; i < n.Len(); i++ {
		p := n.Process(i)
		marker := " "
		if i == dist {
			marker = "*"
		}
		fmt.Fprintf(w, "%s %-12s %-8s states=%-4d trans=%-4d Σ=%v\n",
			marker, p.Name(), p.Classify(), p.NumStates(), p.NumTransitions(), p.Alphabet())
	}
}

func analyze(w io.Writer, n *network.Network, dist int, algo string, opts success.Options) error {
	cyclic := n.MaxClass() == fsp.ClassCyclic
	switch algo {
	case "auto":
		switch {
		case !cyclic && n.MaxClass() == fsp.ClassLinear:
			algo = "linear"
		case !cyclic && n.MaxClass().AtMost(fsp.ClassTree) && n.Graph().IsTree() && tauFree(n.Process(dist)):
			algo = "tree"
		default:
			algo = "reference"
		}
		fmt.Fprintf(w, "algorithm: %s (auto)\n", algo)
	default:
		fmt.Fprintf(w, "algorithm: %s\n", algo)
	}
	switch algo {
	case "linear":
		ok, err := linear.Analyze(n, dist)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Proposition 1: S_u = S_a = S_c = %t\n", ok)
	case "tree":
		v, err := treesolve.Analyze(n, dist, treesolve.Options{Guard: opts.Guard})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Theorem 3: %s\n", v)
	case "unary":
		sc, err := unary.Collaboration(n, dist)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Theorem 4: S_c = %t\n", sc)
	case "poss":
		q, err := n.Context(dist, false)
		if err != nil {
			return err
		}
		sc, err := success.CollaborationLemma3(n.Process(dist), q, 0)
		if err != nil {
			return err
		}
		su, err := success.UnavoidableLemma4(n.Process(dist), q, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Lemmas 3–4 (possibility calculus): S_u=%t S_c=%t\n", su, sc)
		if s, x, y, ok, err := success.Lemma4Witness(n.Process(dist), q, 0); err != nil {
			return err
		} else if ok {
			fmt.Fprintf(w, "Lemma 4 blocking witness: s=%s X=%s Y=%s\n",
				poss.StringOfActions(s), fsp.ActionSetString(x), fsp.ActionSetString(y))
		}
	case "reference":
		if cyclic {
			v, err := success.AnalyzeCyclicOpts(n, dist, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "reference (cyclic, §4): %s\n", v)
		} else {
			v, err := success.AnalyzeAcyclicOpts(n, dist, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "reference (acyclic, §3): %s\n", v)
		}
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	return nil
}

func tauFree(p *fsp.FSP) bool {
	for _, t := range p.Transitions() {
		if t.Label == fsp.Tau {
			return false
		}
	}
	return true
}

// report is the machine-readable (-format json) output schema. Results
// carries the shared verdictjson records, so a per-process outcome here
// is byte-identical to the record the fspd service caches and serves.
type report struct {
	Processes []processInfo        `json:"processes"`
	CN        graphInfo            `json:"communicationGraph"`
	Algorithm string               `json:"algorithm"`
	Results   []verdictjson.Record `json:"results"`
	// Warnings are the non-waived speclint findings for the input spec,
	// in the same shape fsplint -json and fspd's /v1/lint emit.
	Warnings []speclint.Diagnostic `json:"warnings,omitempty"`
}

type processInfo struct {
	Name        string   `json:"name"`
	Class       string   `json:"class"`
	States      int      `json:"states"`
	Transitions int      `json:"transitions"`
	Alphabet    []string `json:"alphabet"`
}

type graphInfo struct {
	Tree     bool `json:"tree"`
	Ring     bool `json:"ring"`
	Edges    int  `json:"edges"`
	MaxBlock int  `json:"maxBiconnectedBlock"`
}

// jsonReport analyzes with the reference procedures and emits the report.
// A governor stop (deadline, budget) becomes a status "partial" record
// for that process — the remaining processes still run — and the first
// such error is returned after the report is written, so the exit code
// (3) and stderr diagnostics match the text path.
func jsonReport(w io.Writer, n *network.Network, dist int, all bool, opts success.Options, warnings []speclint.Diagnostic) error {
	rep := report{Algorithm: "reference", Warnings: warnings}
	for i := 0; i < n.Len(); i++ {
		p := n.Process(i)
		alpha := make([]string, 0, len(p.Alphabet()))
		for _, a := range p.Alphabet() {
			alpha = append(alpha, string(a))
		}
		rep.Processes = append(rep.Processes, processInfo{
			Name:        p.Name(),
			Class:       p.Classify().String(),
			States:      p.NumStates(),
			Transitions: p.NumTransitions(),
			Alphabet:    alpha,
		})
	}
	g := n.Graph()
	rep.CN = graphInfo{Tree: g.IsTree(), Ring: g.IsRing(), Edges: g.NumEdges(), MaxBlock: g.MaxBlockSize()}
	cyclic := n.MaxClass() == fsp.ClassCyclic
	targets := []int{dist}
	if all {
		targets = nil
		for i := 0; i < n.Len(); i++ {
			targets = append(targets, i)
		}
	}
	var limitErr error
	for _, i := range targets {
		name := n.Process(i).Name()
		var (
			v   success.Verdict
			err error
		)
		if cyclic {
			v, err = success.AnalyzeCyclicOpts(n, i, opts)
		} else {
			v, err = success.AnalyzeAcyclicOpts(n, i, opts)
		}
		if err != nil {
			rep.Results = append(rep.Results, verdictjson.FromError(name, err))
			if limitErr == nil && guard.IsLimit(err) {
				limitErr = err
			}
		} else {
			rep.Results = append(rep.Results, verdictjson.OK(name, v))
		}
	}
	if err := verdictjson.Encode(w, rep); err != nil {
		return err
	}
	return limitErr
}
