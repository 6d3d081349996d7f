package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fspnet/internal/explore"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/success"
)

// A reference verdict is three bytes, S_u S_a S_c, each 't', 'f', or '?'
// when not computed (S_a of a network only ever sent with
// predicates=reach).
const refUnknown = '?'

// composeRawCap is the compose oracle's budget: it folds the whole
// context with ‖ and is not governed inside a stage, so it is used only
// on trees whose raw joint space Π|S_i| is at most this.
const composeRawCap = 2e4

// familyCheckM is the largest ring the unreduced engines cross-check a
// family rule on.
const familyCheckM = 8

//go:embed testdata/refs-seed*.json
var committedRefs embed.FS

// refsFile is the on-disk form of a seed's reference verdicts: per
// network list, the verdict codes of a prefix of the list, and digests
// that tie the codes to the networks they were computed from.
type refsFile struct {
	Seed  int64      `json:"seed"`
	Lists []refsList `json:"lists"`
}

type refsList struct {
	Name string `json:"name"`
	// Codes holds three bytes per network (S_u S_a S_c).
	Codes string `json:"codes"`
	// Checkpoints[j] is the chain digest of the list's first
	// (j+1)·refsCheckpoint canonical texts.
	Checkpoints []string `json:"checkpoints"`
}

// refsCheckpoint is the spacing of the chain digests. A run trusts a
// committed code only up to the last checkpoint its own networks
// reproduce, and recomputes the rest.
const refsCheckpoint = 250

// refs maps a list name to the verdict codes of its networks.
type refs map[string][]byte

// chainDigests returns the chain digest after every refsCheckpoint
// networks: h_i = SHA-256(h_{i-1} ‖ SHA-256(text_i)).
func chainDigests(nets []*netSpec) []string {
	var out []string
	var h [sha256.Size]byte
	for i, n := range nets {
		t := sha256.Sum256([]byte(n.text))
		h = sha256.Sum256(append(h[:], t[:]...))
		if (i+1)%refsCheckpoint == 0 {
			out = append(out, hex.EncodeToString(h[:]))
		}
	}
	return out
}

// trusted returns how many of rl's codes nets reproduces: the length of
// the longest checkpointed prefix whose digests all match.
func (rl refsList) trusted(nets []*netSpec) int {
	got := chainDigests(nets)
	k := 0
	for j := 0; j < len(got) && j < len(rl.Checkpoints) && got[j] == rl.Checkpoints[j]; j++ {
		k = (j + 1) * refsCheckpoint
	}
	return min(k, len(rl.Codes)/3)
}

// loadCommittedRefs returns the committed references for seed, or nil.
func loadCommittedRefs(seed int64) (*refsFile, error) {
	data, err := committedRefs.ReadFile(fmt.Sprintf("testdata/refs-seed%d.json", seed))
	if err != nil {
		return nil, nil // no committed references for this seed
	}
	var f refsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("committed refs for seed %d: %w", seed, err)
	}
	return &f, nil
}

// resolveRefs returns a verdict code for every network c sends, taking
// what the committed references reproducibly cover and computing the
// rest with the reference engines. computed reports how many networks
// that took.
func resolveRefs(c *corpus, seed int64, needSa map[string]bool, workers int) (refs, int, error) {
	rf, err := loadCommittedRefs(seed)
	if err != nil {
		return nil, 0, err
	}
	out := refs{}
	var todo []refTask
	for _, l := range c.lists() {
		nets := c.nets[l.name]
		codes := bytes.Repeat([]byte{refUnknown}, 3*len(nets))
		if rf != nil {
			for _, rl := range rf.Lists {
				if rl.Name != l.name {
					continue
				}
				k := rl.trusted(nets)
				if k == 0 && len(nets) >= refsCheckpoint {
					fmt.Fprintf(os.Stderr, "fspperf: committed refs for %s are stale; recomputing\n", l.name)
				}
				copy(codes, rl.Codes[:3*k])
			}
		}
		for i := range nets {
			code := codes[3*i : 3*i+3]
			if code[0] == refUnknown || (needSa[l.name] && code[1] == refUnknown) {
				todo = append(todo, refTask{nets[i], code, needSa[l.name]})
			}
		}
		out[l.name] = codes
	}
	if err := computeRefs(todo, workers); err != nil {
		return nil, 0, err
	}
	return out, len(todo), nil
}

type refTask struct {
	n      *netSpec
	code   []byte // written in place
	needSa bool
}

// computeRefs fills every task's code on a fixed set of workers.
func computeRefs(tasks []refTask, workers int) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				code, err := referenceVerdict(t.n, t.needSa)
				if err != nil {
					errOnce.Do(func() { first = err })
					return
				}
				copy(t.code, code[:])
			}
		}()
	}
	wg.Wait()
	return first
}

func tf(b bool) byte {
	if b {
		return 't'
	}
	return 'f'
}

// referenceVerdict decides n with engines independent of the service's
// fast path. Trees use the compose oracle within its budget and the
// unreduced sequential engines beyond it. Rings follow their family
// rule — philosophers deadlock but can cooperate (S_u=S_a=false,
// S_c=true); buffer rings never block (all true) — cross-checked by the
// unreduced engines up to familyCheckM.
func referenceVerdict(n *netSpec, needSa bool) ([3]byte, error) {
	cyclic := n.fam != famTree
	switch n.fam {
	case famTree:
		raw := 1.0
		for i := 0; i < n.net.Len(); i++ {
			raw *= float64(n.net.Process(i).NumStates())
		}
		if raw <= composeRawCap {
			v, err := success.AnalyzeAcyclicOpts(n.net, 0, success.Options{Backend: success.BackendCompose})
			if err != nil {
				return [3]byte{}, fmt.Errorf("compose oracle on %s: %w", n.proc, err)
			}
			return [3]byte{tf(v.Su), tf(v.Sa), tf(v.Sc)}, nil
		}
		return unreduced(n, false, needSa)
	case famPhil:
		rule := [3]byte{'f', 'f', 't'}
		return checkRule(n, rule, cyclic)
	default:
		rule := [3]byte{'t', 't', 't'}
		return checkRule(n, rule, cyclic)
	}
}

func checkRule(n *netSpec, rule [3]byte, cyclic bool) ([3]byte, error) {
	if n.m > familyCheckM {
		return rule, nil
	}
	got, err := unreduced(n, cyclic, true)
	if err != nil {
		return [3]byte{}, err
	}
	if got != rule {
		return [3]byte{}, fmt.Errorf("%s ring of %d: unreduced engines give %s, family rule %s", n.fam, n.m, got[:], rule[:])
	}
	return rule, nil
}

// unreduced runs the explore and belief engines with symmetry, probes,
// antichains and parallelism all off.
func unreduced(n *netSpec, cyclic, needSa bool) ([3]byte, error) {
	eo := explore.Options{Workers: 1, Tune: explore.Tuning{NoSymmetry: true, NoProbe: true}}
	bt := belief.Tuning{NoAntichain: true, NoSymmetry: true, NoProbe: true, Workers: 1}
	var (
		res explore.Result
		err error
		sa  bool
	)
	if cyclic {
		res, err = explore.AnalyzeCyclic(n.net, 0, eo)
	} else {
		res, err = explore.AnalyzeAcyclic(n.net, 0, eo)
	}
	if err != nil {
		return [3]byte{}, fmt.Errorf("unreduced explore on %s: %w", n.proc, err)
	}
	code := [3]byte{tf(res.Su), refUnknown, tf(res.Sc)}
	if !needSa {
		return code, nil
	}
	if cyclic {
		sa, _, err = belief.SolveCyclicTuned(n.net, 0, game.Options{}, bt)
	} else {
		sa, _, err = belief.SolveAcyclicTuned(n.net, 0, game.Options{}, bt)
	}
	if err != nil {
		return [3]byte{}, fmt.Errorf("unreduced belief on %s: %w", n.proc, err)
	}
	code[1] = tf(sa)
	return code, nil
}

// writeRefs computes the full references of every workload's default
// corpus for seed and writes them to dir/refs-seed<seed>.json.
func writeRefs(dir string, seed int64, seconds float64, workers int) error {
	merged := map[string][]*netSpec{}
	for _, w := range workloads {
		c := buildCorpus(w, seed, seconds)
		for name, nets := range c.nets {
			if len(nets) > len(merged[name]) {
				merged[name] = nets
			}
		}
	}
	f := refsFile{Seed: seed}
	for _, l := range allLists {
		nets := merged[l.name]
		if len(nets) == 0 {
			continue
		}
		codes := make([]byte, 3*len(nets))
		tasks := make([]refTask, len(nets))
		for i, n := range nets {
			tasks[i] = refTask{n, codes[3*i : 3*i+3], true}
		}
		if err := computeRefs(tasks, workers); err != nil {
			return err
		}
		f.Lists = append(f.Lists, refsList{Name: l.name, Codes: string(codes), Checkpoints: chainDigests(nets)})
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("refs-seed%d.json", seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("fspperf: wrote %s\n", path)
	return nil
}
