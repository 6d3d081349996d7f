package bench

import (
	"errors"
	"fmt"

	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/guard"
	"fspnet/internal/network"
)

// E12 races the compose-free bitset belief engine (internal/game/belief)
// against the compose-then-recurse S_a reference on the E11 families:
// acyclic random trees and the cyclic dining-philosophers ring. The
// belief engine enumerates only the context vectors jointly reachable
// with P, so it
// keeps deciding S_a at sizes where the reference's context fold exceeds
// its state budget — the same cliff E11 shows for S_u/S_c.
func E12(quick bool, g *guard.G) (*Table, error) {
	const composeBudget = 50000
	type fam struct {
		name   string
		cyclic bool
		sizes  []int
		build  func(m int) (*network.Network, error)
	}
	families := []fam{
		{"tree", false, []int{8, 12, 16, 20},
			func(m int) (*network.Network, error) { return TreeNetwork(int64(7000+m), m) }},
		{"philosophers", true, []int{4, 6, 8, 10, 12},
			func(m int) (*network.Network, error) { return Philosophers(m) }},
	}
	if quick {
		families[0].sizes = []int{4, 8}
		families[1].sizes = []int{2, 4}
	}
	t := &Table{Header: []string{"family", "m", "network size", "S_a",
		"ctx states", "beliefs", "positions", "belief engine", "reference", "agreement"}}
	for _, f := range families {
		for _, m := range f.sizes {
			if err := rowPoll(g, t); err != nil {
				return t, err
			}
			n, err := f.build(m)
			if err != nil {
				return nil, err
			}
			var (
				sa bool
				st belief.Stats
			)
			ed, err := timed(func() error {
				var err error
				if f.cyclic {
					sa, st, err = belief.SolveCyclic(n, 0, game.Options{Guard: g})
				} else {
					sa, st, err = belief.SolveAcyclic(n, 0, game.Options{Guard: g})
				}
				return err
			})
			if err != nil {
				return t, err
			}
			var refSa bool
			rd, rerr := timed(func() error {
				q, err := composeContextBudget(n, 0, f.cyclic, composeBudget)
				if err != nil {
					return err
				}
				if f.cyclic {
					refSa, err = game.SolveCyclic(n.Process(0), q)
				} else {
					refSa, err = game.SolveAcyclic(n.Process(0), q)
				}
				return err
			})
			var refCell, agreeCell string
			switch {
			case errors.Is(rerr, errComposeBudget):
				refCell = fmt.Sprintf("budget >%d", composeBudget)
				agreeCell = "engine only"
			case errors.Is(rerr, game.ErrBudget):
				refCell = "game budget"
				agreeCell = "engine only"
			case rerr != nil:
				return nil, rerr
			default:
				refCell = formatDuration(rd)
				agreeCell = fmt.Sprint(refSa == sa)
			}
			t.Add(f.name, m, n.Size(), sa, st.CtxStates, st.Beliefs, st.Positions,
				ed, refCell, agreeCell)
		}
	}
	return t, nil
}
