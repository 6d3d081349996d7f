//fsplint:testpath fspnet/internal/treesolve

// Package solver exercises guardpoll's worklist classification under a
// solver package path.
package solver

import "fspnet/internal/guard"

// Unpolled worklist: grows the slice it drains, never touches the
// governor.
func unpolled(start int, succ func(int) []int) []int {
	order := []int{start}
	for len(order) > 0 { // want `worklist loop over order never polls the governor`
		v := order[len(order)-1]
		order = order[:len(order)-1]
		order = append(order, succ(v)...)
	}
	return order
}

// Index-style sweep over a growing list, unpolled.
func unpolledSweep(g *guard.G, succ func(int) []int) int {
	list := []int{0}
	for u := 0; u < len(list); u++ { // want `worklist loop over list never polls the governor`
		list = append(list, succ(list[u])...)
	}
	return len(list)
}

// Direct poll in the body: fine.
func polled(g *guard.G, succ func(int) []int) error {
	work := []int{0}
	for len(work) > 0 {
		if err := g.Poll("pass", len(work)); err != nil {
			return err
		}
		v := work[len(work)-1]
		work = work[:len(work)-1]
		work = append(work, succ(v)...)
	}
	return nil
}

// Charge counts as governor access too (budget exhaustion stops the
// loop).
func charged(g *guard.G, succ func(int) []int) error {
	work := []int{0}
	for len(work) > 0 {
		if err := g.Charge(1); err != nil {
			return err
		}
		work = append(work[:len(work)-1], succ(work[len(work)-1])...)
	}
	return nil
}

// Growth and governor access both live in a local closure (the
// belief-solver idiom): fine.
func closurePolled(g *guard.G, succ func(int) []int) error {
	var work []int
	var failed error
	add := func(v int) {
		if err := g.Charge(1); err != nil {
			failed = err
			return
		}
		work = append(work, v)
	}
	add(0)
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range succ(v) {
			add(s)
		}
		if failed != nil {
			return failed
		}
	}
	return nil
}

// Growth through a closure that never polls: flagged.
func closureUnpolled(succ func(int) []int) int {
	var work []int
	push := func(v int) { work = append(work, v) }
	push(0)
	n := 0
	for len(work) > 0 { // want `worklist loop over work never polls the governor`
		v := work[len(work)-1]
		work = work[:len(work)-1]
		n++
		for _, s := range succ(v) {
			push(s)
		}
	}
	return n
}

// Governor access through a helper method (the sv.poll idiom): fine.
type sweeper struct {
	g *guard.G
	n int
}

func (s *sweeper) poll() error {
	if s.n%1024 != 0 {
		return nil
	}
	return s.g.Poll("sweep", s.n/1024)
}

func (s *sweeper) run(succ func(int) []int) error {
	work := []int{0}
	for len(work) > 0 {
		if err := s.poll(); err != nil {
			return err
		}
		s.n++
		v := work[len(work)-1]
		work = work[:len(work)-1]
		work = append(work, succ(v)...)
	}
	return nil
}

// Wholesale frontier replacement is growth; without a poll it is
// flagged.
func frontierUnpolled(succ func([]int) []int) int {
	frontier := []int{0}
	depth := 0
	for len(frontier) > 0 { // want `worklist loop over frontier never polls the governor`
		frontier = succ(frontier)
		depth++
	}
	return depth
}

// Pure drain (pops only): bounded by the initial contents, not a
// worklist — not flagged.
func drain(work []int) int {
	n := 0
	for len(work) > 0 {
		work = work[:len(work)-1]
		n++
	}
	return n
}

// Fixed-bound loop without len() in the condition: not a worklist.
func fixed(k int, succ func(int) []int) int {
	var out []int
	for i := 0; i < k; i++ {
		out = append(out, succ(i)...)
	}
	return len(out)
}

// A justified bound can be waived; the framework suppression applies.
func waived(start int, succ func(int) []int) []int {
	order := []int{start}
	//fsplint:ignore guardpoll bounded by member count, not state count
	for len(order) > 0 {
		v := order[len(order)-1]
		order = order[:len(order)-1]
		order = append(order, succ(v)...)
	}
	return order
}

// Parallel-worker worklist (the belief cyclic-sweep idiom): the level
// loop replaces the wave wholesale, and the governor polls happen
// inside the goroutine-closure chunk workers. The analyzer descends
// into FuncLits, so the inner poll keeps the loop clean.
func workerPolled(g *guard.G, chunks func([]int) [][]int, succ func(int) []int) error {
	wave := []int{0}
	errs := make([]error, 2)
	for len(wave) > 0 {
		parts := chunks(wave)
		done := make(chan struct{}, len(parts))
		next := make([][]int, len(parts))
		for w, part := range parts {
			go func(w int, part []int) {
				defer func() { done <- struct{}{} }()
				for k, v := range part {
					if k%64 == 0 {
						if err := g.Poll("worker", k); err != nil {
							errs[w] = err
							return
						}
					}
					next[w] = append(next[w], succ(v)...)
				}
			}(w, part)
		}
		for range parts {
			<-done
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		wave = wave[:0]
		for _, buf := range next {
			wave = append(wave, buf...)
		}
	}
	return nil
}

// Sequential dense-id BFS (the explore BFS idiom): the interner assigns
// ids in discovery order over one flat arena, so a level's fresh states
// are the arena tail and the frontier is replaced wholesale by that tail
// each level. The governor is polled at the head of every level and
// charged with the level's fresh states at its end: clean.
type denseInterner struct {
	ids  map[int]int32
	vecs []int
}

func (in *denseInterner) intern(v int) (int32, bool) {
	if id, ok := in.ids[v]; ok {
		return id, false
	}
	id := int32(len(in.vecs))
	in.ids[v] = id
	in.vecs = append(in.vecs, v)
	return id, true
}

// from returns the arena from id on.
func (in *denseInterner) from(id int) []int { return in.vecs[id:] }

func densePolled(g *guard.G, succ func(int) []int) error {
	in := &denseInterner{ids: map[int]int32{}}
	in.intern(0)
	frontier := in.from(0)
	depth := 0
	for len(frontier) > 0 {
		if err := g.Poll("bfs", depth); err != nil {
			return err
		}
		next := len(in.vecs)
		for _, v := range frontier {
			for _, s := range succ(v) {
				in.intern(s)
			}
		}
		depth++
		frontier = in.from(next)
		if err := g.Charge(len(in.vecs) - next); err != nil {
			return err
		}
	}
	return nil
}

// The same sequential BFS without the level poll and charge: interning
// bounds nothing but repeats, so the loop is an ungoverned worklist —
// flagged.
func denseUnpolled(succ func(int) []int) int {
	in := &denseInterner{ids: map[int]int32{}}
	in.intern(0)
	frontier := in.from(0)
	depth := 0
	for len(frontier) > 0 { // want `worklist loop over frontier never polls the governor`
		next := len(in.vecs)
		for _, v := range frontier {
			for _, s := range succ(v) {
				in.intern(s)
			}
		}
		depth++
		frontier = in.from(next)
	}
	return depth
}

// The parallel-worker shape with workers that never touch the governor:
// still a worklist, still flagged.
func workerUnpolled(chunks func([]int) [][]int, succ func(int) []int) int {
	wave := []int{0}
	rounds := 0
	for len(wave) > 0 { // want `worklist loop over wave never polls the governor`
		parts := chunks(wave)
		done := make(chan struct{}, len(parts))
		next := make([][]int, len(parts))
		for w, part := range parts {
			go func(w int, part []int) {
				defer func() { done <- struct{}{} }()
				for _, v := range part {
					next[w] = append(next[w], succ(v)...)
				}
			}(w, part)
		}
		for range parts {
			<-done
		}
		wave = wave[:0]
		for _, buf := range next {
			wave = append(wave, buf...)
		}
		rounds++
	}
	return rounds
}
