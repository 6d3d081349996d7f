package success

import (
	"errors"
	"math/rand"
	"testing"

	"fspnet/internal/fsptest"
)

// TestBackendsAgreeAcyclic cross-checks the joint-vector engine against
// the compose-then-explore path on a corpus of random acyclic networks:
// both backends must return identical verdicts for every distinguished
// process.
func TestBackendsAgreeAcyclic(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	for iter := 0; iter < 60; iter++ {
		cfg := fsptest.NetConfig{
			Procs:          1 + r.Intn(5),
			ActionsPerEdge: 1 + r.Intn(2),
			MaxStates:      3 + r.Intn(3),
			TauProb:        0.25,
		}
		n := fsptest.TreeNetwork(r, cfg)
		for i := 0; i < n.Len(); i++ {
			ve, errE := AnalyzeAcyclicOpts(n, i, Options{Backend: BackendExplore})
			vc, errC := AnalyzeAcyclicOpts(n, i, Options{Backend: BackendCompose})
			// A distinguished process with τ-moves fails the S_a game's
			// Figure 4 assumption on both backends alike.
			if (errE == nil) != (errC == nil) {
				t.Fatalf("iter %d dist %d: explore err=%v compose err=%v", iter, i, errE, errC)
			}
			if errE != nil {
				continue
			}
			if ve != vc {
				t.Fatalf("iter %d dist %d: explore=%v compose=%v", iter, i, ve, vc)
			}
		}
	}
}

// TestBackendsAgreeCyclic does the same for cyclic networks under the
// Section 4 semantics, including error-kind agreement when the
// distinguished process violates the τ-free assumption.
func TestBackendsAgreeCyclic(t *testing.T) {
	r := rand.New(rand.NewSource(602))
	for iter := 0; iter < 60; iter++ {
		cfg := fsptest.NetConfig{
			Procs:          2 + r.Intn(4),
			ActionsPerEdge: 1 + r.Intn(2),
			MaxStates:      3 + r.Intn(3),
			TauProb:        0.3,
			Cyclic:         true,
		}
		n := fsptest.TreeNetwork(r, cfg)
		for i := 0; i < n.Len(); i++ {
			ve, errE := AnalyzeCyclicOpts(n, i, Options{Backend: BackendExplore})
			vc, errC := AnalyzeCyclicOpts(n, i, Options{Backend: BackendCompose})
			if (errE == nil) != (errC == nil) {
				t.Fatalf("iter %d dist %d: explore err=%v compose err=%v", iter, i, errE, errC)
			}
			if errE != nil {
				if !errors.Is(errE, ErrShape) || !errors.Is(errC, ErrShape) {
					t.Fatalf("iter %d dist %d: error kinds differ: %v vs %v", iter, i, errE, errC)
				}
				continue
			}
			if ve != vc {
				t.Fatalf("iter %d dist %d: explore=%v compose=%v", iter, i, ve, vc)
			}
		}
	}
}
