// Package faultinject provides test-only guard.Hook implementations that
// force an analysis to fail at a chosen BFS level or pass boundary:
// cancellation, deadline expiry, or a synthetic panic. The -race sweep
// tests use them to prove the engine always returns a well-formed
// *guard.LimitErr — never a hang, an unrecovered panic, or a verdict the
// uncancelled run contradicts.
//
// Hooks are immutable and therefore trivially safe for concurrent use
// by the analyses that share one governor.
package faultinject

import (
	"fmt"

	"fspnet/internal/guard"
)

// hook fires once the governed run polls the named pass at or beyond the
// given level. Matching ">= level" rather than "== level" keeps sweeps
// meaningful for passes whose poll levels advance in amortized strides.
type hook struct {
	pass   string
	level  int
	reason error // nil for panic hooks
	panics bool
}

// CancelAt returns a hook that injects cancellation at (pass, level).
func CancelAt(pass string, level int) guard.Hook {
	return &hook{pass: pass, level: level, reason: guard.ErrCanceled}
}

// DeadlineAt returns a hook that injects deadline expiry at (pass, level).
func DeadlineAt(pass string, level int) guard.Hook {
	return &hook{pass: pass, level: level, reason: guard.ErrDeadline}
}

// PanicAt returns a hook that makes the solver polling at (pass, level)
// panic, exercising its recovery path.
func PanicAt(pass string, level int) guard.Hook {
	return &hook{pass: pass, level: level, panics: true}
}

func (h *hook) Fire(pass string, level int) error {
	if h.panics || pass != h.pass || level < h.level {
		return nil
	}
	return fmt.Errorf("faultinject: injected at %s level %d: %w", pass, level, h.reason)
}

func (h *hook) Panic(pass string, level int) bool {
	return h.panics && pass == h.pass && level >= h.level
}
