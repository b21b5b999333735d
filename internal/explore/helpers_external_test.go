package explore_test

import (
	"context"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// Shorthands over the Engine front door with a background context.

func engineReach(a ioa.Automaton, opts explore.Options) ([]ioa.State, error) {
	return explore.New(opts).Reach(context.Background(), a)
}

func engineCheck(a ioa.Automaton, opts explore.Options, pred func(ioa.State) bool) (*explore.Violation, error) {
	return explore.New(opts).CheckInvariant(context.Background(), a, pred)
}
