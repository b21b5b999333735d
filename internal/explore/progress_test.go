package explore

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
)

// progressSink collects Progress snapshots under a lock; the parallel
// coordinator emits from one goroutine, but the contract only promises
// that sinks are internally synchronized.
type progressSink struct {
	mu    sync.Mutex
	snaps []obs.Progress
}

func (s *progressSink) on(p obs.Progress) {
	s.mu.Lock()
	s.snaps = append(s.snaps, p)
	s.mu.Unlock()
}

func (s *progressSink) all() []obs.Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Progress(nil), s.snaps...)
}

// TestSeqProgressEmission: at one worker the engine emits a snapshot at
// every level barrier and always a final Done carrying the store
// footprint.
func TestSeqProgressEmission(t *testing.T) {
	sink := &progressSink{}
	o := obs.New(nil)
	o.Progress = sink.on
	a := modCounters(5, 8) // 32768 states over 36 levels
	eng := New(Options{Workers: 1, Obs: o})
	states, err := eng.Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	snaps := sink.all()
	if len(snaps) < 3 {
		t.Fatalf("got %d snapshots over %d states, want per-level plus Done", len(snaps), len(states))
	}
	var mid, done int
	for _, p := range snaps {
		if p.Phase != "explore" {
			t.Fatalf("phase = %q", p.Phase)
		}
		if p.Done {
			done++
			if p.States != int64(len(states)) || p.Frontier != 0 {
				t.Fatalf("final snapshot %+v, want states=%d frontier=0", p, len(states))
			}
			if p.Occupancy != int64(len(states)) || p.ArenaBytes <= 0 {
				t.Fatalf("final snapshot store footprint missing: %+v", p)
			}
		} else {
			mid++
			if p.Frontier <= 0 {
				t.Fatalf("mid-walk snapshot with empty frontier: %+v", p)
			}
		}
	}
	if mid < 2 || done != 1 {
		t.Fatalf("mid=%d done=%d, want >=2 levels and exactly one Done", mid, done)
	}
}

// TestParallelProgressEmission: the level-synchronized explorer emits
// one snapshot per depth barrier with increasing Depth, then Done.
func TestParallelProgressEmission(t *testing.T) {
	sink := &progressSink{}
	o := obs.New(nil)
	o.Progress = sink.on
	a := modCounters(3, 4) // 64 states over many shallow levels
	eng := New(Options{Workers: 2, Obs: o})
	states, err := eng.Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	snaps := sink.all()
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots, want per-level plus Done", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Done || last.States != int64(len(states)) {
		t.Fatalf("final snapshot %+v, want Done with states=%d", last, len(states))
	}
	prevDepth := int64(0)
	for _, p := range snaps[:len(snaps)-1] {
		if p.Done {
			t.Fatalf("Done snapshot before the end: %+v", snaps)
		}
		if p.Depth < prevDepth {
			t.Fatalf("depth went backwards: %+v", snaps)
		}
		prevDepth = p.Depth
	}
}
