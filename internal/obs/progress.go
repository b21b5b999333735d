package obs

// A Progress is one in-flight snapshot of a long-running engine walk
// (BFS exploration, induction domain streaming, stabilization
// certification). Engines emit raw counts only — no rates, no clock
// reads — so the disabled path stays one nil check; the consumer
// (internal/ledger) timestamps snapshots and derives states/sec and
// ETA from consecutive readings.
type Progress struct {
	// Phase names the emitting walk: "explore", "induct",
	// "stabilize-closure", ... One run may pass through several phases.
	Phase string `json:"phase"`
	// Depth is the completed BFS level for level-synchronized
	// exploration; 0 when the walk has no level structure.
	Depth int64 `json:"depth,omitempty"`
	// States is the monotone unit of work: admitted states for
	// exploration, visited domain states for induction.
	States int64 `json:"states"`
	// Frontier is the number of states still awaiting expansion (the
	// current BFS level); 0 when unknown.
	Frontier int64 `json:"frontier,omitempty"`
	// Total is the known total work when the walk can bound it (the
	// induction domain's size); 0 when open-ended.
	Total int64 `json:"total,omitempty"`
	// Occupancy and ArenaBytes mirror the store gauges: interned
	// states and encoded arena payload.
	Occupancy  int64 `json:"occupancy,omitempty"`
	ArenaBytes int64 `json:"arena_bytes,omitempty"`
	// SpilledBytes is the on-disk run volume of a disk-spilling seen
	// set; 0 for in-RAM backends.
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	// BarrierWaitNS is the cumulative time a distributed worker spent
	// blocked at level barriers; 0 outside coordinator/worker mode.
	BarrierWaitNS int64 `json:"barrier_wait_ns,omitempty"`
	// Done marks the walk's final snapshot. Consumers always record
	// it, whatever their throttling cadence.
	Done bool `json:"done,omitempty"`
}

// EmitProgress forwards one snapshot to the run's progress sink, if
// any. Nil-safe on both the Obs and the sink, so engines guard
// emission with the same single nil check as every other metric.
func (o *Obs) EmitProgress(p Progress) {
	if o == nil || o.Progress == nil {
		return
	}
	o.Progress(p)
}
