package durable

import (
	"bohr/internal/engine"
	"bohr/internal/ingest"
)

// State is what a checkpoint covers: the WAL position, the per-source
// offset trackers, and the applied site state of every served dataset.
// On the way out it is a handle on live state captured under the
// pipeline barrier, not a copy of it; on the way in it is what the
// snapshot file decoded to, owned by the caller.
//
// The invariant a snapshot asserts: applying WAL frames 1..WalSeq to an
// empty system yields exactly this state, so recovery may restore it
// and replay only frames > WalSeq.
type State struct {
	// WalSeq is the last WAL frame the snapshot covers.
	WalSeq uint64
	// IngestBatches is the system's applied-batch counter (it paces
	// replan cadence, so recovery restores it for determinism).
	IngestBatches int
	// Sources holds each source's offset tracker, name-sorted.
	Sources []ingest.SourceOffsets
	// Datasets holds per-dataset site state, in serving order.
	Datasets []DatasetState
}

// DatasetState is one dataset's applied state, indexed by site. Records
// holds the slices the engine.Stores handed out, which a store never
// modifies afterwards (an add appends past the length; a remove copies once
// the slice was handed out).
type DatasetState struct {
	Name    string
	Records [][]engine.KV
}
