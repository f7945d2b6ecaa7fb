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
	// Leases are the releases of the leases a capture took on the live
	// stores (Release); none on a decoded state.
	Leases []func()
}

// Release ends a captured state's leases: the stores compact their records
// in place again, so nothing may read Datasets afterwards. A second call,
// or one on a decoded state, does nothing.
func (st *State) Release() {
	for _, release := range st.Leases {
		release()
	}
	st.Leases = nil
}

// DatasetState is one dataset's applied state, indexed by site. On a
// captured state Records holds the slices the engine.Stores leased
// (engine.Store.Lease), which a store does not modify until the state's
// Release: an add appends past the length, and a remove copies while a
// lease is out.
type DatasetState struct {
	Name    string
	Records [][]engine.KV
}
