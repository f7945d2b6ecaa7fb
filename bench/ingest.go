package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bohr/internal/durable"
	"bohr/internal/ingest"
	"bohr/internal/stats"
)

// ingestWorkload is the durable write path alone. One op is one
// 256-record batch spread over the 3 datasets and 4 sites, posted by one
// source with monotonic offsets, then delivered, then any checkpoint it
// triggered waited for: acked, applied, nothing left in the background.
// The WAL fsyncs before every ack and a snapshot is cut every 16 applied
// batches, the daemon's defaults.
var ingestWorkload = workloadSpec{
	name:   "ingest-durable",
	opUnit: "256-record-batch",
	warm:   6,
	ops:    100,
	setup: func(seed int64, warm int) (instance, error) {
		v, err := newServeSystem(seed, snapshotEvery)
		if err != nil {
			return nil, err
		}
		g := &ingestInstance{v: v}
		for i := 0; i < warm; i++ {
			if !g.op(i, nil) {
				v.close()
				return nil, fmt.Errorf("warm-up batch %d failed", i)
			}
		}
		return g, nil
	},
}

// snapshotEvery is bohrd serve's default -snapshot-every.
const snapshotEvery = 16

type ingestInstance struct {
	v *serveSystem
	// probeWAL is a second log in a sibling directory with the same fsync
	// policy; a traced op appends its payload there too, which times the
	// WAL alone.
	probeWAL *durable.WAL
	probeDir string
	// Recovery, measured by finish.
	recoverMS float64
	replayed  int
}

func (g *ingestInstance) op(i int, tr *tracer) bool {
	v := g.v
	v.backend.tr = tr
	recs := v.makeBatch(-1)
	if tr != nil {
		if err := g.probe(recs, tr); err != nil {
			fmt.Printf("ingest-durable: batch %d: probe: %v\n", i, err)
			return false
		}
	}
	if err := v.ingestBatch(recs, tr); err != nil {
		fmt.Printf("ingest-durable: batch %d: %v\n", i, err)
		return false
	}
	return true
}

// probe times the codec and the WAL on the op's own payload.
func (g *ingestInstance) probe(recs []ingest.Record, tr *tracer) error {
	body := ingest.EncodeBatch(recs)
	id := tr.push("ingest.decode")
	_, err := ingest.DecodeBatch(body)
	tr.pop(id)
	if err != nil {
		return err
	}
	if g.probeWAL == nil {
		g.probeDir, err = os.MkdirTemp("", "bohr-bench-walprobe-")
		if err != nil {
			return err
		}
		g.probeWAL, _, err = durable.OpenWAL(g.probeDir, durable.WALConfig{Fsync: true})
		if err != nil {
			return err
		}
	}
	id = tr.push("durable.wal_append")
	_, err = g.probeWAL.Append(context.Background(), body)
	tr.pop(id)
	return err
}

// finish checks that everything sent was delivered, then closes the
// directory and recovers it on a freshly prepared system, which must end
// up holding exactly the records that were acked.
func (g *ingestInstance) finish(recover bool) error {
	v := g.v
	if got := v.pipe.Stats().RecordsDelivered; got != uint64(v.total) {
		return fmt.Errorf("%d records delivered, %d sent", got, v.total)
	}
	if !recover {
		return nil
	}
	if err := v.pipe.Close(); err != nil {
		return err
	}
	v.srv.DrainSnapshots()
	if err := v.man.Close(); err != nil {
		return err
	}
	v.pipe = nil

	fresh, err := newServeSystem(v.seed, -1)
	if err != nil {
		return err
	}
	defer fresh.close()
	fresh.dir = v.dir
	t0 := time.Now()
	if err := fresh.openDurable(snapshotEvery); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	g.recoverMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	g.replayed = fresh.recovery.RecordsReplayed
	for _, ds := range v.sys.Workload.Datasets {
		want := v.initial[ds.Name] + v.sent[ds.Name]
		if got := fresh.stored(ds.Name); got != want {
			return fmt.Errorf("recover: %s holds %d records, want %d", ds.Name, got, want)
		}
	}
	return nil
}

func (g *ingestInstance) close() {
	g.v.close()
	if g.probeWAL != nil {
		g.probeWAL.Close()
		os.RemoveAll(g.probeDir)
	}
}

func (g *ingestInstance) layers(n int, tr *tracer, out map[string]float64) error {
	by := tr.byName()
	ingestLayers(tr, by, out)
	out["ingest.decode_us"] = meanMS(by, "ingest.decode") * 1e3
	out["durable.wal_append_ms"] = meanMS(by, "durable.wal_append")
	if snaps := by["serve.capture_state"]; snaps != nil {
		out["serve.snapshot_ms"] = float64(by["serve.snapshot_wait"].total) / float64(snaps.n) / 1e6
	}
	var rootMS []float64
	var wall int64
	for _, s := range tr.spans {
		if s.Name == "op" {
			rootMS = append(rootMS, float64(s.dur())/1e6)
			wall += s.dur()
		}
	}
	decile := len(rootMS) / 10
	if decile < 1 {
		decile = 1
	}
	out["ingest.first_decile_ms"] = stats.Mean(rootMS[:decile])
	out["ingest.last_decile_ms"] = stats.Mean(rootMS[len(rootMS)-decile:])
	out["ingest.records_per_s"] = float64(n*batchRecords) / (float64(wall) / 1e9)
	out["durable.recover_ms"] = g.recoverMS
	out["durable.records_replayed"] = float64(g.replayed)

	// What the directory holds now: the newest snapshot, and every byte on
	// disk per record sent since the directory was created.
	entries, err := os.ReadDir(g.v.dir)
	if err != nil {
		return err
	}
	var disk, snap int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		disk += info.Size()
		if filepath.Ext(e.Name()) == ".snap" {
			snap = info.Size() // ReadDir sorts by name, so the newest is last
		}
	}
	out["durable.snapshot_bytes"] = float64(snap)
	out["durable.disk_bytes_per_rec"] = float64(disk) / float64(g.v.total)
	return nil
}
