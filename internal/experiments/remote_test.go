package experiments

import (
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/texttable"
)

// startWorkers stands up n in-process protocol servers, each with its own
// JobRunner (its own bench cache), mimicking n independent daemons.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(distsweep.NewServer(distsweep.ServerOptions{
			Runner: NewJobRunner(nil).Run,
		}).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestRemoteSweepBytesIdentical: dispatching Table 6 + Figure 1 + Table 3
// to a 2-worker fleet renders byte-identical artifacts to the serial
// in-process sweep, audited and not.
func TestRemoteSweepBytesIdentical(t *testing.T) {
	base := Options{Insts: 50_000, Benchmarks: []string{"gcc", "groff"}}
	serial := base
	serial.Workers = 1
	want := renderAll(t, serial)

	fleet := startWorkers(t, 2)
	remote := base
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{
		Workers:   fleet,
		BatchSize: 4,
	})
	if got := renderAll(t, remote); got != want {
		t.Error("remote sweep renders differently from the serial in-process sweep")
	}

	audited := remote
	audited.AuditSample = 4
	audited.Dispatch = distsweep.New(distsweep.CoordinatorOptions{
		Workers:   fleet,
		BatchSize: 4,
	})
	if got := renderAll(t, audited); got != want {
		t.Error("audited remote sweep renders differently from the serial in-process sweep")
	}
}

// TestRemoteAblationAndCharacterize: the ablations and the
// characterization table keep their bytes through a fleet. The code-layout
// ablation's reordered benches are not rebuilt from their profiles, so its
// work-list must run in process rather than let the fleet simulate the
// original layout in their place.
func TestRemoteAblationAndCharacterize(t *testing.T) {
	base := Options{Insts: 30_000, Benchmarks: []string{"gcc"}}
	local := base
	local.Workers = 1
	remote := base
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{Workers: startWorkers(t, 2)})
	for _, b := range []struct {
		name  string
		build func(Options) (*texttable.Table, error)
	}{
		{"btb ablation", AblationBTBCoupling},
		{"layout ablation", AblationCodeLayout},
		{"table 2", Table2},
	} {
		want, err := b.build(local)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.build(remote)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("remote %s renders differently from the local one\ngot:\n%s\nwant:\n%s", b.name, got, want)
		}
	}
}

// TestRemoteTable4: Table 4's classification arms are ordinary cells, so
// the table dispatches to a fleet and renders the in-process bytes.
func TestRemoteTable4(t *testing.T) {
	base := Options{Insts: 50_000, Benchmarks: []string{"gcc", "groff"}}
	local := base
	local.Workers = 1
	want, err := Table4(local)
	if err != nil {
		t.Fatal(err)
	}
	remote := base
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{Workers: startWorkers(t, 1)})
	got, err := Table4(remote)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("remote Table 4 renders differently from the local one\ngot:\n%s\nwant:\n%s", got, want)
	}
	if s := remote.Dispatch.Status(); s.RemoteBatches < 1 || s.LocalBatches != 0 {
		t.Errorf("remote/local batches = %d/%d, want every batch remote", s.RemoteBatches, s.LocalBatches)
	}
}

// TestRemoteFallsBackForInProcessState: a sweep whose bench is not the one
// its profile rebuilds (a reordered layout) must silently run in-process
// even with a fleet configured — asserted by pointing Dispatch at a dead
// server and checking the sweep still succeeds, computes what a sweep
// without a fleet computes, and never contacts the worker.
func TestRemoteFallsBackForInProcessState(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()

	p, _ := synth.ProfileByName("gcc")
	b, err := benchFor(p)
	if err != nil {
		t.Fatal(err)
	}
	const insts = 20_000
	rb, err := synth.ReorderByProfile(b, insts, defaultStreamSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	cells := []runCell{newCell(rb, baseConfig(core.Oracle))}
	want, err := runCellsFull(Options{Insts: insts, Workers: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}

	opt := Options{Insts: insts, Workers: 1}
	opt.Dispatch = distsweep.New(distsweep.CoordinatorOptions{
		Workers:    []string{dead.URL},
		Retries:    1,
		EvictAfter: 1,
	})
	got, err := runCellsFull(opt, cells)
	if err != nil {
		t.Fatalf("reordered-bench sweep failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) || got[0].Result.Insts != insts {
		t.Errorf("reordered-bench sweep with a fleet = %+v, want the in-process %+v", got, want)
	}
	if s := opt.Dispatch.Status(); s.Evictions != 0 {
		t.Error("dead worker was probed (and evicted) for a local-only sweep")
	} else if s.RemoteBatches != 0 || s.LocalBatches != 0 {
		t.Errorf("remote/local batches = %d/%d, want the coordinator never asked", s.RemoteBatches, s.LocalBatches)
	}
}

// TestRemoteProgressAndMetrics: remote sweeps report the same campaign
// totals through Options.Metrics/Progress as local ones.
func TestRemoteProgressAndMetrics(t *testing.T) {
	opt := Options{Insts: 20_000, Benchmarks: []string{"gcc"}}
	reg := obs.NewRegistry()
	opt.Metrics = reg
	var lines atomic.Int64
	opt.Progress = func(string) { lines.Add(1) }
	opt.Dispatch = distsweep.New(distsweep.CoordinatorOptions{Workers: startWorkers(t, 1), Metrics: reg})

	if _, err := Table6(opt); err != nil {
		t.Fatal(err)
	}
	sims := reg.Counter("specfetch_simulations_total", "").Value()
	if sims == 0 {
		t.Error("no simulations counted for a remote sweep")
	}
	if lines.Load() != sims {
		t.Errorf("progress lines (%d) != counted simulations (%d)", lines.Load(), sims)
	}
	if reg.Counter("specfetch_dispatch_jobs_total", "").Value() != sims {
		t.Error("dispatch job counter does not match simulations")
	}
}
