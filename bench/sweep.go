package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/scenario"
)

// The sweep workloads run the scenario farm as its user does: the
// `scenarios sweep` command as a child process. A timed run is a series of
// sweep jobs, each over freshly seeded timelines, until the time is up.

// sweepSeed returns the first seed at or after from for which the
// generator can produce all n timelines of a sweep. A few seeds cannot:
// disclosure-storm schedules up to sixteen disclosures as much as 29h
// apart from day one, which can pass its 15-day horizon, and Generate
// panics on the invalid timeline (about one storm timeline in 3000). A
// benchmark input must be one on which nothing fails, so such a seed is
// skipped; the choice depends on the seed alone.
func sweepSeed(w workload, from int64, n int) int64 {
	profiles := w.genProfiles()
	generable := func(seed int64) (ok bool) {
		defer func() { ok = recover() == nil }()
		for i := 0; i < n; i++ {
			profiles[i%len(profiles)].Generate(seed, i/len(profiles))
		}
		return true
	}
	for !generable(from) {
		from++
	}
	return from
}

func sweepArgs(w workload, n int, seed int64, parallel int) []string {
	return []string{"sweep", "-n", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10),
		"-parallel", strconv.Itoa(parallel), "-profiles", w.profiles}
}

// sweepSetUp is the untimed pre-check: a serial and a parallel sweep of
// the same timelines must print byte-equal reports. For the live workload
// it also replays one generated timeline through the binary and requires
// liveness cross-checks in the trace, so a build that lost the live
// harness cannot pass as a fast sweep-live.
func sweepSetUp(e env, sz sizing, w workload, seed int64) error {
	n := w.timelines(sz.sweepCheck)
	seed = sweepSeed(w, seed, n)
	serial, err := runJob(e.scenarios, sweepArgs(w, n, seed, 1)...)
	if err != nil {
		return err
	}
	parallel, err := runJob(e.scenarios, sweepArgs(w, n, seed, e.callers)...)
	if err != nil {
		return err
	}
	if !bytes.Equal(serial.stdout, parallel.stdout) {
		return fmt.Errorf("bench: %s: -parallel 1 and -parallel %d reports differ", w.name, e.callers)
	}
	if !w.live {
		return nil
	}
	s := strconv.FormatInt(seed, 10)
	tl := filepath.Join(e.outDir, "live-check-"+s+".json")
	if _, err := runJob(e.scenarios, "gen", "-profile", w.profiles, "-seed", s, "-index", "0", "-out", tl); err != nil {
		return err
	}
	defer os.Remove(tl)
	replay, err := runJob(e.scenarios, "replay", tl, "-seed", s, "-json")
	if err != nil {
		return err
	}
	if !bytes.Contains(replay.stdout, []byte(`"check":"liveness"`)) {
		return fmt.Errorf("bench: %s: replayed timeline carries no liveness checks", w.name)
	}
	return nil
}

func sweepEndToEnd(e env, sz sizing, w workload, seed int64, seconds float64) (*result, error) {
	r := newResult()
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		start := time.Now()
		if err := sweepSetUp(e, sz, w, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	n := w.timelines(sz.sweepJob)
	var wallMS, rss []float64
	var cpu time.Duration
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for next := seed * 1000; time.Now().Before(deadline); {
		// Each job sweeps its own timelines: run i of a sweep is addressed
		// by (seed, i), so a new seed is a new set of inputs.
		jobSeed := sweepSeed(w, next, n)
		next = jobSeed + 1
		res, err := runJob(e.scenarios, sweepArgs(w, n, jobSeed, e.callers)...)
		r.Attempted += n
		if err != nil {
			// A violated invariant exits non-zero: the whole job failed.
			r.Failed += n
			r.notef("%v", err)
			continue
		}
		var report scenario.SweepReport
		if err := json.Unmarshal(res.stdout, &report); err != nil || report.Runs != n || len(report.Violating) > 0 {
			r.Failed += n
			continue
		}
		cpu += res.cpu
		wallMS = append(wallMS, float64(res.wall)/float64(time.Millisecond))
		rss = append(rss, res.rssMB)
	}
	if len(wallMS) == 0 {
		return nil, fmt.Errorf("bench: %s: no sweep job succeeded", w.name)
	}
	done := float64(n * len(wallMS))
	r.Correct = r.Failed == 0
	// As for the serve workloads, the rate is taken at the median cycle
	// (here: job) time, so one stalled job does not move it.
	r.set("ops_per_s", float64(n)*1000/median(wallMS), int(done))
	r.set("p50_ms", median(wallMS), len(wallMS))
	r.set("cpu_ms_per_op", cpu.Seconds()*1000/done, int(done))
	// A job's peak RSS lands on one of a few heap-growth steps, so the
	// median hops between them from run to run; the mean does not.
	r.set("peak_rss_mb", mean(rss), len(rss))
	r.set("setup_s", median(setups), len(setups))
	r.notef("%d jobs of `scenarios sweep -n %d -parallel %d -profiles %s`; p50_ms is one job's wall time", len(wallMS), n, e.callers, w.profiles)
	r.notef("job wall: p50=%.1fms p90=%.1fms max=%.1fms", quantile(wallMS, 0.5), quantile(wallMS, 0.9), quantile(wallMS, 1))
	return r, nil
}
