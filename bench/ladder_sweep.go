package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bftlive"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"

	// Timelines with a LiveSpec boot the live harness through the hook
	// this package's init registers; sweepLadder fails if it is missing.
	_ "repro/internal/liveloop"
)

// The sweep ladder: the same seeded timelines
//
//	cli       swept by the scenarios binary
//	sweep     swept by scenario.Sweep in-process, nproc workers and one
//	check     run one by one through CheckRun with the default invariants
//	run       run one by one with no invariants
//	          … and once per invariant, once under a span-recording
//	          observer, and once with the live harness stripped
//
// The lower rungs run back to back for each timeline, and a layer's time
// is the median over timelines of the paired difference, so drift on the
// shared box cancels instead of landing in one rung.

// emitObserver is the benchmark's own scenario.Observer: the gap between
// two callbacks is one record's scheduler step, event and emit (assess +
// worst window); the monitor's cache counters are read at the last record.
type emitObserver struct {
	tr     *tracer
	op     int
	parent int
	open   int
}

func (o *emitObserver) AfterEvent(e *scenario.Engine, info scenario.EventInfo, _ *scenario.Record) error {
	o.tr.end(o.open)
	if info.Kind == "final" {
		cs := e.Monitor().Stats()
		o.tr.count("core.hits_per_run", int(cs.Hits))
		o.tr.count("core.delta_applies_per_run", int(cs.DeltaApplies))
		o.tr.count("core.rebuilds_per_run", int(cs.Rebuilds))
		return nil
	}
	o.open = o.tr.begin(o.op, "scenario.emit", o.parent)
	return nil
}

// bftMicro commits values on a 7-replica SimCluster with view changes on,
// over a network losing the given share of messages, and reports wall
// microseconds, messages and scheduler events per committed value.
func bftMicro(tr *tracer, name string, seed int64, drop float64, submits int) (us, msgs, events float64, err error) {
	sched := sim.NewScheduler(seed)
	net, err := simnet.New(sched, simnet.FixedLatency(20*time.Millisecond), drop)
	if err != nil {
		return 0, 0, 0, err
	}
	cl, err := bftlive.NewSimCluster(net, 7, bftlive.SimWithViewTimeout(10*time.Second))
	if err != nil {
		return 0, 0, 0, err
	}
	id := tr.begin(0, name, -1)
	for i := 0; i < submits; i++ {
		cl.Submit([]byte(fmt.Sprintf("v-%04d", i)))
		if err = sched.Run(sched.Now() + time.Minute); err != nil {
			break
		}
	}
	tr.end(id)
	if err != nil {
		return 0, 0, 0, err
	}
	if cl.Violation() != nil {
		return 0, 0, 0, fmt.Errorf("bench: %s: agreement violated: %v", name, cl.Violation())
	}
	committed := float64(cl.CommitCount()) / float64(cl.N())
	if committed == 0 {
		return 0, 0, 0, fmt.Errorf("bench: %s: nothing committed", name)
	}
	return sum(tr.us(name)) / committed, float64(net.Stats().Sent) / committed, float64(sched.Fired()) / committed, nil
}

func sweepLadder(e env, sz sizing, w workload, seed int64) (*result, error) {
	r, tr := newResult(), newTracer()
	n := w.timelines(sz.traceTimelines)
	seed = sweepSeed(w, seed*1000, n)
	opts := scenario.SweepOptions{Profiles: strings.Split(w.profiles, ","), Runs: n, Seed: seed}

	// Top rungs: the binary, then the same sweep in-process, three times
	// in turn so one disturbed sweep does not decide a ratio.
	var childS, parallelS, serialS []float64
	sweep := func(workers int, walls *[]float64) (*scenario.SweepReport, error) {
		opts.Workers = workers
		start := time.Now()
		report, err := scenario.Sweep(context.Background(), opts)
		*walls = append(*walls, time.Since(start).Seconds())
		return report, err
	}
	r.Attempted = n
	for round := 0; round < 3; round++ {
		child, err := runJob(e.scenarios, sweepArgs(w, n, seed, e.callers)...)
		if err != nil {
			return nil, err
		}
		childS = append(childS, child.wall.Seconds())
		report, err := sweep(e.callers, &parallelS)
		if err != nil {
			return nil, err
		}
		if _, err := sweep(1, &serialS); err != nil {
			return nil, err
		}
		inProc, err := report.MarshalIndent()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(inProc, child.stdout) || len(report.Violating) > 0 {
			r.Failed = n
		}
	}

	profiles := w.genProfiles()
	var s struct{ records, events, checks, divergences, viewChanges, commits int }
	before := readGoCost()
	for i := 0; i < n; i++ {
		id := tr.begin(i, "scenario.generate", -1)
		tl := profiles[i%len(profiles)].Generate(seed, i/len(profiles))
		tr.end(id)
		def := tl.Def()

		check := tr.begin(i, "scenario.check", -1)
		_, violations, err := scenario.CheckRun(def, seed, scenario.DefaultInvariants())
		tr.end(check)
		if err != nil {
			return nil, err
		}
		if len(violations) > 0 {
			r.Failed++
		}
		id = tr.begin(i, "scenario.run", check)
		res, err := scenario.Run(def, seed)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		for _, inv := range scenario.DefaultInvariants() {
			id = tr.begin(i, "scenario.inv."+inv.Name, check)
			_, _, err = scenario.CheckRun(def, seed, []scenario.Invariant{inv})
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
		obs := &emitObserver{tr: tr, op: i}
		obs.parent = tr.begin(i, "scenario.observed", check)
		obs.open = tr.begin(i, "scenario.emit", obs.parent)
		_, err = scenario.Run(def, seed, scenario.WithObserver(obs))
		tr.end(obs.parent)
		if err != nil {
			return nil, err
		}
		if tl.Live != nil {
			stripped := tl.Clone()
			stripped.Live = nil
			id = tr.begin(i, "scenario.run_nolive", check)
			_, err = scenario.Run(stripped.Def(), seed)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}

		id = tr.begin(i, "scenario.encode", -1)
		for _, rec := range res.Records {
			if _, err := rec.JSON(); err != nil {
				return nil, err
			}
		}
		summary := res.Summary()
		tr.end(id)
		id = tr.begin(i, "scenario.timeline_roundtrip", -1)
		b, err := tl.MarshalIndent()
		if err == nil {
			_, err = scenario.ParseTimeline(b)
		}
		tr.end(id)
		if err != nil {
			return nil, err
		}
		s.records += summary.Records
		s.events += summary.Events
		s.checks += summary.Checks
		s.divergences += summary.Divergences
		s.viewChanges += summary.ViewChanges
		s.commits += res.Records[len(res.Records)-1].LiveCommits
	}
	runsPerTimeline := 3 + len(scenario.DefaultInvariants()) // check, run, observed, one per invariant
	if w.live {
		runsPerTimeline++ // and the stripped run
	}
	r.setGoCost(before, readGoCost(), n*runsPerTimeline)
	if w.live && s.checks == 0 {
		return nil, fmt.Errorf("bench: %s: no live cross-check in %d timelines; is internal/liveloop linked in?", w.name, n)
	}

	set := r.set
	run := tr.us("scenario.run")
	set("scenario.generate_us", median(tr.us("scenario.generate")), n)
	set("scenario.run_us", median(run), n)
	set("scenario.check_us", median(tr.us("scenario.check")), n)
	set("scenario.invariants_us", pairedUS(tr.us("scenario.check"), run), n)
	for _, inv := range scenario.DefaultInvariants() {
		set("scenario.inv."+inv.Name+"_us", pairedUS(tr.us("scenario.inv."+inv.Name), run), n)
	}
	emit := tr.us("scenario.emit")
	set("scenario.emit_us", mean(emit), len(emit)) // mean: most records are cache-hit ticks, the cost is in the rest
	per := func(total int) float64 { return float64(total) / float64(n) }
	set("scenario.records_per_run", per(s.records), n)
	set("scenario.events_per_run", per(s.events), n)
	for _, name := range []string{"core.hits_per_run", "core.delta_applies_per_run", "core.rebuilds_per_run"} {
		set(name, mean(tr.counts[name]), n)
	}
	set("scenario.encode_us", median(tr.us("scenario.encode")), n)
	set("scenario.timeline_roundtrip_us", median(tr.us("scenario.timeline_roundtrip")), n)
	set("scenario.sweep_speedup", median(serialS)/median(parallelS), len(serialS))
	set("scenario.cli_overhead_s", median(childS)-median(parallelS), len(childS))
	set("trace.overhead_share", pairedUS(tr.us("scenario.observed"), run)/median(run), n)
	if w.live {
		set("liveloop.self_us", pairedUS(run, tr.us("scenario.run_nolive")), n)
		set("liveloop.checks_per_run", per(s.checks), n)
		set("liveloop.divergences", float64(s.divergences), n)
		set("bftlive.view_changes_per_run", per(s.viewChanges), n)
		set("bftlive.commits_per_run", per(s.commits), n)
		us, msgs, events, err := bftMicro(tr, "bftlive.commit", seed, 0, sz.commits)
		if err != nil {
			return nil, err
		}
		lossyUS, lossyMsgs, _, err := bftMicro(tr, "bftlive.lossy_commit", seed, 0.1, sz.commits)
		if err != nil {
			return nil, err
		}
		set("bftlive.commit_us", us, sz.commits)
		set("bftlive.lossy_commit_us", lossyUS, sz.commits)
		set("simnet.msgs_per_commit", msgs, sz.commits)
		set("simnet.lossy_msgs_per_commit", lossyMsgs, sz.commits)
		set("sim.events_per_commit", events, sz.commits)

		const noops = 200_000
		sched := sim.NewScheduler(seed)
		for i := 0; i < noops; i++ {
			sched.After(time.Duration(i), "noop", func() {})
		}
		id := tr.begin(0, "sim.noop_events", -1)
		fired := sched.RunAll(0)
		tr.end(id)
		set("sim.event_ns", sum(tr.us("sim.noop_events"))*1000/float64(fired), int(fired))
	}
	r.zeroUnset()
	r.Correct = r.Failed == 0

	r.notef("%d timelines, seed %d, median of 3: cli %.3fs, in-process %d workers %.3fs, 1 worker %.3fs", n, seed, median(childS), e.callers, median(parallelS), median(serialS))
	r.notef("per timeline: check %.0fus = run %.0fus + invariants %.0fus; live harness %.0fus of run",
		r.Metrics["scenario.check_us"].Value, median(run), r.Metrics["scenario.invariants_us"].Value, r.Metrics["liveloop.self_us"].Value)
	path := filepath.Join(e.outDir, "trace-"+w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	r.notef("%d spans in %s", len(tr.spans), path)
	return r, nil
}
