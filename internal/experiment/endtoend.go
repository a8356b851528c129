package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bftlive"
	"repro/internal/committee"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// EndToEndRow is one selection-strategy outcome of the X6 experiment.
type EndToEndRow struct {
	Strategy          string
	CompromisedSeats  int
	CommitteeSize     int
	CompromisedWeight float64
	PredictedUnsafe   bool
	ObservedViolation bool
}

// CommitteeEndToEnd is the full-stack experiment: candidates are selected
// into a committee (stake-weighted vs diversity-aware), the committee runs
// BFT with one vote per seat, and a zero-day compromises every member
// running the popular configuration (cfg-0). Compromised members collude
// (equivocation from the first compromised view's primary + promiscuous
// voting). The paper's safety condition predicts the outcome; the BFT
// simulator confirms it.
func CommitteeEndToEnd(size int, seed int64) (*metrics.Table, []EndToEndRow, error) {
	if size < 4 {
		return nil, nil, fmt.Errorf("experiment: committee size %d < 4", size)
	}
	candidates := oligopolyCandidates()
	if size > len(candidates) {
		return nil, nil, fmt.Errorf("experiment: size %d exceeds %d candidates", size, len(candidates))
	}
	stakeSel, err := committee.NewSelector(
		committee.WithStrategy(committee.StakeWeighted),
		committee.WithRNG(rand.New(rand.NewSource(seed))))
	if err != nil {
		return nil, nil, err
	}
	stakeCom, err := stakeSel.Select(candidates, size)
	if err != nil {
		return nil, nil, err
	}
	divSel, err := committee.NewSelector(committee.WithStrategy(committee.DiversityAware))
	if err != nil {
		return nil, nil, err
	}
	divCom, err := divSel.Select(candidates, size)
	if err != nil {
		return nil, nil, err
	}
	tab := metrics.NewTable(fmt.Sprintf("X6 — end to end: selection → BFT → zero-day in cfg-0 (committee of %d, 1 vote/seat)", size),
		"selection", "compromised seats", "compromised weight", "predicted unsafe", "observed violation")
	var rows []EndToEndRow
	for _, c := range []struct {
		name    string
		members []committee.Candidate
	}{{"stake-weighted", stakeCom}, {"diversity-aware", divCom}} {
		row, err := runCommitteeAttack(c.name, c.members, seed)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		tab.AddRowf(row.Strategy, row.CompromisedSeats, row.CompromisedWeight,
			fmt.Sprint(row.PredictedUnsafe), fmt.Sprint(row.ObservedViolation))
	}
	tab.AddNote("zero-day hits every seat whose member runs configuration cfg-0")
	return tab, rows, nil
}

func runCommitteeAttack(name string, members []committee.Candidate, seed int64) (EndToEndRow, error) {
	row := EndToEndRow{Strategy: name, CommitteeSize: len(members)}
	// Order the committee so a compromised member (if any) is the view-0
	// primary: the adversary simply waits for a view it leads.
	ordered := make([]committee.Candidate, 0, len(members))
	var rest []committee.Candidate
	for _, m := range members {
		if m.ConfigLabel == "cfg-0" {
			ordered = append(ordered, m)
		} else {
			rest = append(rest, m)
		}
	}
	row.CompromisedSeats = len(ordered)
	ordered = append(ordered, rest...)
	row.CompromisedWeight = float64(row.CompromisedSeats) / float64(len(members))
	row.PredictedUnsafe = row.CompromisedWeight > core.BFTThreshold

	if row.CompromisedSeats == len(members) {
		row.ObservedViolation = true // total compromise: trivially unsafe
		return row, nil
	}
	sched := sim.NewScheduler(seed)
	net, err := simnet.New(sched, simnet.UniformLatency{Min: time.Millisecond, Max: 10 * time.Millisecond}, 0)
	if err != nil {
		return EndToEndRow{}, err
	}
	cl, err := bftlive.NewSimCluster(net, len(ordered)) // one vote per seat
	if err != nil {
		return EndToEndRow{}, err
	}
	for i, m := range ordered {
		if m.ConfigLabel == "cfg-0" {
			if err := cl.SetBehavior(i, bftlive.Promiscuous); err != nil {
				return EndToEndRow{}, err
			}
		}
	}
	if row.CompromisedSeats > 0 {
		if err := cl.EquivocateNext([]byte("fork-A"), []byte("fork-B")); err != nil {
			return EndToEndRow{}, err
		}
	} else {
		cl.Submit([]byte("honest-value"))
	}
	if err := sched.Run(time.Minute); err != nil {
		return EndToEndRow{}, err
	}
	row.ObservedViolation = cl.Violation() != nil
	return row, nil
}
