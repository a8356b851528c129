// Command entropy computes the paper's diversity and resilience metrics
// for a voting-power distribution: the built-in Bitcoin snapshot
// (Example 1), the Figure 1 tail scenario, or a user-supplied CSV of
// label,weight pairs.
//
// Usage:
//
//	entropy                     # Example 1 snapshot report
//	entropy -tail 101           # snapshot + 0.87% over 101 miners (Fig. 1 point)
//	entropy -csv weights.csv    # custom distribution
//	entropy -uniform 8          # uniform k-replica reference
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/metrics"
	"repro/internal/pooldata"
)

// tolString renders a family's tolerance as the paper's fraction where it
// is one (1/3, 1/2), decimal otherwise.
func tolString(s core.Substrate) string {
	switch s.Tolerance {
	case core.BFTThreshold:
		return "1/3"
	case core.NakamotoThreshold:
		return "1/2"
	default:
		return fmt.Sprintf("%.3f", s.Tolerance)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("entropy: ")
	var (
		csvPath = flag.String("csv", "", "CSV file of label,weight rows")
		tail    = flag.Int("tail", 0, "add the snapshot's 0.87% residual spread over N tail miners")
		uniform = flag.Int("uniform", 0, "report a uniform k-configuration distribution instead")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel between the load and report stages.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, name, err := chooseDistribution(*csvPath, *tail, *uniform)
	if err != nil {
		log.Fatal(err)
	}
	if ctx.Err() != nil {
		log.Fatal("interrupted")
	}
	if err := printReport(os.Stdout, name, d); err != nil {
		log.Fatal(err)
	}
}

func chooseDistribution(csvPath string, tail, uniform int) (diversity.Distribution, string, error) {
	switch {
	case csvPath != "":
		d, err := loadCSV(csvPath)
		return d, "csv: " + csvPath, err
	case uniform > 0:
		return diversity.Uniform(uniform), fmt.Sprintf("uniform-%d", uniform), nil
	case tail > 0:
		d, err := pooldata.WithUniformTail(tail)
		return d, fmt.Sprintf("bitcoin snapshot + %d tail miners", tail), err
	default:
		return pooldata.SnapshotDistribution(), "bitcoin snapshot (2 Feb 2023)", nil
	}
}

func loadCSV(path string) (diversity.Distribution, error) {
	f, err := os.Open(path)
	if err != nil {
		return diversity.Distribution{}, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = 2
	weights := make(map[string]float64)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return diversity.Distribution{}, err
		}
		w, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return diversity.Distribution{}, fmt.Errorf("bad weight %q: %w", rec[1], err)
		}
		weights[rec[0]] += w
	}
	return diversity.FromWeights(weights)
}

func printReport(w io.Writer, name string, d diversity.Distribution) error {
	rep, err := diversity.ReportForDistribution(d)
	if err != nil {
		return err
	}
	tab := metrics.NewTable("diversity report — "+name, "metric", "value")
	tab.AddRowf("configurations (support)", rep.Support)
	tab.AddRowf("entropy (bits)", rep.Entropy)
	tab.AddRowf("normalized entropy", rep.NormalizedEntropy)
	tab.AddRowf("effective configurations (2^H)", rep.EffectiveConfigurations)
	tab.AddRowf("simpson index", rep.SimpsonIndex)
	tab.AddRowf("max configuration share", rep.MaxShare)
	// Break resilience per consensus family, selected by value.
	for _, sub := range []core.Substrate{core.BFT, core.Nakamoto} {
		faults, err := d.MinFaultsToExceed(sub.Tolerance)
		if err != nil {
			return err
		}
		tab.AddRowf(fmt.Sprintf("min faults to break %s (f=%s)", sub.Name, tolString(sub)), faults)
	}
	if rep.Kappa > 0 {
		tab.AddRowf("κ-optimal (Definition 1)", rep.Kappa)
	} else {
		tab.AddRowf("κ-optimal (Definition 1)", "no")
	}
	if _, err := fmt.Fprint(w, tab.String()); err != nil {
		return err
	}
	labels, shares, err := d.TopShares(5)
	if err != nil {
		return err
	}
	top := metrics.NewTable("top configurations", "label", "share")
	for i := range labels {
		top.AddRowf(labels[i], shares[i])
	}
	_, err = fmt.Fprint(w, "\n"+top.String())
	return err
}
