package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty sample is not NaN")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 42} {
		h.Observe(x)
	}
	if h.Under != 1 {
		t.Fatalf("Under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Fatalf("Over = %d, want 2", h.Over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Fatalf("bucket0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2
		t.Fatalf("bucket1 = %d, want 1", h.Counts[1])
	}
	if h.Counts[4] != 1 { // 9.99
		t.Fatalf("bucket4 = %d, want 1", h.Counts[4])
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d, want 7", h.Total())
	}
	lo, hi := h.BucketBounds(1)
	if lo != 2 || hi != 4 {
		t.Fatalf("BucketBounds(1) = %v,%v", lo, hi)
	}
}

func TestHistogramPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("inverted bounds", func() { NewHistogram(5, 5, 1) })
	mustPanic("zero buckets", func() { NewHistogram(0, 1, 0) })
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRowf("beta", 2.5)
	tab.AddNote("seed=%d", 7)
	out := tab.String()
	for _, want := range []string{"== demo ==", "alpha", "beta", "2.5", "note: seed=7", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := NewTable("m", "a", "b")
	tab.AddRow("1") // short row pads
	md := tab.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| --- | --- |") {
		t.Fatalf("markdown malformed:\n%s", md)
	}
	if !strings.Contains(md, "| 1 |  |") {
		t.Fatalf("short row not padded:\n%s", md)
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tab := NewTable("x", "only")
	tab.AddRow("a", "b", "c")
	if len(tab.Rows[0]) != 1 {
		t.Fatalf("extra cells kept: %v", tab.Rows[0])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"}, {3.5, "3.5"}, {3.14159, "3.1416"}, {0.1000, "0.1"}, {-2, "-2"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: histogram conserves samples: sum(buckets)+under+over == total.
func TestPropHistogramConservation(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-100, 100, 13)
		n := uint64(0)
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Observe(x)
			n++
		}
		var sum uint64
		for _, c := range h.Counts {
			sum += c
		}
		return sum+h.Under+h.Over == n && h.Total() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestPropQuantileMonotone(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		qa, qb := math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(clean, qa) <= Quantile(clean, qb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
