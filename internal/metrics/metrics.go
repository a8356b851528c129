// Package metrics provides the summary statistics, histograms and aligned
// text tables shared by every experiment harness in the repository. All
// experiment binaries and benchmarks print their results through
// metrics.Table so that a table regenerates byte-for-byte from its seed.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds descriptive statistics over a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// Summarize computes descriptive statistics for xs. It returns a zero
// Summary for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	var ss float64
	for _, x := range sorted {
		d := x - mean
		ss += d * d
	}
	sd := 0.0
	if len(sorted) > 1 {
		sd = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		StdDev: sd,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Quantile(sorted, 0.5),
		P90:    Quantile(sorted, 0.9),
		P99:    Quantile(sorted, 0.99),
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) of an already-sorted
// sample using linear interpolation. It returns NaN for an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ConfidenceInterval95 returns the half-width of a 95% confidence interval
// for the mean, using the normal approximation (adequate for the n >= 30
// trial counts the experiment harnesses use).
func ConfidenceInterval95(s Summary) float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi  float64
	Counts  []uint64
	Under   uint64 // samples below Lo
	Over    uint64 // samples at or above Hi
	samples uint64
}

// NewHistogram returns a histogram with the given bounds and bucket count.
// It panics if hi <= lo or buckets < 1; both are programmer errors.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if hi <= lo {
		panic(fmt.Sprintf("metrics: histogram hi %v <= lo %v", hi, lo))
	}
	if buckets < 1 {
		panic("metrics: histogram needs at least one bucket")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, buckets)}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	h.samples++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if idx >= len(h.Counts) { // float edge
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// Total reports the number of observed samples, including out-of-range ones.
func (h *Histogram) Total() uint64 { return h.samples }

// BucketBounds returns the [lo, hi) bounds of bucket i.
func (h *Histogram) BucketBounds(i int) (float64, float64) {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64(i)*w, h.Lo + float64(i+1)*w
}

// Table is a simple column-aligned text table. It is the single output
// format for every experiment so results can be diffed across runs.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Cells beyond the column count are dropped; missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		cells = cells[:len(t.Columns)]
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row formatting each cell with fmt.Sprint for
// convenience in experiment code.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, FormatFloat(v))
		default:
			row = append(row, fmt.Sprint(c))
		}
	}
	t.AddRow(row...)
}

// AddNote appends a free-text footnote rendered below the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// FormatFloat renders a float with enough, but not excessive, precision for
// experiment tables: 4 significant decimals, trailing zeros trimmed.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown (cmd/experiments
// -markdown).
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		cells := make([]string, len(t.Columns))
		copy(cells, row)
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}
