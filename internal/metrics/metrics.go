// Package metrics hides the Prometheus text exposition format (version
// 0.0.4): a Writer that renders families sample by sample, and Histogram,
// the one kind of number that has to accumulate between scrapes. It keeps
// no registry: a caller writes every value from the state that owns it at
// scrape time, so a series cannot outlive its subject.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets, with a running sum and
// count, matching Prometheus histogram semantics (<basename>_bucket with le
// labels, _sum, _count). Observe is lock-free: two adds and a CAS loop on
// the sum.
type Histogram struct {
	bounds []float64 // upper bounds, sorted ascending; +Inf implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
}

// NewHistogram returns an empty histogram over the given bucket upper
// bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets builds n exponential bucket bounds starting at start and
// multiplying by factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Writer renders one family after another. Family names the current one;
// its HELP and TYPE lines go out with its first sample, so a family with
// nothing to say renders nothing. Labels are passed as alternating names
// and values. After a failed write the rest is dropped: the reader is gone.
type Writer struct {
	w               io.Writer
	name, typ, help string
	headed          bool
	err             error
}

// NewWriter returns a Writer rendering to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Family starts a family; typ is counter, gauge or histogram.
func (w *Writer) Family(name, typ, help string) {
	w.name, w.typ, w.help, w.headed = name, typ, help, false
}

// Sample writes one sample of the current family.
func (w *Writer) Sample(v float64, labels ...string) {
	w.line("", labels, fmtFloat(v))
}

// Histogram writes h's cumulative buckets, sum and count under the current
// family.
func (w *Writer) Histogram(h *Histogram, labels ...string) {
	le := append(labels[:len(labels):len(labels)], "le", "")
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le[len(le)-1] = "+Inf"
		if i < len(h.bounds) {
			le[len(le)-1] = fmtFloat(h.bounds[i])
		}
		w.line("_bucket", le, strconv.FormatInt(cum, 10))
	}
	w.line("_sum", labels, fmtFloat(h.Sum()))
	w.line("_count", labels, strconv.FormatInt(h.Count(), 10))
}

func (w *Writer) line(suffix string, labels []string, value string) {
	if w.err != nil {
		return
	}
	var b strings.Builder
	if !w.headed {
		w.headed = true
		if w.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", w.name, w.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", w.name, w.typ)
	}
	b.WriteString(w.name)
	b.WriteString(suffix)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		fmt.Fprintf(&b, `%c%s="%s"`, sep, labels[i], escapeLabel(labels[i+1]))
	}
	if len(labels) > 0 {
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
	_, w.err = io.WriteString(w.w, b.String())
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline, nothing else.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
