package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Metric names are sanitized — every character
// outside [a-zA-Z0-9_:] becomes an underscore, so "lp.price_evaluations"
// exposes as "lp_price_evaluations" — and emitted in sorted order so
// output is deterministic.
// Histograms render the usual cumulative _bucket{le="..."} series plus
// _sum and _count.
func WritePrometheus(w io.Writer, s Snapshot) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(s.Gauges[n])); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		cum := int64(0)
		for i, b := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(b), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promFloat(h.Sum), pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName sanitizes a dotted metric name into the Prometheus alphabet.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float the way Prometheus expects: shortest
// round-trip representation, with infinities spelled +Inf/-Inf.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}
