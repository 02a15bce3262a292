// Package metrics renders what the repository reports: the front-end's
// Prometheus text exposition (/status) and the figures' series, as
// tab-separated tables and ASCII plots.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Series is a named sequence of (x, y) points, one per measurement sweep,
// used to print the paper's figures as tab-separated tables.
type Series struct {
	Name   string
	Points []Point
}

// Point is one (x, y) pair.
type Point struct {
	X float64
	Y float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Table renders a set of series sharing their X axis as a tab-separated
// table with a header row, in the style of the paper's figure data. Series
// are joined on exact X values; missing cells render as "-".
func Table(xLabel string, series ...*Series) string {
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	var b strings.Builder
	b.WriteString(xLabel)
	for _, s := range series {
		b.WriteByte('\t')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(&b, "\t%.1f", y)
			} else {
				b.WriteString("\t-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookup(s *Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
