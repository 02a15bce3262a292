package metrics

import (
	"strings"
	"testing"
)

func TestSeriesTable(t *testing.T) {
	a := &Series{Name: "a"}
	a.Add(1, 10)
	a.Add(2, 20)
	b := &Series{Name: "b"}
	b.Add(2, 200)
	b.Add(3, 300)
	got := Table("x", a, b)
	want := "x\ta\tb\n1\t10.0\t-\n2\t20.0\t200.0\n3\t-\t300.0\n"
	if got != want {
		t.Errorf("Table:\ngot  %q\nwant %q", got, want)
	}
}

func TestSeriesTableHeaderOnly(t *testing.T) {
	got := Table("x", &Series{Name: "empty"})
	if !strings.HasPrefix(got, "x\tempty\n") || strings.Count(got, "\n") != 1 {
		t.Errorf("empty table = %q", got)
	}
}
