package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// stubbed returns the experiments table with every run replaced by a
// recorder of "name/workload", so dispatch is exercised without running an
// experiment.
func stubbed(ran *[]string) []experiment {
	table := append([]experiment(nil), experiments...)
	for i := range table {
		name := table[i].name
		table[i].run = func(_ io.Writer, _ *options, w string) error {
			*ran = append(*ran, name+"/"+w)
			return nil
		}
	}
	return table
}

func TestDispatch(t *testing.T) {
	var ran []string
	table := stubbed(&ran)

	for _, e := range table {
		ran = nil
		var out, errw bytes.Buffer
		if code := dispatch(table, e.name, "airca", &options{}, &out, &errw); code != 0 {
			t.Fatalf("-exp %s: exit %d, stderr %q", e.name, code, errw.String())
		}
		if len(ran) != 1 || ran[0] != e.name+"/airca" {
			t.Fatalf("-exp %s ran %v", e.name, ran)
		}
		if !strings.HasPrefix(out.String(), "==> "+e.title) {
			t.Fatalf("-exp %s printed %q, want the heading %q", e.name, out.String(), e.title)
		}
	}

	// all: every entry once, in table order, sweeping an entry's workloads
	// in place of -workload.
	ran = nil
	var out, errw bytes.Buffer
	if code := dispatch(table, "all", "airca", &options{}, &out, &errw); code != 0 {
		t.Fatalf("-exp all: exit %d, stderr %q", code, errw.String())
	}
	var want []string
	for _, e := range table {
		if e.workloads == nil {
			want = append(want, e.name+"/airca")
		}
		for _, w := range e.workloads {
			want = append(want, e.name+"/"+w)
		}
	}
	if strings.Join(ran, " ") != strings.Join(want, " ") {
		t.Fatalf("-exp all ran\n %v\nwant\n %v", ran, want)
	}
	at := 0
	for _, e := range table {
		i := strings.Index(out.String()[at:], "==> "+e.title)
		if i < 0 {
			t.Fatalf("-exp all: heading %q missing or out of order in\n%s", e.title, out.String())
		}
		at += i + 1
	}

	ran = nil
	errw.Reset()
	if code := dispatch(table, "server", "mot", &options{}, io.Discard, &errw); code != 2 {
		t.Fatalf("unknown experiment: exit %d, want 2", code)
	}
	if len(ran) != 0 || !strings.Contains(errw.String(), names(table)) {
		t.Fatalf("unknown experiment ran %v, stderr %q lacks the names %q", ran, errw.String(), names(table))
	}
}
