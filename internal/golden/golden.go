// Package golden holds a test's output to a file recorded from an earlier
// run. It is the one recording procedure behind every golden file of the
// repository: an absent file is recorded from the output and the test
// fails, so the recording is reviewed before it is trusted; to re-record,
// delete the file, run the test and review the diff. There is no flag.
package golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// CellPrefix starts a line that names the cell the lines below it belong
// to. A mismatch is reported with the nearest such line at or above it.
const CellPrefix = "== "

// Check compares got with the file at path. An absent file is written from
// got and the test fails. A mismatch fails the test with the first line that
// differs, its number and its cell.
func Check(t testing.TB, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s: review it and run again", path)
		return
	}
	if err != nil {
		t.Fatal(err)
		return
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of file)"
	}
	cell := "none"
	for j := min(i, len(wl)-1); j >= 0; j-- {
		if strings.HasPrefix(wl[j], CellPrefix) {
			cell = strings.TrimPrefix(wl[j], CellPrefix)
			break
		}
	}
	t.Fatalf("%s moved at line %d (cell %s):\n got %s\nwant %s", path, i+1, cell, line(gl), line(wl))
}
