package golden

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// failures records what Check reports instead of failing the test.
type failures struct {
	testing.TB
	msg string
}

func (f *failures) Fatalf(format string, args ...any) { f.msg += fmt.Sprintf(format, args...) }

// TestCheck: an absent file is recorded and fails; the same text then
// passes; a change fails naming its first line and the cell above it.
func TestCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "golden.txt")
	text := "== a\nx 1\n== b sha256 00\n== c\ny 2\ny 3\n"
	for _, c := range []struct{ got, want string }{
		{text, "recorded " + path},
		{text, ""},
		{strings.Replace(text, "y 3", "y 4", 1), "moved at line 6 (cell c):\n got y 4\nwant y 3"},
		{strings.Replace(text, "00", "01", 1), "moved at line 3 (cell b sha256 00)"},
		{text + "z\n", "moved at line 7 (cell c):\n got z\nwant "},
	} {
		f := &failures{TB: t}
		if Check(f, path, c.got); c.want == "" && f.msg != "" || !strings.Contains(f.msg, c.want) {
			t.Errorf("Check reported %q, want %q", f.msg, c.want)
		}
	}
}
