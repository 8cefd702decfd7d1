package stats

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("betabeta", 2.5)
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[2], "---") {
		t.Errorf("header/rule wrong: %q", out)
	}
	if !strings.Contains(lines[4], "2.50") {
		t.Errorf("AddRowf float formatting wrong: %q", lines[4])
	}
	// Column alignment: "alpha" padded to "betabeta" width.
	if !strings.HasPrefix(lines[3], "alpha   ") {
		t.Errorf("column padding wrong: %q", lines[3])
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	if out := tb.String(); !strings.Contains(out, "only") {
		t.Error("short rows must render")
	}
}

func TestCountFileLoC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	src := `// package comment
package x

/* block
comment */
func F() int { // trailing comments count as code lines
	return 1
}

/* one-line block */
var Y = 2
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := CountFileLoC(path)
	if err != nil {
		t.Fatal(err)
	}
	// package x / func F / return 1 / } / var Y = 5 code lines
	if n != 5 {
		t.Fatalf("loc = %d, want 5", n)
	}
}

func TestCountDirLoC(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "a.go"), []byte("package a\nvar X = 1\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "a_test.go"), []byte("package a\nvar T = 1\nvar U = 2\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "notgo.txt"), []byte("hello\n"), 0o644)
	n, err := CountDirLoC(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loc = %d, want 2 (tests and non-Go excluded)", n)
	}
	os.WriteFile(filepath.Join(dir, "snapshot.go"), []byte("package a\nvar S = 1\n"), 0o644)
	if n, _ := CountDirLoC(dir, "snapshot.go"); n != 2 {
		t.Fatalf("loc excluding snapshot.go = %d, want 2", n)
	}
	if _, err := CountDirLoC(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir must error")
	}
	if _, err := CountFilesLoC(filepath.Join(dir, "a.go"), filepath.Join(dir, "missing.go")); err == nil {
		t.Fatal("missing file must error")
	}
	if n, _ := CountFilesLoC(filepath.Join(dir, "a.go")); n != 2 {
		t.Fatalf("CountFilesLoC = %d, want 2", n)
	}
}
