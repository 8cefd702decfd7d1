package stats

import (
	"bufio"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// CountFileLoC counts the source lines of one Go file the way the
// paper's Table 2 does: excluding comments and blank lines.
func CountFileLoC(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				line = strings.TrimSpace(line[idx+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n, sc.Err()
}

// CountDirLoC sums the source lines of the non-test Go files directly
// inside dir, except the files named in exclude.
func CountDirLoC(dir string, exclude ...string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || slices.Contains(exclude, name) {
			continue
		}
		n, err := CountFileLoC(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// CountFilesLoC sums the source lines of the named files.
func CountFilesLoC(paths ...string) (int, error) {
	total := 0
	for _, p := range paths {
		n, err := CountFileLoC(p)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
