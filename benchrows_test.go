package xst_test

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// fullCommit matches the commit field of a BENCH_*.json parent row, a
// full commit hash; every other row measures a change over its parent.
var fullCommit = regexp.MustCompile(`^[0-9a-f]{40}$`)

// firstPaired is the `pr` number of the first change rows that recorded
// paired time ratios.
const firstPaired = 36

// TestBenchChangeRowsPaired: every change row in the BENCH_*.json
// trajectories from firstPaired on carries a paired block — time ratios
// over at least five alternating parent/change run pairs — since a time
// measured apart from its parent's runs cannot be compared with them.
func TestBenchChangeRowsPaired(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json files (%v)", err)
	}
	checked := 0
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var row struct {
				Pr     int
				Commit string
				Paired *struct{ Pairs int }
			}
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				t.Fatalf("%s:%d: %v", name, line, err)
			}
			if row.Pr < firstPaired || fullCommit.MatchString(row.Commit) {
				continue
			}
			checked++
			if row.Paired == nil || row.Paired.Pairs < 5 {
				t.Errorf("%s:%d: change row %q has no paired block of at least 5 pairs", name, line, row.Commit)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if checked == 0 {
		t.Fatalf("no change rows from pr %d on", firstPaired)
	}
}
