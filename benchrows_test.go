package xst_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// fullCommit matches the commit field of a BENCH_*.json parent row, a
// full commit hash; every other row measures a change over its parent.
var fullCommit = regexp.MustCompile(`^[0-9a-f]{40}$`)

const (
	// firstPaired is the `pr` number of the first change rows that
	// recorded paired time ratios.
	firstPaired = 36
	// firstAnchored is the first `pr` whose change rows must include one
	// with an anchor block against anchorCommit.
	firstAnchored = 48
	anchorCommit  = "1aceaad"
)

// TestBenchChangeRowsPaired: every change row in the BENCH_*.json
// trajectories from firstPaired on carries a paired block — time ratios
// over at least five alternating parent/change run pairs — since a time
// measured apart from its parent's runs cannot be compared with them.
// From firstAnchored on, at least one change row of each PR also
// carries an anchor block of at least five pairs against anchorCommit,
// since drift that piles up one noisy parent pair at a time shows only
// against a fixed commit.
func TestBenchChangeRowsPaired(t *testing.T) {
	checked, errs := checkBenchRows(t, ".")
	for _, e := range errs {
		t.Error(e)
	}
	if checked == 0 {
		t.Fatalf("no change rows from pr %d on", firstPaired)
	}
}

// TestBenchRowsWithoutAnchorFail: the check rejects a PR whose change
// rows carry no anchor block, or one of too few pairs or against
// another commit, and accepts one row with a good block among several.
func TestBenchRowsWithoutAnchorFail(t *testing.T) {
	dir := t.TempDir()
	paired := `"paired": {"pairs": 5}`
	rows := map[string][]string{
		"BENCH_a.json": {
			`{"pr": 48, "commit": "change on abc", ` + paired + `}`,
			`{"pr": 49, "commit": "change on def", ` + paired + `, "anchor": {"commit": "1aceaad", "pairs": 4}}`,
			`{"pr": 50, "commit": "change on 123", ` + paired + `, "anchor": {"commit": "abcdef0", "pairs": 5}}`,
			`{"pr": 51, "commit": "change on 456", ` + paired + `}`,
			`{"pr": 47, "commit": "change on 789", ` + paired + `}`,
		},
		"BENCH_b.json": {
			`{"pr": 51, "commit": "0123456789012345678901234567890123456789"}`,
			`{"pr": 51, "commit": "change on 456", ` + paired + `, "anchor": {"commit": "1aceaad", "pairs": 5}}`,
		},
	}
	for name, lines := range rows {
		var b []byte
		for _, l := range lines {
			b = append(append(b, l...), '\n')
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, errs := checkBenchRows(t, dir)
	want := []string{noAnchor(48), noAnchor(49), noAnchor(50)}
	if !slices.Equal(errs, want) {
		t.Fatalf("errors %q, want %q", errs, want)
	}
}

func noAnchor(pr int) string {
	return fmt.Sprintf("pr %d: no change row has an anchor block of at least 5 pairs against %s", pr, anchorCommit)
}

// checkBenchRows reads every BENCH_*.json in dir and returns how many
// change rows from firstPaired on it checked and what it found wrong,
// PRs without an anchor in increasing order.
func checkBenchRows(t *testing.T, dir string) (checked int, errs []string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json files in %s (%v)", dir, err)
	}
	anchored := map[int]bool{} // pr → one of its change rows has an anchor
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
				Anchor *struct {
					Commit string
					Pairs  int
				}
			}
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				t.Fatalf("%s:%d: %v", name, line, err)
			}
			if row.Pr < firstPaired || fullCommit.MatchString(row.Commit) {
				continue
			}
			checked++
			if row.Paired == nil || row.Paired.Pairs < 5 {
				errs = append(errs, fmt.Sprintf("%s:%d: change row %q has no paired block of at least 5 pairs", name, line, row.Commit))
			}
			if row.Pr >= firstAnchored {
				anchored[row.Pr] = anchored[row.Pr] || row.Anchor != nil && row.Anchor.Pairs >= 5 && row.Anchor.Commit == anchorCommit
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	prs := make([]int, 0, len(anchored))
	for pr, ok := range anchored {
		if !ok {
			prs = append(prs, pr)
		}
	}
	slices.Sort(prs)
	for _, pr := range prs {
		errs = append(errs, noAnchor(pr))
	}
	return checked, errs
}
