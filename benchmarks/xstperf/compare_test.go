package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.median and statistics.quantiles(values, n=4) return.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3}, 3, 3, 3},
	} {
		if q1, med, q3 := quartiles(c.in); q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// writeReports writes one untraced report of workload "w" per value of
// ops_per_s, each with 1000 statements attempted and `failed` of them
// failed.
func writeReports(t *testing.T, failed int, opsPerS ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.json")
	for _, v := range opsPerS {
		line, err := json.Marshal(report{Workload: "w", Correct: failed == 0, Attempted: 1000, Failed: failed,
			Metrics: map[string]metric{"ops_per_s": {Value: v, Unit: "1/s"}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := appendLine(path, line); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	var cat catalogue
	if err := json.Unmarshal([]byte(`{"workloads":[{"name":"w"}],
		"end_to_end":[{"name":"ops_per_s","better":"higher","bound":0.1}]}`), &cat); err != nil {
		t.Fatal(err)
	}
	base := writeReports(t, 0, 100, 101, 99, 100, 102)
	// A run that lacks the metric, and a file without a run of the workload.
	lacking, empty := filepath.Join(t.TempDir(), "lacking.json"), filepath.Join(t.TempDir(), "empty.json")
	line, _ := json.Marshal(report{Workload: "w", Correct: true, Attempted: 1000})
	if err := appendLine(lacking, line); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		b       string
		verdict string
		worse   bool
	}{
		{"same", writeReports(t, 0, 98, 100, 101, 99, 100), "same", false},
		{"better", writeReports(t, 0, 150, 151, 149, 150, 152), "same", false},
		{"worse", writeReports(t, 0, 80, 81, 79, 80, 82), "worse", true},
		{"unresolved", writeReports(t, 0, 60, 100, 140, 100, 101), "unresolved", false},
		{"statements fail", writeReports(t, 500, 98, 100, 101, 99, 100), "worse", true},
		{"metric missing", lacking, "worse (missing)", true},
		{"one wrong answer", writeReports(t, 1, 98, 100, 101, 99, 100), "worse", true},
		{"workload missing", empty, "worse (missing)", true},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, &cat, base, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: worse=%v, output:\n%s", c.name, worse, out.String())
		}
	}
}
