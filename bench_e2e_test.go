package phttp

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// benchRow is one row of BENCH_e2e.json: one workload and end-to-end
// metric measured in alternating pairs by scripts/bench-pairs.sh, or
// back-filled from an earlier measurement.
type benchRow struct {
	Workload   string   `json:"workload"`
	Metric     string   `json:"metric"`
	Base       string   `json:"base"`
	Head       string   `json:"head"`
	Pairs      int      `json:"pairs"`
	BaseMedian *float64 `json:"base_median"`
	HeadMedian *float64 `json:"head_median"`
	Wins       *int     `json:"wins"`
	Correct    bool     `json:"correct"`
	Failed     *int64   `json:"failed"`
	Claim      string   `json:"claim"`
	Env        struct {
		CPU    string `json:"cpu"`
		NProc  int    `json:"nproc"`
		Kernel string `json:"kernel"`
		Go     string `json:"go"`
	} `json:"env"`
}

// TestBenchE2E checks the speed trajectory, BENCH_e2e.json (or the file
// BENCH_E2E names): it parses, and every row names its workload, metric
// and both revisions, carries the environment it was measured in, at
// least BENCH_E2E_MIN_PAIRS pairs (3 unless set: CI checks its one-pair
// smoke run with 1), medians and wins, was correct throughout with no
// failed operation, and says whether it is a claim.
func TestBenchE2E(t *testing.T) {
	path := os.Getenv("BENCH_E2E")
	if path == "" {
		path = "BENCH_e2e.json"
	}
	minPairs := 3
	if s := os.Getenv("BENCH_E2E_MIN_PAIRS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("BENCH_E2E_MIN_PAIRS=%q: %v", s, err)
		}
		minPairs = n
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []benchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(rows) == 0 {
		t.Fatalf("%s has no rows", path)
	}
	for i, r := range rows {
		switch {
		case r.Workload == "" || r.Metric == "" || r.Base == "" || r.Head == "":
			t.Errorf("row %d: workload %q, metric %q, base %q, head %q: all four are required", i, r.Workload, r.Metric, r.Base, r.Head)
		case r.Env.CPU == "" || r.Env.NProc <= 0 || r.Env.Kernel == "" || r.Env.Go == "":
			t.Errorf("row %d (%s %s): environment stamp %+v is incomplete", i, r.Workload, r.Metric, r.Env)
		case r.Pairs < minPairs:
			t.Errorf("row %d (%s %s): %d pairs, want at least %d", i, r.Workload, r.Metric, r.Pairs, minPairs)
		case r.BaseMedian == nil || r.HeadMedian == nil || r.Wins == nil || *r.Wins > r.Pairs:
			t.Errorf("row %d (%s %s): medians or wins missing or out of range", i, r.Workload, r.Metric)
		case !r.Correct || r.Failed == nil || *r.Failed != 0:
			t.Errorf("row %d (%s %s): correct %v, failed %v; want true and 0", i, r.Workload, r.Metric, r.Correct, r.Failed)
		case r.Claim != "claim" && r.Claim != "no claim":
			t.Errorf("row %d (%s %s): claim %q, want \"claim\" or \"no claim\"", i, r.Workload, r.Metric, r.Claim)
		}
	}
}
