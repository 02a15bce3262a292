package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phttp/internal/core"
	"phttp/internal/dstate"
)

// TestTierGolden pins the scale-out front-end tier's results on the
// 4000-connection workload, 6 nodes: sharded and replicated state, synced
// and never synced, and a sharded run whose node crash mid-run re-dispatches
// owner-held connections (MoveConn). Any change to the tier's protocol that
// moves one decision shows up here as a changed line. On a mismatch the
// test logs the run in the file's form — paste it over
// testdata/tier.golden only for an intended behaviour change.
func TestTierGolden(t *testing.T) {
	type run struct {
		combo     string
		frontends int
		mode      dstate.Mode
		staleness core.Micros
		crash     bool
	}
	runs := []run{
		{"simple-LARD-PHTTP", 4, dstate.ModeSharded, 0, false},
		{"WRR-PHTTP", 2, dstate.ModeSharded, 0, false},
		{"BEforward-extLARD-PHTTP", 4, dstate.ModeReplicated, 10 * core.Millisecond, false},
		{"BEforward-extLARD-PHTTP", 4, dstate.ModeReplicated, 0, false},
		{"simple-LARD-PHTTP", 3, dstate.ModeSharded, 0, true},
	}
	var got strings.Builder
	for _, r := range runs {
		combo, err := ComboByName(r.combo)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(6, combo)
		cfg.Frontends, cfg.FEState, cfg.Staleness = r.frontends, r.mode, r.staleness
		if r.crash {
			cfg.Churn = []ChurnEvent{{At: midRun(t, cfg), Kind: ChurnCrash, Node: 2}}
			cfg.RetryBudget = 2
		}
		res, err := Run(cfg, churnTrace())
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		fmt.Fprintf(&got, "fe=%d %-10s staleness=%-5d crash=%-5t %s redispatches=%d failed=%d\n",
			r.frontends, r.mode, r.staleness, r.crash, res, res.Redispatches, res.FailedRequests)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "tier.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("tier runs differ from testdata/tier.golden; this run printed:\n%s", got.String())
	}
}
