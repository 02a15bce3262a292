package sim_test

import (
	"fmt"

	"phttp/internal/sim"
	"phttp/internal/trace"
)

// ExampleRun reproduces a slice of Figure 7: every policy/mechanism
// combination of the paper on one cluster size, with extended LARD's
// decision counters. Reading the rows: WRR is disk bound (low hit rate,
// disk near 100%); simple-LARD-PHTTP loses locality, because persistent
// connections pin requests to the handoff node; extended LARD with BE
// forwarding or multiple handoff recovers it, near the zero-cost ideal.
func ExampleRun() {
	cfg := trace.SmallSynthConfig()
	cfg.Connections = 6000
	tr := trace.NewSynth(cfg).Generate()
	for _, combo := range sim.Combos() {
		sc := sim.DefaultConfig(4, combo)
		sc.CacheBytes = 4 << 20 // small enough to matter for this workload
		res, err := sim.Run(sc, tr)
		if err != nil {
			panic(err)
		}
		fmt.Println(res)
		if res.RemoteServes > 0 || res.Migrations > 0 {
			fmt.Printf("  local=%d remote=%d migrations=%d\n",
				res.LocalServes, res.RemoteServes, res.Migrations)
		}
	}
	// Output:
	// zeroCost-extLARD-PHTTP       n=4    4267.1 req/s  hit= 99.2%  cpu= 97.2%  disk= 11.3%  fe=  4.9%  p99=125.4ms p999=450.6ms
	//   local=18264 remote=0 migrations=43916
	// multiHandoff-extLARD-PHTTP   n=4    3854.1 req/s  hit= 92.6%  cpu= 96.6%  disk= 91.3%  fe=  6.8%  p99=196.6ms p999=434.2ms
	//   local=51321 remote=0 migrations=10859
	// BEforward-extLARD-PHTTP      n=4    3751.4 req/s  hit= 92.5%  cpu= 98.8%  disk= 90.8%  fe=  4.3%  p99=223.2ms p999=364.5ms
	//   local=47409 remote=14771 migrations=0
	// simple-LARD                  n=4    2683.6 req/s  hit= 99.3%  cpu= 99.5%  disk=  5.6%  fe= 20.1%  p99=51.2ms p999=69.1ms
	// simple-LARD-PHTTP            n=4    1249.5 req/s  hit= 75.6%  cpu= 28.5%  disk= 97.5%  fe=  1.4%  p99=831.5ms p999=933.9ms
	// WRR-PHTTP                    n=4    1051.9 req/s  hit= 70.8%  cpu= 24.0%  disk= 98.6%  fe=  1.2%  p99=741.4ms p999=831.5ms
	// WRR                          n=4    1107.0 req/s  hit= 72.1%  cpu= 41.0%  disk= 99.1%  fe=  8.3%  p99=419.8ms p999=428.0ms
}
