package phttp_test

import (
	"fmt"

	"phttp/internal/core"
	"phttp/internal/policy"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

// Example is the smallest useful tour of the library: the LARD dispatcher
// making content-based placement decisions (Figure 1 of the paper), a
// synthetic Web workload, and one cluster simulation comparing weighted
// round-robin against extended LARD with back-end forwarding on
// persistent connections.
func Example() {
	// Figure 1: three targets, two back-ends. LARD partitions the working
	// set, so a repeated request lands where its target is cached.
	// Policies key targets by interned ID, as every driver does.
	lard := policy.NewLARD(2, 64<<20, policy.DefaultParams())
	in := core.NewInterner()
	fmt.Println("LARD placement (Figure 1):")
	var open []*core.ConnState
	for i, target := range []core.Target{"/A", "/B", "/C", "/A", "/B", "/C"} {
		c := core.NewConnState(core.ConnID(i))
		node := lard.ConnOpen(c, core.Request{Target: target, ID: in.Intern(target), Size: 8 << 10})
		fmt.Printf("  GET %s -> %v\n", target, node)
		open = append(open, c) // hold connections so load shapes placement
	}
	for _, c := range open {
		lard.ConnClose(c)
	}

	cfg := trace.SmallSynthConfig()
	cfg.Connections = 6000
	tr := trace.NewSynth(cfg).Generate()
	fmt.Printf("workload: %d connections, %d requests, %d targets\n",
		len(tr.Conns), tr.Requests(), len(tr.Sizes))

	// WRR against extended LARD with BE forwarding, on 4 nodes with a
	// cache small enough to matter for this small workload.
	for _, name := range []string{"WRR-PHTTP", "BEforward-extLARD-PHTTP"} {
		combo, err := sim.ComboByName(name)
		if err != nil {
			panic(err)
		}
		sc := sim.DefaultConfig(4, combo)
		sc.CacheBytes = 4 << 20
		res, err := sim.Run(sc, tr)
		if err != nil {
			panic(err)
		}
		fmt.Println(res)
	}
	// Output:
	// LARD placement (Figure 1):
	//   GET /A -> be0
	//   GET /B -> be1
	//   GET /C -> be0
	//   GET /A -> be0
	//   GET /B -> be1
	//   GET /C -> be0
	// workload: 6000 connections, 62180 requests, 1749 targets
	// WRR-PHTTP                    n=4    1051.9 req/s  hit= 70.8%  cpu= 24.0%  disk= 98.6%  fe=  1.2%  p99=741.4ms p999=831.5ms
	// BEforward-extLARD-PHTTP      n=4    3751.4 req/s  hit= 92.5%  cpu= 98.8%  disk= 90.8%  fe=  4.3%  p99=223.2ms p999=364.5ms
}
