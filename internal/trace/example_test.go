package trace_test

import (
	"bytes"
	"fmt"

	"phttp/internal/trace"
)

// ExampleReconstruct processes a server log the way the paper's authors
// processed the Rice logs: write and read back a Common Log Format log,
// reconstruct HTTP/1.1 persistent connections and pipelined batches with
// the 15-second and 1-second heuristics, and report the Section 6
// statistics (working set, coverage curve, requests per connection). A
// real log goes through the same trace.ReadCLF call.
func ExampleReconstruct() {
	cfg := trace.SmallSynthConfig()
	cfg.Connections = 3000
	var log bytes.Buffer
	if err := trace.WriteCLF(&log, trace.NewSynth(cfg).GenerateEntries()); err != nil {
		panic(err)
	}
	entries, malformed, err := trace.ReadCLF(&log)
	if err != nil {
		panic(err)
	}
	fmt.Printf("read %d entries (%d malformed lines skipped)\n", len(entries), malformed)

	tr := trace.Reconstruct(entries, trace.DefaultIdleTimeout, trace.DefaultBatchWindow)
	fmt.Print(trace.ComputeStats(tr, 0.97, 0.99, 1.0))
	// Output:
	// read 30570 entries (0 malformed lines skipped)
	// trace: 3000 connections, 30570 requests, 1697 targets, 12.3 MB working set
	// mean response 6889 B, 10.19 requests/connection, 2.01 requests/batch
	// memory to cover 97% of requests: 8.7 MB
	// memory to cover 99% of requests: 10.6 MB
	// memory to cover 100% of requests: 12.3 MB
}
