// Package phttp is a from-scratch Go reproduction of Aron, Druschel and
// Zwaenepoel, "Efficient Support for P-HTTP in Cluster-Based Web Servers"
// (USENIX Annual Technical Conference, 1999).
//
// The module contains the paper's policies (LARD via its three cost
// metrics, extended LARD for persistent connections, weighted round-robin),
// its request distribution mechanisms (TCP single and multiple handoff,
// back-end request forwarding, a relaying front-end, and the zero-cost
// ideal), the trace-driven cluster simulator and analytic model behind its
// evaluation figures, and a runnable prototype cluster whose TCP handoff is
// emulated with SCM_RIGHTS file-descriptor passing.
//
// Policies live behind an open registry (dispatch.Register; p2c and
// bounded-load consistent hashing ship registered through it, and
// examples/custom-policy adds one from outside the tree), and whole
// experiments are declarative: internal/scenario compiles one versioned
// JSON spec to simulator, prototype and load-generator configuration, with
// the paper's figure experiments embedded as named scenarios
// (scenario.Builtin, phttp-sim -scenario fig7). See DESIGN.md §13.
//
// Start with DESIGN.md: the system inventory, the documented substitutions
// for 1999-era infrastructure, and the shared dispatch engine
// (internal/dispatch) that drives both the simulator and the prototype. The
// root package holds only this documentation and the data-structure
// micro-benchmarks and extended-LARD ablations (bench_test.go); the
// implementation lives under internal/ and the executables under cmd/.
package phttp
