package main

import (
	"time"
)

// setupRuns is how many times a run sets its world up. setup_s is the
// median, so one slow start does not decide it; the last world is the one
// measured.
const setupRuns = 3

// setupProtoTimed sets the prototype world up setupRuns times and returns
// the last one with the median set-up time.
func setupProtoTimed(wl workload, opt options) (*protoEnv, float64, error) {
	var env *protoEnv
	var times []float64
	for i := 0; i < setupRuns; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		e, err := setupProto(wl, opt.seed, opt.tamper)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	return env, median(times), nil
}

// measureProto is the end-to-end run of a prototype workload, tracing off.
func measureProto(wl workload, opt options, d time.Duration) (result, error) {
	env, setup, err := setupProtoTimed(wl, opt)
	if err != nil {
		return result{}, err
	}
	defer env.close()
	m := env.measure(d, false)

	r := result{workload: wl.name, attempted: m.attempted, failed: m.failed, problems: env.check(m)}
	if len(m.windows) == 0 {
		return r, nil
	}
	r.add("req_per_s", medianOf(m.windows, window.opsPerSec), "1/s")
	r.add("lat_p50_us", median(m.p50s), "us")
	r.add("lat_p99_us", median(m.p99s), "us")
	r.add("cpu_us_per_req", medianOf(m.windows, window.cpuUsPerOp), "us")
	r.add("allocs_per_req", medianOf(m.windows, window.allocsPerOp), "count")
	r.add("setup_s", setup, "s")

	logf("%s: traffic crossed the host's loopback interface, not a link; closed loop, %d clients, %d back-ends", wl.name, clients, protoNodes)
	logf("%s: %d blocks of %d connections, %d latency samples, p99.9 %.1f us (diagnostic)",
		wl.name, len(m.windows), wl.blockConns, len(m.lats), float64(quantileNS(m.lats, 0.999))/1e3)
	var wall time.Duration
	for _, w := range m.windows {
		wall += w.wall
	}
	logf("%s: %.1f Mbit/s of verified body bytes (derived, not gated)", wl.name, float64(m.bytes)*8/1e6/wall.Seconds())
	logDiscrimination(wl.name, m)
	return r, nil
}

// logDiscrimination prints the counts that show the workload exercises what
// it claims to.
func logDiscrimination(name string, m protoMeasure) {
	c := m.delta
	reqs := float64(m.attempted - m.failed)
	logf("%s: forward_frac %.4f (local %d, remote %d), handoffs/request %.4f, bytes/request %.0f, docstore misses in window %d (no sleep), hits %d",
		name, frac(c.remote, c.local+c.remote), c.local, c.remote, float64(c.feConns)/reqs, float64(m.bytes)/reqs, c.misses, c.hits)
}

func frac(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// setupSimTimed is setupProtoTimed for the simulator world.
func setupSimTimed(wl workload, seed uint64) (*simEnv, float64) {
	var env *simEnv
	var times []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		env = setupSim(wl, seed)
		times = append(times, time.Since(t0).Seconds())
	}
	return env, median(times)
}

// measureSim is the end-to-end run of sim.sweep. The metric names are the
// prototype's, read for the simulator: a request is a simulated trace
// request, and a latency sample is the wall-clock time one combination's
// node sweep took per thousand simulated requests — what someone waiting for
// a figure to regenerate sees, with the slowest combination as the tail.
//
// Every combination is taken from the pass in which it ran fastest. The
// simulator is deterministic and single-threaded, so the passes do identical
// work and anything else on the machine can only slow one down: the fastest
// is the best estimate of the program's own cost. Over ten runs on this box
// the quartiles of req_per_s were 3 % of the median apart this way and 16 %
// apart with the median pass.
func measureSim(wl workload, seed uint64, d time.Duration) (result, error) {
	env, setup := setupSimTimed(wl, seed)
	m, err := env.measure(d)
	if err != nil {
		return result{}, err
	}
	points := int64(len(m.passes[0].results))
	r := result{workload: wl.name, attempted: points}
	r.failed, r.problems = m.check()

	best := m.fastest()
	var total window
	var lats []float64
	for _, c := range best {
		total.wall += c.wall
		total.cpu += c.cpu
		total.mallocs += c.mallocs
		total.ops += c.ops
		lats = append(lats, float64(c.wall.Nanoseconds())/1e3/float64(c.ops)*1000)
	}
	r.add("req_per_s", total.opsPerSec(), "1/s")
	r.add("lat_p50_us", median(lats), "us") // sorts lats
	r.add("lat_p99_us", lats[len(lats)-1], "us")
	r.add("cpu_us_per_req", total.cpuUsPerOp(), "us")
	r.add("allocs_per_req", total.allocsPerOp(), "count")
	r.add("setup_s", setup, "s")

	events := m.passes[0].events()
	logf("%s: %d passes over %d grid points, %d simulated requests and %d events per pass; events_per_s %.0f, ns/event %.1f, allocs/event %.4f (fastest pass of each combination)",
		wl.name, len(m.passes), points, total.ops, events,
		float64(events)/total.wall.Seconds(), float64(total.wall.Nanoseconds())/float64(events), float64(total.mallocs)/float64(events))
	return r, nil
}
