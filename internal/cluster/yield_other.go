//go:build !linux

package cluster

// yieldThread does nothing where the scheduler it works around is absent
// (see yield_linux.go).
func yieldThread() bool { return false }
