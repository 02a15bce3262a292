package cluster

// MappedPageBytes is the content-page memory mapped in the process, for
// the external tests.
func MappedPageBytes() int64 { return arenaBytes.Load() }
