//go:build !386

package cluster

import "syscall"

// accept4 takes a connection off listening socket s, non-blocking and
// close-on-exec in the same call, and without its peer's address, which
// nothing reads.
func accept4(s int) (int, error) {
	fd, _, e := syscall.Syscall6(syscall.SYS_ACCEPT4, uintptr(s), 0, 0, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0, 0)
	if e != 0 {
		return -1, e
	}
	return int(fd), nil
}
