//go:build !linux || 386

package cluster

import "syscall"

// accept4 takes a connection off listening socket s, non-blocking and
// close-on-exec, where there is no accept4 system call: accept, then the
// flags one by one.
func accept4(s int) (int, error) {
	syscall.ForkLock.RLock()
	fd, _, err := syscall.Accept(s)
	if err == nil {
		syscall.CloseOnExec(fd)
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return -1, err
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return -1, err
	}
	return fd, nil
}
