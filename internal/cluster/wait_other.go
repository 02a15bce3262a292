//go:build !linux

package cluster

import (
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// clientSock is a worker's client socket where there is no epoll (see
// wait_linux.go): an *os.File around each connection, with TCP_NODELAY set
// on it, as the listening socket's is not copied everywhere.
type clientSock struct {
	fd int // -1 between connections
	f  *os.File
	be *beConn // a back-end's connection, whose clock times each write
	// For tests, as on Linux; waits are not counted here.
	waits, writes, deadlines atomic.Int32
}

func (s *clientSock) release() {}

func (s *clientSock) attach(fd int, _ bool) error {
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	s.fd, s.f = fd, os.NewFile(uintptr(fd), "client")
	return nil
}

func (s *clientSock) close()                     { s.f.Close(); s.fd, s.be = -1, nil }
func (s *clientSock) deadline(t time.Time)       { s.deadlines.Add(1); s.f.SetDeadline(t) }
func (s *clientSock) Read(p []byte) (int, error) { return s.f.Read(p) }

// Write writes p whole. The file's write waits inside, so a back-end's
// write is timed before it starts.
func (s *clientSock) Write(p []byte) (int, error) {
	s.writes.Add(1)
	if s.be != nil {
		s.be.clock()
	}
	return s.f.Write(p)
}
