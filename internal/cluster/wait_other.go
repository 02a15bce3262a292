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
	fd            int                     // -1 between connections
	f             atomic.Pointer[os.File] // wake reads it from any goroutine
	be            *beConn                 // a back-end's connection, whose clock times each write
	down, stopped atomic.Bool             // as on Linux
	// For tests, as on Linux; waits are not counted here.
	waits, writes, deadlines atomic.Int32
}

func (s *clientSock) open() error { return nil }
func (s *clientSock) release()    {}

func (s *clientSock) attach(fd int, _ bool) error {
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	s.fd = fd
	s.down.Store(false)
	s.f.Store(os.NewFile(uintptr(fd), "client"))
	return nil
}

func (s *clientSock) close()                     { s.f.Load().Close(); s.fd, s.be = -1, nil }
func (s *clientSock) Read(p []byte) (int, error) { return s.f.Load().Read(p) }

func (s *clientSock) deadline(t time.Time) {
	s.deadlines.Add(1)
	f := s.f.Load()
	f.SetDeadline(t)
	if s.down.Load() || s.stopped.Load() {
		f.SetDeadline(longAgo)
	}
}

// wake sets flag and ends the wait in progress, if any.
func (s *clientSock) wake(flag *atomic.Bool) {
	flag.Store(true)
	if f := s.f.Load(); f != nil {
		f.SetDeadline(longAgo)
	}
}

// Write writes p whole. The file's write waits inside, so a back-end's
// write is timed before it starts.
func (s *clientSock) Write(p []byte) (int, error) {
	s.writes.Add(1)
	if s.be != nil {
		s.be.clock()
	}
	return s.f.Load().Write(p)
}
