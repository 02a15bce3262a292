//go:build !linux

package cluster

import (
	"os"
	"syscall"
	"time"
)

// clientSock is a front-end worker's client socket where there is no epoll
// (see wait_linux.go): an *os.File around each connection, with
// TCP_NODELAY set on it, as the listening socket's is not copied everywhere.
type clientSock struct {
	fd    int // -1 between connections
	f     *os.File
	waits int // not counted here
}

func (s *clientSock) open() error { s.fd = -1; return nil }
func (s *clientSock) release()    {}

func (s *clientSock) attach(fd int) error {
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	s.fd, s.f = fd, os.NewFile(uintptr(fd), "client")
	return nil
}

func (s *clientSock) close()                      { s.f.Close(); s.fd = -1 }
func (s *clientSock) deadline(t time.Time)        { s.f.SetDeadline(t) }
func (s *clientSock) Read(p []byte) (int, error)  { return s.f.Read(p) }
func (s *clientSock) Write(p []byte) (int, error) { return s.f.Write(p) }
