//go:build linux

package cluster

import (
	"io"
	"os"
	"syscall"
	"time"
)

// clientSock is a front-end worker's client socket: the descriptor accept4
// returned, in the worker's own epoll set. The set is the worker's one
// registration with the runtime's poller, as an *os.File, and its
// RawConn.Read runs every read and write of the connection: the callback
// makes the raw system call, and when that would block the goroutine
// parks until the set turns readable — the socket has something for it —
// or the file's read deadline, every deadline of the connection, passes.
// So a connection costs no registration and no allocation, and no
// TCP_NODELAY either: Linux copies the listening socket's to it.
type clientSock struct {
	fd, epfd       int // the connection (-1 between connections) and the set
	ep             *os.File
	rc             syscall.RawConn
	reader, writer func(uintptr) bool // rc.Read's callbacks, bound once
	p              []byte             // what they read into or write
	n              int
	err            error
	out            bool // EPOLLOUT is in the set: a write waits
	ev             syscall.EpollEvent
	waits          int // for tests
}

func (s *clientSock) open() (err error) {
	if s.epfd, err = syscall.EpollCreate1(syscall.EPOLL_CLOEXEC); err != nil {
		return err
	}
	if err = syscall.SetNonblock(s.epfd, true); err != nil {
		syscall.Close(s.epfd)
		return err
	}
	s.ep = os.NewFile(uintptr(s.epfd), "epoll")
	s.rc, err = s.ep.SyscallConn()
	s.fd, s.reader, s.writer = -1, s.read, s.write
	return err
}

func (s *clientSock) release() { s.ep.Close() }

// clientEvents is what the set watches; EPOLLOUT joins while a write waits.
const clientEvents = syscall.EPOLLIN | syscall.EPOLLRDHUP

//phttp:hotpath
func (s *clientSock) attach(fd int) error {
	s.fd = fd
	return s.ctl(syscall.EPOLL_CTL_ADD, clientEvents)
}

func (s *clientSock) ctl(op int, events uint32) error {
	s.ev.Events, s.ev.Fd = events, int32(s.fd)
	return syscall.EpollCtl(s.epfd, op, s.fd, &s.ev)
}

// close takes the connection out of the set before closing it: the
// back-end's descriptor keeps the socket, and so its place in the set.
func (s *clientSock) close() {
	s.ctl(syscall.EPOLL_CTL_DEL, 0) // fails only if attach did: nothing to take out
	syscall.Close(s.fd)
	s.fd = -1
}

func (s *clientSock) deadline(t time.Time) { s.ep.SetReadDeadline(t) }

//phttp:hotpath
func (s *clientSock) Read(p []byte) (int, error) {
	n, err := s.run(p, s.reader)
	if err == nil && n == 0 && len(p) > 0 {
		err = io.EOF
	}
	return n, err
}

//phttp:hotpath
func (s *clientSock) Write(p []byte) (int, error) {
	n, err := s.run(p, s.writer)
	if s.out {
		s.out = false
		if e := s.ctl(syscall.EPOLL_CTL_MOD, clientEvents); err == nil {
			err = e
		}
	}
	return n, err
}

// run has f move p through the set's RawConn.Read: the deadline's error,
// or f's result.
func (s *clientSock) run(p []byte, f func(uintptr) bool) (int, error) {
	s.p, s.n, s.err = p, 0, nil
	err := s.rc.Read(f)
	if err == nil {
		err = s.err
	}
	s.p = nil
	return s.n, err
}

func (s *clientSock) read(uintptr) bool {
	for {
		n, err := syscall.Read(s.fd, s.p)
		if err == syscall.EAGAIN {
			s.waits++
			return false
		} else if err != syscall.EINTR {
			s.n, s.err = max(n, 0), err
			return true
		}
	}
}

// write writes s.p whole, adding EPOLLOUT to the set when the socket is full.
func (s *clientSock) write(uintptr) bool {
	for s.n < len(s.p) {
		n, err := syscall.Write(s.fd, s.p[s.n:])
		if err == nil {
			s.n += n
		} else if err == syscall.EAGAIN {
			s.waits++
			if !s.out {
				s.out, s.err = true, s.ctl(syscall.EPOLL_CTL_MOD, clientEvents|syscall.EPOLLOUT)
			}
			return s.err != nil
		} else if err != syscall.EINTR {
			s.err = err
			return true
		}
	}
	return true
}
