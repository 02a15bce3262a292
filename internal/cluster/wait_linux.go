//go:build linux

package cluster

import (
	"io"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// clientSock is a worker's client socket, on either node: the descriptor
// accept4 returned to a front-end, or the one a back-end received with the
// connection's HANDOFF, and the worker's own epoll set. The set is the
// worker's one registration with the runtime's poller, as an *os.File,
// opened on its first connection, and its RawConn.Read runs every wait of
// the connection: the callback makes the raw system call, and when that
// would block the goroutine parks until the set turns readable — the
// socket is ready for it — or the file's read deadline, every deadline of
// the connection, passes. A front-end's socket is in the set from attach
// to close, for reads; a back-end never reads its client socket, and its
// socket joins the set only while a write waits. Writes are raw first: a
// socket with room takes them with no call on the set. So a connection
// costs no registration and no allocation, and no TCP_NODELAY either:
// Linux copies the listening socket's to it.
type clientSock struct {
	fd, epfd                int    // the connection (-1 between connections) and the set
	events                  uint32 // what the set watches between writes: clientEvents or nothing
	ep                      *os.File
	rc                      syscall.RawConn
	reader, writer, splicer func(uintptr) bool // the system calls' callbacks, bound once
	p                       []byte             // what reader and writer read into or write
	pipe                    *bodyPipe          // what splicer empties
	n                       int
	err                     error
	out                     bool // EPOLLOUT is in the set: a write waits
	ev                      syscall.EpollEvent
	// be is a back-end's connection, whose clock times each wait of a
	// write; nil on a front-end, which sets its deadlines itself.
	be *beConn
	// For tests: how often a read or write found the socket not ready,
	// how many Write and splice calls the socket took, and how many
	// deadlines were set on it.
	waits, writes, deadlines atomic.Int32
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
	s.reader, s.writer, s.splicer = s.read, s.write, s.spliceOut
	return err
}

// release closes the set, if attach opened one.
func (s *clientSock) release() { s.ep.Close() }

// clientEvents is what a front-end's set watches; EPOLLOUT joins while a
// write waits.
const clientEvents = syscall.EPOLLIN | syscall.EPOLLRDHUP

// attach makes fd the socket's connection, in the set from now on when
// the worker reads it. The worker's first connection opens the set.
//
//phttp:hotpath
func (s *clientSock) attach(fd int, reads bool) error {
	if s.ep == nil {
		if err := s.open(); err != nil {
			return err
		}
	}
	s.fd, s.events = fd, 0
	if !reads {
		return nil
	}
	s.events = clientEvents
	return s.ctl(syscall.EPOLL_CTL_ADD, clientEvents)
}

func (s *clientSock) ctl(op int, events uint32) error {
	s.ev.Events, s.ev.Fd = events, int32(s.fd)
	return syscall.EpollCtl(s.epfd, op, s.fd, &s.ev)
}

// close takes the connection out of the set, if it is in it, and closes
// it: the other node's descriptor keeps the socket, and so its place in
// the set.
func (s *clientSock) close() {
	if s.events != 0 {
		s.ctl(syscall.EPOLL_CTL_DEL, 0)
	}
	syscall.Close(s.fd)
	s.fd, s.be = -1, nil
}

func (s *clientSock) deadline(t time.Time) {
	s.deadlines.Add(1)
	s.ep.SetReadDeadline(t)
}

//phttp:hotpath
func (s *clientSock) Read(p []byte) (int, error) {
	s.p, s.n, s.err = p, 0, nil
	err := s.rc.Read(s.reader)
	if err == nil {
		err = s.err
	}
	s.p = nil
	if err == nil && s.n == 0 && len(p) > 0 {
		err = io.EOF
	}
	return s.n, err
}

// Write writes p whole (see run).
//
//phttp:hotpath
func (s *clientSock) Write(p []byte) (int, error) {
	s.p, s.n = p, 0
	err := s.run(s.writer)
	s.p = nil
	return s.n, err
}

// splice empties pipe p onto the socket, as Write writes a buffer.
//
//phttp:hotpath
func (s *clientSock) splice(p *bodyPipe) error {
	s.pipe, p.err = p, nil
	err := s.run(s.splicer)
	s.pipe = nil
	if err == nil {
		err = p.err
	}
	return err
}

// run makes a write's system calls through f: at once, and, when the
// socket is full — f then asks to wait, EPOLLOUT in the set — through the
// set's RawConn.Read, until f is done or the deadline passes; a back-end's
// wait is timed as it starts. It returns the deadline's error or f's,
// with EPOLLOUT out of the set again.
//
//phttp:hotpath
func (s *clientSock) run(f func(uintptr) bool) error {
	s.writes.Add(1)
	s.err = nil
	var err error
	if !f(0) {
		if s.be != nil {
			s.be.clock()
		}
		err = s.rc.Read(f)
	}
	if s.out {
		s.out = false
		op := syscall.EPOLL_CTL_DEL
		if s.events != 0 {
			op = syscall.EPOLL_CTL_MOD
		}
		if e := s.ctl(op, s.events); err == nil {
			err = e
		}
	}
	if err == nil {
		err = s.err
	}
	return err
}

func (s *clientSock) read(uintptr) bool {
	for {
		n, err := syscall.Read(s.fd, s.p)
		if err == syscall.EAGAIN {
			s.waits.Add(1)
			return false
		} else if err != syscall.EINTR {
			s.n, s.err = max(n, 0), err
			return true
		}
	}
}

// write writes s.p whole, or asks to wait when the socket is full.
func (s *clientSock) write(uintptr) bool {
	for s.n < len(s.p) {
		n, err := syscall.Write(s.fd, s.p[s.n:])
		if err == nil {
			s.n += n
		} else if err == syscall.EAGAIN {
			return s.wait()
		} else if err != syscall.EINTR {
			s.err = err
			return true
		}
	}
	return true
}

// spliceOut splices what s.pipe holds to the socket, or asks to wait when
// the socket is full.
func (s *clientSock) spliceOut(uintptr) bool {
	return s.pipe.drainTo(uintptr(s.fd)) || s.wait()
}

// wait readies the set for a write to wait on the full socket: EPOLLOUT
// joins it. It reports whether the write must end instead: the set
// refused.
func (s *clientSock) wait() bool {
	s.waits.Add(1)
	if !s.out {
		op := syscall.EPOLL_CTL_ADD
		if s.events != 0 {
			op = syscall.EPOLL_CTL_MOD
		}
		s.out, s.err = true, s.ctl(op, s.events|syscall.EPOLLOUT)
	}
	return s.err != nil
}
