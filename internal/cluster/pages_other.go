//go:build !linux

package cluster

import "net"

// Where there is no vmsplice and no splice, every body takes the chunk
// path (bufpool.go): no page is made, no pipe opened.

const pageBodyMin = 20 << 10

type pageArena struct{}

func (*pageArena) publish(*doc) *contentPage { return nil }
func (*pageArena) release()                  {}

type bodyPipe struct{}

func (*bodyPipe) close()   {}
func (*bodyPipe) discard() {}

func (*respWriter) sendPages(beReq, []byte, int64) (bool, error) { return false, nil }
func (*respWriter) drainPipe() error                             { return nil }

func (*peerConn) rawConn() {}

type peerOut struct{}

func (*peerOut) send(net.Conn, []byte, *contentPage, int64) (bool, error) { return false, nil }
func (*peerOut) close()                                                   {}
