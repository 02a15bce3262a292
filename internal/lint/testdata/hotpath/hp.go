// Package hpfix is the hotpath golden fixture: functions annotated
// //phttp:hotpath must reject every allocation idiom below, while the
// unannotated and pointer/constant cases stay silent (false-positive
// guards for the Action-payload contract: pointers and constants box
// for free).
package hpfix

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
)

type ring struct{ vals []int64 }

//phttp:hotpath
func hotClosure(r *ring, n int64) func() {
	f := func() { r.vals = append(r.vals, n) } // want "closure capturing \"r\" in hot path hotClosure"
	return f
}

//phttp:hotpath
func hotStaticClosure() func() int {
	return func() int { return 42 } // legal: captures nothing
}

//phttp:hotpath
func hotFmt(id int64) string {
	return fmt.Sprintf("id:%d", 0) // want "fmt.Sprintf call in hot path hotFmt"
}

//phttp:hotpath
func hotLog(msg *string) {
	log.Println(msg) // want "log.Println call in hot path hotLog"
}

//phttp:hotpath
func hotConcat(a, b string) string {
	return a + b // want "string concatenation in hot path hotConcat"
}

//phttp:hotpath
func hotConcatAssign(a, b string) string {
	a += b // want "string concatenation in hot path hotConcatAssign"
	return a
}

//phttp:hotpath
func hotConstConcat() string {
	return "phttp/" + "v1" // legal: constant-folded at compile time
}

//phttp:hotpath
func hotMapLit() map[string]int {
	return map[string]int{"a": 1} // want "map literal in hot path hotMapLit"
}

//phttp:hotpath
func hotBoxArg(sink func(any), v int64) {
	sink(v) // want "interface boxing of non-pointer int64 value \\(argument\\) in hot path hotBoxArg"
}

//phttp:hotpath
func hotBoxPtr(sink func(any), r *ring) {
	sink(r) // legal: pointers fit the interface word
}

//phttp:hotpath
func hotBoxConst(sink func(any)) {
	sink("static") // legal: constants box into static data
}

//phttp:hotpath
func hotBoxNil(sink func(any)) {
	sink(nil) // legal
}

//phttp:hotpath
func hotPanicConst(ok bool) {
	if !ok {
		panic("hpfix: invariant broken") // legal: constant panic payload
	}
}

//phttp:hotpath
func hotPanicBox(id int64, ok bool) {
	if !ok {
		panic(id) // want "interface boxing of non-pointer int64 value \\(panic argument\\) in hot path hotPanicBox"
	}
}

//phttp:hotpath
func hotConvert(v float64) any {
	return any(v) // want "interface boxing of non-pointer float64 value \\(conversion to interface\\) in hot path hotConvert"
}

//phttp:hotpath
func hotAssignBox(v int32) {
	var x any = v // want "interface boxing of non-pointer int32 value \\(assignment to interface\\) in hot path hotAssignBox"
	_ = x
}

//phttp:hotpath
func hotReturnBox(v struct{ a, b int64 }) any {
	return v // want "interface boxing of non-pointer struct.* \\(return of interface result\\) in hot path hotReturnBox"
}

//phttp:hotpath
func hotReturnIface(x any) any {
	return x // legal: already an interface, no re-boxing
}

//phttp:hotpath
func hotVariadicForward(xs []any) {
	consume(xs...) // legal: forwarding an existing slice
}

func consume(...any) {}

func coldSprintf(id int64) string {
	return fmt.Sprintf("id %d", id) // legal: not annotated, cold helper
}

//phttp:frobnicate a typo'd directive must fail loudly // want "unknown directive //phttp:frobnicate"
func typodDirective() {}

//phttp:hotpath
func hotFields(line string) int {
	return len(strings.Fields(line)) // want "strings.Fields call in hot path hotFields allocates its result"
}

//phttp:hotpath
func hotItoa(dst []byte, n int) []byte {
	dst = append(dst, strconv.Itoa(n)...)       // want "strconv.Itoa call in hot path hotItoa allocates its result \\(use strconv.AppendInt\\)"
	return strconv.AppendInt(dst, int64(n), 10) // legal: appends in place
}

//phttp:hotpath
func hotReadString(br *bufio.Reader) (int, error) {
	line, err := br.ReadString('\n') // want "bufio.Reader.ReadString call in hot path hotReadString allocates its result"
	if err != nil {
		return 0, err
	}
	raw, err := br.ReadSlice('\n') // legal: aliases the reader's buffer
	return len(line) + len(raw) + strings.IndexByte(line, ' '), err
}

//phttp:hotpath
func hotFile(tcp *net.TCPConn, send func(fd uintptr)) error {
	f, err := tcp.File() // want "net.conn.File call in hot path hotFile dups and sets the shared socket blocking; borrow it through the connection's RawConn"
	if err != nil {
		return err
	}
	send(f.Fd())                 // want "os.File.Fd call in hot path hotFile dups and sets the shared socket blocking"
	rc, err := tcp.SyscallConn() // want "net.TCPConn.SyscallConn call in hot path hotFile allocates a RawConn on every call"
	if err != nil {
		return err
	}
	return rc.Control(send)
}

//phttp:hotpath
func hotSyscallConn(f *os.File, sc syscall.Conn) error {
	if _, err := f.SyscallConn(); err != nil { // want "os.File.SyscallConn call in hot path hotSyscallConn allocates a RawConn"
		return err
	}
	_, err := sc.SyscallConn() // want "syscall.Conn.SyscallConn call in hot path hotSyscallConn allocates a RawConn"
	return err
}

// rawSock holds a connection's RawConn and its callback, both taken once.
type rawSock struct {
	rc   syscall.RawConn
	send func(fd uintptr)
}

//phttp:hotpath
func (s *rawSock) hotControl() error {
	return s.rc.Control(s.send) // legal: the RawConn and its callback were made once
}

func coldFile(f *os.File) uintptr { return f.Fd() } // legal: not annotated

func coldFields(line string) []string { return strings.Fields(line) } // legal: not annotated
