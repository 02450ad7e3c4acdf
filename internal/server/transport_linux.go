package server

import (
	"net"
	"syscall"
)

// liveness finds an idle connection the server has closed, or written to
// unasked, before an exchange is sent on it: one non-blocking peek at the
// socket, bound once at the dial, so a check allocates nothing. The
// connection is alive when the peek would block: no end of stream, no stray
// byte, no other error.
type liveness struct {
	raw  syscall.RawConn // nil: no descriptor to peek at
	peek func(fd uintptr) bool
	err  error // of the last peek
	buf  [1]byte
}

func (l *liveness) bind(nc net.Conn) {
	if sc, ok := nc.(syscall.Conn); ok {
		l.raw, _ = sc.SyscallConn()
	}
	l.peek = func(fd uintptr) bool {
		_, _, l.err = syscall.Recvfrom(int(fd), l.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true
	}
}

func (l *liveness) parked() {}

func (l *liveness) alive() bool {
	return l.raw == nil || l.raw.Read(l.peek) == nil && l.err == syscall.EAGAIN
}
