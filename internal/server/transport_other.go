//go:build !linux

package server

import (
	"net"
	"time"
)

// liveness, where the socket is not peeked, retires a connection idle for
// half the daemons' idle timeout: one the server closed sooner is found by
// the exchange sent on it.
type liveness struct{ since time.Time }

func (l *liveness) bind(net.Conn) {}
func (l *liveness) parked()       { l.since = time.Now() }
func (l *liveness) alive() bool   { return time.Since(l.since) < idleTimeout/2 }
