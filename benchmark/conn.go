package main

import (
	"net"
	"sync/atomic"
)

// countingConn counts the bytes an evaluator connection moves in both
// directions. It is handed to arm2gc.NewClient, so the totals are the
// client-observed wire cost of a session: everything the client wrote
// plus everything it read.
type countingConn struct {
	net.Conn
	read    atomic.Int64
	written atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

func (c *countingConn) total() int64 { return c.read.Load() + c.written.Load() }
