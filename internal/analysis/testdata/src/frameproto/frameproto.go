// Package frameproto is the frameproto negative fixture: its synthetic
// import path (fixture/wire) is the frame layer itself, where raw conn
// writes are the whole point.
package frameproto

import "net"

func writeFrame(c net.Conn, p []byte) error {
	_, err := c.Write(p)
	return err
}
