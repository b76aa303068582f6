// Package framerelay is a frameproto positive fixture for the packages
// that once held a raw-write exemption: loaded as fixture/ot and as
// fixture/gateway, a raw Write to a conn is flagged like anywhere else
// outside the frame layer.
package framerelay

import (
	"io"
	"net"

	"arm2gc/internal/wire"
)

func sendPoint(c net.Conn, point []byte) {
	_, _ = c.Write(point) // want "raw c.Write bypasses the typed frame layer"
}

// forward writes to whatever writer it is handed: an io.Writer is not a
// conn, so the analyzer leaves it to the caller.
func forward(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// sendFrame goes through the frame layer: a package function named Write
// is not a conn method.
func sendFrame(c net.Conn, payload []byte) error {
	return wire.Write(c, wire.OT, payload)
}
