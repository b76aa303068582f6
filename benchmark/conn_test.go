package main

import (
	"io"
	"net"
	"testing"
)

// TestCountingConnExactTotals drives a scripted stream through the
// wrapper — writes of several sizes one way, a reply read back in small
// pieces the other — and checks the totals to the byte.
func TestCountingConnExactTotals(t *testing.T) {
	client, server := net.Pipe()
	cc := &countingConn{Conn: client}
	script := []int{1, 5, 4096, 33}
	reply := make([]byte, 1000)
	done := make(chan error, 1)
	go func() {
		want := 0
		for _, n := range script {
			want += n
		}
		if _, err := io.ReadFull(server, make([]byte, want)); err != nil {
			done <- err
			return
		}
		_, err := server.Write(reply)
		done <- err
	}()
	wrote := 0
	for _, n := range script {
		m, err := cc.Write(make([]byte, n))
		if err != nil || m != n {
			t.Fatalf("Write(%d) = %d, %v", n, m, err)
		}
		wrote += n
	}
	// Read the reply through a buffer smaller than it, so partial reads
	// must each be counted once.
	read := 0
	buf := make([]byte, 64)
	for read < len(reply) {
		n, err := cc.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		read += n
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := cc.written.Load(); got != int64(wrote) {
		t.Errorf("written = %d, want %d", got, wrote)
	}
	if got := cc.read.Load(); got != int64(len(reply)) {
		t.Errorf("read = %d, want %d", got, len(reply))
	}
	if got := cc.total(); got != int64(wrote+len(reply)) {
		t.Errorf("total = %d, want %d", got, wrote+len(reply))
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := cc.Read(buf); err == nil || n != 0 {
		t.Errorf("Read after Close = %d, %v", n, err)
	}
	if got := cc.total(); got != int64(wrote+len(reply)) {
		t.Errorf("a failed read moved the total to %d", got)
	}
	var _ net.Conn = cc // the wrapper is a net.Conn, so the protocol's deadline-based cancellation still works
}
