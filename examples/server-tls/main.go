// The hardened service in one process: programs loaded from a registry
// on disk, served over TLS with per-program bearer-token authorization,
// a warmed garble-ahead pool (two pre-garbled streams per program) and a
// Prometheus metrics endpoint; one client runs two programs over a single
// TLS connection, has an unauthorized proposal rejected without losing
// that connection, and the metrics report the exact counts — including
// that every session was served from a pre-garbled stream.
//
// The certificates are throwaway dev material minted in-process
// (internal/devcert, the same generator behind `make serve-tls`); a real
// deployment points -tls-cert/-tls-key/-tls-ca at operator-issued PEM
// files instead.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"

	"arm2gc"
	"arm2gc/internal/cli"
	"arm2gc/internal/devcert"
)

func main() {
	// The program registry lives on disk next to this file; in a real
	// deployment `arm2gc -role serve -registry ...` loads the same format.
	entries, err := cli.LoadRegistry("examples/registry/registry.json", arm2gc.Layout{
		IMemWords: 64, AliceWords: 1, BobWords: 1, OutWords: 2, ScratchWords: 16,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Throwaway TLS material: a CA, a server leaf, a client trust config.
	ca, err := devcert.NewCA("example CA")
	if err != nil {
		log.Fatal(err)
	}
	srvTLS, err := devcert.ServerConfig(ca, false)
	if err != nil {
		log.Fatal(err)
	}
	clTLS, err := devcert.ClientConfig(ca, "")
	if err != nil {
		log.Fatal(err)
	}

	eng := arm2gc.NewEngine()
	srv := arm2gc.NewServer(eng, arm2gc.WithTLSConfig(srvTLS), arm2gc.WithMaxSessions(4),
		arm2gc.WithGarbleAhead(arm2gc.PoolConfig{}))
	// The pool garbles ahead for every registered program. The registry's
	// relax program (4.3M tables, about 138 MB a stream) is its
	// memory-backend workload, which this demo never runs, so it is not
	// hosted here.
	entries = slices.DeleteFunc(entries, func(e cli.RegistryEntry) bool { return e.Name == "relax" })
	for _, e := range entries {
		if err := srv.Register(e.Name, e.Program, e.Options...); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %q from the registry\n", e.Name)
	}

	// Warm the garble-ahead pool before taking traffic: two ready streams
	// per program, so the very first client session skips the garbling
	// pass entirely.
	if err := srv.WarmGarbleAhead(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("garble-ahead pool warmed: %d streams ready\n", srv.Metrics().GarbleAhead.Ready)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	// One TLS connection, both programs over it.
	cl, err := arm2gc.DialTLS(context.Background(), ln.Addr().String(), clTLS,
		arm2gc.WithClientEngine(eng))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	for _, e := range entries {
		if err := cl.Register(e.Name, e.Program); err != nil {
			log.Fatal(err)
		}
	}

	// An unauthorized proposal: rejected by token policy, the connection
	// survives.
	_, err = cl.Evaluate(context.Background(), "addmax", []uint32{42},
		arm2gc.WithAuthToken("wrong-token"))
	var rej *arm2gc.RejectedError
	if !errors.As(err, &rej) {
		log.Fatalf("expected a rejection, got %v", err)
	}
	fmt.Printf("unauthorized proposal rejected: %s (connection kept)\n", rej.Reason)

	// Authorized sessions: both programs, same connection.
	info, err := cl.Evaluate(context.Background(), "addmax", []uint32{42},
		arm2gc.WithAuthToken("demo-token"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("addmax(1000, 42) over TLS: sum=%d max=%d (%d cycles, %d garbled tables)\n",
		info.Outputs[0], info.Outputs[1], info.Cycles, info.GarbledTables)
	info, err = cl.Evaluate(context.Background(), "xorshare", []uint32{0x0f},
		arm2gc.WithAuthToken("demo-token"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("xorshare(240, 15) over TLS: %#x\n", info.Outputs[0])

	_ = cl.Close()
	cancel()
	if err := <-served; err != nil {
		log.Fatal(err)
	}

	// The metrics a production scrape would read — here through the same
	// handler `arm2gc -role serve -metrics :9090` mounts at /metrics.
	m := srv.Metrics()
	fmt.Printf("metrics: served=%d rejected=%d bytes_out=%d table_frames=%d builds=%d\n",
		m.SessionsServed, m.SessionsRejected, m.BytesWritten, m.TableFrames, m.EngineBuilds)
	fmt.Printf("garble-ahead: hits=%d misses=%d refills=%d\n",
		m.GarbleAhead.Hits, m.GarbleAhead.Misses, m.GarbleAhead.Refills)
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fmt.Printf("scrape sample:\n%s", firstLines(rec.Body.String(), 3))
}

// firstLines trims a scrape body for display.
func firstLines(s string, n int) string {
	out, count := "", 0
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			count++
			if count == n {
				break
			}
		}
	}
	return out
}
