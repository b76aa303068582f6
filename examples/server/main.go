// Running ARM2GC as a service: a garbling Server registers a program
// (with its own private input bound at registration), listens on TCP, and
// serves negotiated sessions to evaluator clients; a Client dials once
// and reuses the single connection for several sequential sessions, each
// opened by a propose/grant handshake instead of out-of-band agreement.
//
// The demo runs both parties in one process sharing one Engine, so the
// ~29k-wire processor netlist is synthesized exactly once — the server
// pays it at Register time and every session of every connection reuses
// it. A real deployment splits the two halves across machines: the server
// keeps running (`arm2gc -role serve`), clients come and go
// (`arm2gc -role client`).
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"arm2gc"
)

const src = `
void gc_main(const int *a, const int *b, int *c) {
	c[0] = a[0] + b[0];
	c[1] = a[0] > b[0] ? a[0] : b[0];
}
`

func main() {
	prog, _, err := arm2gc.CompileC("addmax", src, arm2gc.Layout{
		IMemWords: 64, AliceWords: 1, BobWords: 1, OutWords: 2, ScratchWords: 16,
	})
	if err != nil {
		log.Fatal(err)
	}

	eng := arm2gc.NewEngine()
	srv := arm2gc.NewServer(eng, arm2gc.WithMaxSessions(4), arm2gc.WithServerLog(log.Printf))
	// The registration fixes the server's policy: its private input, the
	// budget ceiling clients may request up to, and the default batching.
	if err := srv.Register("addmax", prog,
		arm2gc.WithGarblerInput([]uint32{1000}),
		arm2gc.WithMaxCycles(10_000),
		arm2gc.WithCycleBatch(8)); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	// One dialed connection, several sessions over it.
	cl, err := arm2gc.Dial(context.Background(), ln.Addr().String(), arm2gc.WithClientEngine(eng))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("addmax", prog); err != nil {
		log.Fatal(err)
	}
	for _, bob := range []uint32{42, 999, 1001} {
		info, err := cl.Evaluate(context.Background(), "addmax", []uint32{bob})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("bob=%4d: sum=%4d max=%4d  (%d cycles, %d garbled tables)\n",
			bob, info.Outputs[0], info.Outputs[1], info.Cycles, info.GarbledTables)
	}

	cancel() // graceful shutdown: the idle connection closes, Serve returns
	if err := <-served; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sessions served: %d over 1 connection; netlist builds: %d\n",
		srv.SessionsServed(), eng.Builds())
}
