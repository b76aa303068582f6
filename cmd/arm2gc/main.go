// arm2gc runs a secure two-party computation: one invocation per party,
// connected over TCP, or both parties in one process with -role local.
//
// One-shot, one connection per run (both sides pass identical program and
// layout flags — the binary is the public input p both parties know):
//
//	# terminal 1 (Alice, the garbler):
//	arm2gc -role garbler -listen :9000 -c prog.c -input 5,7 \
//	       -alice-words 2 -bob-words 2 -out-words 1
//	# terminal 2 (Bob, the evaluator):
//	arm2gc -role evaluator -connect localhost:9000 -c prog.c -input 3,4 \
//	       -alice-words 2 -bob-words 2 -out-words 1
//
// As a service, with negotiated sessions and connection reuse: the serve
// role registers the program under a name and garbles for any number of
// concurrent evaluator connections; the client role dials once and runs
// -sessions sequential sessions over the one connection:
//
//	# terminal 1 (the garbling server):
//	arm2gc -role serve -listen :9000 -c prog.c -program add -input 5,7 \
//	       -alice-words 2 -bob-words 2 -out-words 1
//	# terminal 2 (an evaluator client):
//	arm2gc -role client -connect localhost:9000 -c prog.c -program add \
//	       -input 3,4 -sessions 3 -alice-words 2 -bob-words 2 -out-words 1
//
// The serve role hardens for deployment: -registry hosts a whole program
// catalog from a JSON manifest, -tls-cert/-tls-key (plus -tls-ca for
// mutual TLS) encrypt the wire, -auth-token demands a bearer token, and
// -metrics exposes a Prometheus endpoint. The client side mirrors them
// with -tls/-tls-ca/-tls-cert/-tls-key and -auth-token. See `make
// serve-tls` for a working TLS + registry invocation with dev certs.
//
// The gateway role fronts a fleet of serve backends behind one listener:
// clients dial the gateway exactly as they would a single server, and
// each session is relayed to a backend chosen by consistent-hashing the
// program name (so a program's sessions keep hitting the same warm
// garble-ahead pool), spilling to the next ring node when the affinity
// backend is saturated or unhealthy. Backends are health-checked,
// ejected and re-admitted automatically; -gw-rate/-gw-burst shed
// per-peer overload with a Retry-After hint; -admin-token arms a live
// ops endpoint beside -metrics for registering/retiring programs and
// resizing the fleet without a restart:
//
//	arm2gc -role gateway -listen :9000 -backends localhost:9001,localhost:9002 \
//	       -metrics :9090 -admin-token sesame
//
// -garble-ahead turns on the offline/online split for the serve role:
// background workers keep two pre-garbled table streams ready for every
// registered program, within 256 MiB, so a session's online phase is OT
// plus frame I/O. The depth and the budget are fixed.
//
// Ctrl-C cancels a run cleanly, even while blocked on a hung peer; for
// the serve role it is a graceful shutdown (idle connections close,
// in-flight sessions drain).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"arm2gc"
	"arm2gc/internal/circuit"
	"arm2gc/internal/cli"
	"arm2gc/internal/gateway"
)

// The flags are package-level so the knob-inventory test sees every one
// of them on flag.CommandLine.
var (
	role        = flag.String("role", "local", "garbler | evaluator | serve | client | gateway (front a fleet of serve backends) | local (both in-process)")
	listen      = flag.String("listen", "", "garbler/serve: address to listen on")
	connect     = flag.String("connect", "", "evaluator/client: garbler address to dial")
	cFile       = flag.String("c", "", "MiniC source file (gc_main entry)")
	asmFile     = flag.String("asm", "", "assembly source file (gc_main entry)")
	input       = flag.String("input", "", "this party's input words, comma separated")
	otherInput  = flag.String("other-input", "", "local role only: the other party's input")
	progName    = flag.String("program", "", "serve/client: name the program is registered and proposed under (default: the source file name)")
	sessions    = flag.Int("sessions", 1, "client: sequential sessions to run over the one connection")
	maxSessions = flag.Int("max-sessions", 0, "serve: concurrent-session limit (0 = unlimited)")
	registry    = flag.String("registry", "", "serve: JSON program-registry manifest — host every listed program from one Engine (see internal/cli.RegistryManifest)")
	metricsAddr = flag.String("metrics", "", "serve: HTTP address exposing the Prometheus /metrics endpoint (e.g. :9090)")
	authToken   = flag.String("auth-token", "", "serve: bearer token clients must present for the -c/-asm program; client: token sent with each proposal")
	garbleAhead = flag.Bool("garble-ahead", false, "serve: keep two pre-garbled streams ready per program (256 MiB at most); the online phase of a pooled session is OT + frame I/O")
	layout      = cli.LayoutFlags("; both parties must pass the same value — it is part of the public layout the session id covers")
	sessOpts    = cli.SessionFlags()
	tlsOpts     = cli.TLSFlags()
	gwOpts      = cli.GatewayFlags()
	disasm      = flag.Bool("S", false, "print the linked program and exit")
	dumpNetlist = flag.String("dump-netlist", "", "write the processor netlist (text format) to a file and exit")
)

func main() {
	flag.Parse()
	if flag.NArg() > 0 { // an old "-garble-ahead N" leaves N, and every flag after it, here
		log.Fatalf("unexpected argument %q: arm2gc takes flags only (-garble-ahead takes no value)", flag.Arg(0))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	eng := arm2gc.NewEngine()

	// A registry-driven server needs no -c/-asm program of its own, and a
	// gateway relays programs it never compiles; every other mode does.
	var prog *arm2gc.Program
	if *role != "gateway" && (*role != "serve" || *registry == "" || *cFile != "" || *asmFile != "") {
		var warnings []string
		prog, warnings = load(*cFile, *asmFile, layout())
		for _, w := range warnings {
			log.Printf("compiler warning: %s", w)
		}
	}
	if *disasm {
		if prog == nil {
			log.Fatal("-S needs -c or -asm")
		}
		fmt.Print(arm2gc.Disassemble(prog))
		return
	}
	if *dumpNetlist != "" {
		if prog == nil {
			log.Fatal("-dump-netlist needs -c or -asm")
		}
		opts, err := sessOpts.Options(false)
		if err != nil {
			log.Fatal(err)
		}
		st, err := dump(eng, prog, opts, *dumpNetlist)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("netlist written to %s: %d gates (%d non-XOR), %d flip-flops\n",
			*dumpNetlist, st.Gates, st.NonXOR, st.DFFs)
		return
	}

	name := *progName
	if name == "" && prog != nil {
		name = prog.Name
	}
	words := parseWords(*input)

	switch *role {
	case "gateway":
		if *listen == "" {
			log.Fatal("-role gateway needs -listen")
		}
		tlsCfg, err := tlsOpts.ServerConfig()
		if err != nil {
			log.Fatal(err)
		}
		cfg, err := gwOpts.Config(tlsCfg, log.Printf)
		if err != nil {
			log.Fatal(err)
		}
		g, err := gateway.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		stopOps := serveOps(ctx, *metricsAddr, func(mux *http.ServeMux) {
			mux.Handle("/metrics", g.MetricsHandler())
			mux.Handle("/admin/", http.StripPrefix("/admin", g.AdminHandler(gwOpts.AdminToken())))
		})
		mode := "plaintext"
		if tlsCfg != nil {
			mode = "TLS"
		}
		log.Printf("gateway fronting %d backends on %s (%s)", len(cfg.Backends), ln.Addr(), mode)
		if err := g.Serve(ctx, ln); err != nil {
			log.Fatal(err)
		}
		stopOps()
		m := g.Metrics()
		log.Printf("gateway shut down: %d proposals (%d shed, %d no-backend), %d ejections, %d re-admissions",
			m.Proposals, m.ShedRateLimit, m.ShedNoBackend, m.Ejections, m.Readmissions)
		return

	case "serve":
		if *listen == "" {
			log.Fatal("-role serve needs -listen")
		}
		tlsCfg, err := tlsOpts.ServerConfig()
		if err != nil {
			log.Fatal(err)
		}
		srvOpts := []arm2gc.ServerOption{
			arm2gc.WithMaxSessions(*maxSessions),
			arm2gc.WithServerLog(log.Printf),
		}
		if tlsCfg != nil {
			srvOpts = append(srvOpts, arm2gc.WithTLSConfig(tlsCfg))
		}
		if *garbleAhead {
			srvOpts = append(srvOpts, arm2gc.WithGarbleAhead(arm2gc.PoolConfig{}))
		}
		srv := arm2gc.NewServer(eng, srvOpts...)
		if prog != nil {
			opts, err := sessOpts.Options(false)
			if err != nil {
				log.Fatal(err)
			}
			opts = append(opts, arm2gc.WithGarblerInput(words))
			if *authToken != "" {
				opts = append(opts, arm2gc.WithAuthToken(*authToken))
			}
			if err := srv.Register(name, prog, opts...); err != nil {
				log.Fatal(err)
			}
			log.Printf("registered program %q", name)
		}
		if *registry != "" {
			entries, err := cli.LoadRegistry(*registry, layout())
			if err != nil {
				log.Fatal(err)
			}
			for _, e := range entries {
				for _, w := range e.Warnings {
					log.Printf("compiler warning (%s): %s", e.Name, w)
				}
				if err := srv.Register(e.Name, e.Program, e.Options...); err != nil {
					log.Fatal(err)
				}
				log.Printf("registered program %q from %s", e.Name, *registry)
			}
		}
		if *garbleAhead {
			if err := srv.WarmGarbleAhead(ctx); err != nil {
				log.Fatal(err)
			}
			log.Printf("garble-ahead pool warmed (%d streams ready)", srv.Metrics().GarbleAhead.Ready)
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		stopMetrics := serveMetrics(ctx, srv, *metricsAddr)
		mode := "plaintext"
		if tlsCfg != nil {
			mode = "TLS"
		}
		log.Printf("serving on %s (%s)", ln.Addr(), mode)
		if err := srv.Serve(ctx, ln); err != nil {
			log.Fatal(err)
		}
		stopMetrics()
		m := srv.Metrics()
		log.Printf("shut down: %d sessions served, %d rejected, %d failed (%d B in, %d B out)",
			m.SessionsServed, m.SessionsRejected, m.SessionsFailed, m.BytesRead, m.BytesWritten)
		return

	case "client":
		if *connect == "" {
			log.Fatal("-role client needs -connect")
		}
		opts, err := sessOpts.Options(true)
		if err != nil {
			log.Fatal(err)
		}
		if *authToken != "" {
			opts = append(opts, arm2gc.WithAuthToken(*authToken))
		}
		tlsCfg, err := tlsOpts.ClientConfig()
		if err != nil {
			log.Fatal(err)
		}
		clOpts := []arm2gc.ClientOption{arm2gc.WithClientEngine(eng)}
		if tlsCfg != nil {
			clOpts = append(clOpts, arm2gc.WithDialTLS(tlsCfg))
		}
		cl, err := arm2gc.Dial(ctx, *connect, clOpts...)
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Register(name, prog); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < *sessions; i++ {
			info, err := cl.Evaluate(ctx, name, words, opts...)
			if err != nil {
				var rej *arm2gc.RejectedError
				if errors.As(err, &rej) {
					log.Fatalf("server rejected the session: %s", rej.Reason)
				}
				log.Fatal(err)
			}
			fmt.Printf("session %d/%d: ", i+1, *sessions)
			report(info)
		}
		return
	}

	opts, err := sessOpts.Options(false)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := eng.Session(prog, opts...)
	if err != nil {
		log.Fatal(err)
	}

	var info *arm2gc.RunInfo
	switch *role {
	case "local":
		info, err = sess.Run(ctx, words, parseWords(*otherInput))
	case "garbler":
		if *listen == "" {
			log.Fatal("-role garbler needs -listen")
		}
		ln, lerr := net.Listen("tcp", *listen)
		if lerr != nil {
			log.Fatal(lerr)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "garbler listening on %s...\n", ln.Addr())
		conn, aerr := acceptCtx(ctx, ln)
		if aerr != nil {
			log.Fatal(aerr)
		}
		defer conn.Close()
		info, err = sess.Garble(ctx, conn, words)
	case "evaluator":
		if *connect == "" {
			log.Fatal("-role evaluator needs -connect")
		}
		var d net.Dialer
		conn, derr := d.DialContext(ctx, "tcp", *connect)
		if derr != nil {
			log.Fatal(derr)
		}
		defer conn.Close()
		info, err = sess.Evaluate(ctx, conn, words)
	default:
		log.Fatalf("unknown role %q", *role)
	}
	if err != nil {
		log.Fatal(err)
	}
	report(info)
}

// serveMetrics exposes srv's Prometheus endpoint on addr ("" disables);
// the returned function waits for the HTTP server to stop.
func serveMetrics(ctx context.Context, srv *arm2gc.Server, addr string) (stop func()) {
	return serveOps(ctx, addr, func(mux *http.ServeMux) {
		mux.Handle("/metrics", srv.MetricsHandler())
	})
}

// serveOps runs the operator HTTP endpoint on addr ("" disables),
// letting the caller mount its handlers; the returned function waits
// for the HTTP server to stop.
func serveOps(ctx context.Context, addr string, mount func(mux *http.ServeMux)) (stop func()) {
	if addr == "" {
		return func() {}
	}
	mux := http.NewServeMux()
	mount(mux)
	hs := &http.Server{Addr: addr, Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("metrics endpoint: %v", err)
		}
	}()
	context.AfterFunc(ctx, func() {
		_ = hs.Close() // shutdown teardown; the server's exit error is reported elsewhere
	})
	log.Printf("metrics on http://%s/metrics", addr)
	return func() { <-done }
}

// report prints a run's outcome in the tool's standard shape.
func report(info *arm2gc.RunInfo) {
	if info.Outputs != nil {
		fmt.Printf("output:")
		for _, w := range info.Outputs {
			fmt.Printf(" %d", w)
		}
		fmt.Println()
	} else {
		fmt.Println("output withheld from this party (-output-mode)")
	}
	fmt.Printf("cycles: %d  garbled tables: %d  (conventional GC: %d)\n",
		info.Cycles, info.GarbledTables, info.Conventional)
	if info.TableFrames > 0 {
		fmt.Printf("table frames: %d\n", info.TableFrames)
	}
}

// dump writes the netlist of the processor a session built from opts
// runs on — the layout picks its memory backend — and returns its
// composition.
func dump(eng *arm2gc.Engine, prog *arm2gc.Program, opts []arm2gc.Option, path string) (circuit.Stats, error) {
	sess, err := eng.Session(prog, opts...)
	if err != nil {
		return circuit.Stats{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return circuit.Stats{}, err
	}
	m := sess.Machine()
	if err := m.WriteNetlist(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return circuit.Stats{}, err
	}
	if err := f.Close(); err != nil {
		return circuit.Stats{}, err
	}
	return m.Stats(), nil
}

// acceptCtx is Accept with cancellation: Ctrl-C while waiting for the
// evaluator to dial closes the listener instead of hanging.
func acceptCtx(ctx context.Context, ln net.Listener) (net.Conn, error) {
	stop := context.AfterFunc(ctx, func() {
		_ = ln.Close() // unblocks Accept; the accept loop reports the real error
	})
	defer stop()
	conn, err := ln.Accept()
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return conn, err
}

func load(cFile, asmFile string, l arm2gc.Layout) (*arm2gc.Program, []string) {
	switch {
	case cFile != "":
		src, err := os.ReadFile(cFile)
		if err != nil {
			log.Fatal(err)
		}
		p, warnings, err := arm2gc.CompileC(cFile, string(src), l)
		if err != nil {
			log.Fatal(err)
		}
		return p, warnings
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			log.Fatal(err)
		}
		p, err := arm2gc.Assemble(asmFile, string(src), l)
		if err != nil {
			log.Fatal(err)
		}
		return p, nil
	}
	log.Fatal("pass -c prog.c or -asm prog.s")
	return nil, nil
}

func parseWords(s string) []uint32 {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []uint32
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 0, 64)
		if err != nil {
			log.Fatalf("bad input word %q: %v", f, err)
		}
		out = append(out, uint32(v))
	}
	return out
}
