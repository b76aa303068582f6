// Package cli shares flag plumbing between the cmd/ tools: the
// processor-layout flag set (which must stay identical across tools — a
// layout mismatch between parties aborts the protocol handshake) and the
// standard garbled-cost report.
package cli

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"os"
	"time"

	"arm2gc"
	"arm2gc/internal/certwatch"
)

// LayoutFlags registers the five processor-layout flags on the process
// flag set; call the returned function after flag.Parse to assemble the
// Layout. imemNote is appended to the -imem-words usage text (the
// two-party tool documents the both-parties-must-agree rule there).
func LayoutFlags(imemNote string) func() arm2gc.Layout {
	imem := flag.Int("imem-words", 64, "instruction memory size (words, power of two)"+imemNote)
	alice := flag.Int("alice-words", 4, "size of Alice's input region (words)")
	bob := flag.Int("bob-words", 4, "size of Bob's input region (words)")
	out := flag.Int("out-words", 4, "size of the output region (words)")
	scratch := flag.Int("scratch", 64, "scratch+stack region (words)")
	return func() arm2gc.Layout {
		return arm2gc.Layout{
			IMemWords: *imem, AliceWords: *alice, BobWords: *bob,
			OutWords: *out, ScratchWords: *scratch,
		}
	}
}

// SessionOpts is the shared session-option flag set (see SessionFlags).
type SessionOpts struct {
	maxCycles  *int
	cycleBatch *int
	outputMode *string
}

// SessionFlags registers the session-option flags the two-party tools
// share: -max-cycles, -cycle-batch and -output-mode. Call
// Options after flag.Parse to assemble the option list.
func SessionFlags() *SessionOpts {
	return &SessionOpts{
		maxCycles:  flag.Int("max-cycles", 1_000_000, "cycle budget"),
		cycleBatch: flag.Int("cycle-batch", 1, "cycles of garbled tables per network frame (both parties must agree)"),
		outputMode: flag.String("output-mode", "both", "who learns the outputs: both | garbler | evaluator (both parties must agree)"),
	}
}

// Options assembles the session options. With onlySet, options whose
// flags were left at their defaults are omitted — the client role uses
// this so unset knobs negotiate to the server's registered defaults
// instead of proposing this binary's flag defaults.
func (o *SessionOpts) Options(onlySet bool) ([]arm2gc.Option, error) {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	include := func(name string) bool { return !onlySet || set[name] }
	var opts []arm2gc.Option
	if include("max-cycles") {
		opts = append(opts, arm2gc.WithMaxCycles(*o.maxCycles))
	}
	if include("cycle-batch") {
		opts = append(opts, arm2gc.WithCycleBatch(*o.cycleBatch))
	}
	if include("output-mode") {
		mode, err := ParseOutputMode(*o.outputMode)
		if err != nil {
			return nil, err
		}
		opts = append(opts, arm2gc.WithOutputMode(mode))
	}
	return opts, nil
}

// TLSOpts is the shared TLS flag set (see TLSFlags).
type TLSOpts struct {
	enable     *bool
	cert       *string
	key        *string
	ca         *string
	serverName *string
	insecure   *bool
	rotate     *time.Duration
}

// TLSFlags registers the TLS flags the two-party tools share: -tls,
// -tls-cert, -tls-key, -tls-ca, -tls-server-name and -tls-insecure. The
// serving side enables TLS by passing -tls-cert/-tls-key (with -tls-ca
// switching on mutual TLS); the dialing side enables it with -tls (or
// implicitly by any other TLS flag) and trusts -tls-ca when given,
// the system roots otherwise.
func TLSFlags() *TLSOpts {
	return &TLSOpts{
		enable:     flag.Bool("tls", false, "client: dial with TLS (implied by the other -tls-* flags)"),
		cert:       flag.String("tls-cert", "", "PEM certificate: the server's identity, or the client's under mutual TLS"),
		key:        flag.String("tls-key", "", "PEM private key for -tls-cert"),
		ca:         flag.String("tls-ca", "", "PEM CA bundle: server: require+verify client certs (mutual TLS); client: trust this CA instead of the system roots"),
		serverName: flag.String("tls-server-name", "", "client: expected server certificate name (default: the dialed host)"),
		insecure:   flag.Bool("tls-insecure", false, "client: skip server certificate verification (dev only)"),
		rotate:     flag.Duration("tls-rotate", 0, "server: re-read -tls-cert/-tls-key when they change on disk, checking at most this often (0 = load once; rotation without restart)"),
	}
}

// caPool loads the -tls-ca bundle.
func (o *TLSOpts) caPool() (*x509.CertPool, error) {
	return loadCAPool(*o.ca)
}

// ServerConfig assembles the serving TLS config, nil when the TLS flags
// are unset (plaintext). -tls-cert/-tls-key are both required to enable;
// -tls-ca additionally demands and verifies client certificates. Any
// other TLS flag without the cert pair is an error, never a silent
// plaintext server.
func (o *TLSOpts) ServerConfig() (*tls.Config, error) {
	if *o.cert == "" && *o.key == "" {
		if *o.enable || *o.ca != "" || *o.insecure || *o.serverName != "" || *o.rotate > 0 {
			return nil, fmt.Errorf("server TLS needs -tls-cert and -tls-key; the other -tls flags alone do not enable it")
		}
		return nil, nil
	}
	if *o.cert == "" || *o.key == "" {
		return nil, fmt.Errorf("-tls-cert and -tls-key must be passed together")
	}
	cfg := &tls.Config{MinVersion: tls.VersionTLS12}
	if *o.rotate > 0 {
		reloader, err := certwatch.New(*o.cert, *o.key,
			certwatch.WithPoll(*o.rotate),
			certwatch.WithLogf(func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}))
		if err != nil {
			return nil, err
		}
		cfg.GetCertificate = reloader.GetCertificate
	} else {
		cert, err := tls.LoadX509KeyPair(*o.cert, *o.key)
		if err != nil {
			return nil, err
		}
		cfg.Certificates = []tls.Certificate{cert}
	}
	if *o.ca != "" {
		pool, err := o.caPool()
		if err != nil {
			return nil, err
		}
		cfg.ClientAuth = tls.RequireAndVerifyClientCert
		cfg.ClientCAs = pool
	}
	return cfg, nil
}

// ClientConfig assembles the dialing TLS config, nil when no TLS flag was
// touched (plaintext). -tls-cert/-tls-key add a client certificate for
// mutual TLS.
func (o *TLSOpts) ClientConfig() (*tls.Config, error) {
	if !*o.enable && *o.cert == "" && *o.key == "" && *o.ca == "" &&
		*o.serverName == "" && !*o.insecure {
		return nil, nil
	}
	cfg := &tls.Config{
		ServerName:         *o.serverName,
		InsecureSkipVerify: *o.insecure,
		MinVersion:         tls.VersionTLS12,
	}
	if *o.ca != "" {
		pool, err := o.caPool()
		if err != nil {
			return nil, err
		}
		cfg.RootCAs = pool
	}
	if *o.cert != "" || *o.key != "" {
		if *o.cert == "" || *o.key == "" {
			return nil, fmt.Errorf("-tls-cert and -tls-key must be passed together")
		}
		cert, err := tls.LoadX509KeyPair(*o.cert, *o.key)
		if err != nil {
			return nil, err
		}
		cfg.Certificates = []tls.Certificate{cert}
	}
	return cfg, nil
}

// ParseOutputMode maps the -output-mode flag values onto OutputMode.
func ParseOutputMode(s string) (arm2gc.OutputMode, error) {
	switch s {
	case "both":
		return arm2gc.OutputBoth, nil
	case "garbler":
		return arm2gc.OutputGarblerOnly, nil
	case "evaluator":
		return arm2gc.OutputEvaluatorOnly, nil
	}
	return 0, fmt.Errorf("unknown -output-mode %q (want both, garbler or evaluator)", s)
}

// PrintCost prices a program in garbled tables (schedule only, no
// cryptography) through the shared Engine and prints the standard report.
func PrintCost(ctx context.Context, prog *arm2gc.Program, maxCycles int) error {
	sess, err := arm2gc.DefaultEngine.Session(prog, arm2gc.WithMaxCycles(maxCycles))
	if err != nil {
		return err
	}
	info, err := sess.Count(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d cycles, %d garbled tables (conventional GC: %d)\n",
		prog.Name, info.Cycles, info.GarbledTables, info.Conventional)
	return nil
}
