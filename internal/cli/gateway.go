package cli

import (
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"arm2gc/internal/gateway"
)

// GatewayOpts is the fleet-gateway flag set (see GatewayFlags).
type GatewayOpts struct {
	backends      *string
	maxInflight   *int
	rate          *float64
	burst         *float64
	retryAfter    *time.Duration
	programs      *string
	probeInterval *time.Duration
	probeTimeout  *time.Duration
	dialTimeout   *time.Duration
	adminToken    *string

	backendTLS      *bool
	backendCA       *string
	backendName     *string
	backendInsecure *bool
}

// GatewayFlags registers the -role gateway flags: the backend fleet,
// sharding and shedding knobs, health-probe cadence, the admin bearer
// token, and the gateway→backend TLS hop (-backend-tls*). The gateway's
// own listener reuses the shared -tls-cert/-tls-key flags.
func GatewayFlags() *GatewayOpts {
	return &GatewayOpts{
		backends:      flag.String("backends", "", "gateway: comma-separated backend garbler addresses (host:port,...)"),
		maxInflight:   flag.Int("gw-max-inflight", 0, "gateway: concurrent sessions per backend before spilling to the next ring node (0 = unbounded)"),
		rate:          flag.Float64("gw-rate", 0, "gateway: sessions/second each client IP may open before being shed (0 = no shedding)"),
		burst:         flag.Float64("gw-burst", 0, "gateway: per-peer burst allowance on top of -gw-rate"),
		retryAfter:    flag.Duration("gw-retry-after", 0, "gateway: Retry-After hint attached to shed rejections (0 = default)"),
		programs:      flag.String("gw-programs", "", "gateway: comma-separated program allowlist (empty = route everything)"),
		probeInterval: flag.Duration("gw-probe-interval", 0, "gateway: backend health-check period (0 = default)"),
		probeTimeout:  flag.Duration("gw-probe-timeout", 0, "gateway: single health-probe budget (0 = default)"),
		dialTimeout:   flag.Duration("gw-dial-timeout", 0, "gateway: single backend-dial budget (0 = default)"),
		adminToken:    flag.String("admin-token", "", "gateway: bearer token for the /admin endpoint on -metrics (empty = admin disabled)"),

		backendTLS:      flag.Bool("backend-tls", false, "gateway: dial backends with TLS (implied by the other -backend-tls-* flags)"),
		backendCA:       flag.String("backend-tls-ca", "", "gateway: PEM CA bundle to verify backend certificates (default: system roots)"),
		backendName:     flag.String("backend-tls-server-name", "", "gateway: expected backend certificate name (default: each backend's host)"),
		backendInsecure: flag.Bool("backend-tls-insecure", false, "gateway: skip backend certificate verification (dev only)"),
	}
}

// AdminToken reports the -admin-token value.
func (o *GatewayOpts) AdminToken() string { return *o.adminToken }

// Config assembles the gateway configuration. listenerTLS is the
// gateway's own serving config (from TLSOpts.ServerConfig; nil for
// plaintext); logf routes diagnostics.
func (o *GatewayOpts) Config(listenerTLS *tls.Config, logf func(format string, args ...any)) (gateway.Config, error) {
	backends := splitList(*o.backends)
	if len(backends) == 0 {
		return gateway.Config{}, fmt.Errorf("-role gateway needs -backends host:port[,host:port...]")
	}
	backendTLS, err := o.backendTLSConfig()
	if err != nil {
		return gateway.Config{}, err
	}
	return gateway.Config{
		Backends:      backends,
		MaxInflight:   *o.maxInflight,
		RatePerPeer:   *o.rate,
		BurstPerPeer:  *o.burst,
		RetryAfter:    *o.retryAfter,
		Programs:      splitList(*o.programs),
		ProbeInterval: *o.probeInterval,
		ProbeTimeout:  *o.probeTimeout,
		DialTimeout:   *o.dialTimeout,
		BackendTLS:    backendTLS,
		TLS:           listenerTLS,
		Logf:          logf,
	}, nil
}

// backendTLSConfig assembles the gateway→backend TLS config, nil when no
// -backend-tls flag was touched (plaintext hop).
func (o *GatewayOpts) backendTLSConfig() (*tls.Config, error) {
	if !*o.backendTLS && *o.backendCA == "" && *o.backendName == "" && !*o.backendInsecure {
		return nil, nil
	}
	cfg := &tls.Config{
		ServerName:         *o.backendName,
		InsecureSkipVerify: *o.backendInsecure,
		MinVersion:         tls.VersionTLS12,
	}
	if *o.backendCA != "" {
		pool, err := loadCAPool(*o.backendCA)
		if err != nil {
			return nil, err
		}
		cfg.RootCAs = pool
	}
	return cfg, nil
}

// loadCAPool reads a PEM CA bundle into a cert pool.
func loadCAPool(path string) (*x509.CertPool, error) {
	pem, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("no certificates found in %s", path)
	}
	return pool, nil
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
