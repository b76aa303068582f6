package cli

import (
	"testing"
	"time"
)

// testGatewayOpts builds a GatewayOpts without touching the process flag
// set (which can only be registered once per test binary), mirroring the
// TLSOpts test idiom.
func testGatewayOpts(mutate func(o *GatewayOpts)) *GatewayOpts {
	var (
		backends, programs, token, ca, name string
		maxInflight                         int
		btls, insecure                      bool
		rate, burst                         float64
		retryAfter, probeI, probeT, dialT   time.Duration
	)
	o := &GatewayOpts{
		backends: &backends, maxInflight: &maxInflight,
		rate: &rate, burst: &burst,
		retryAfter: &retryAfter, programs: &programs,
		probeInterval: &probeI, probeTimeout: &probeT, dialTimeout: &dialT,
		adminToken: &token,
		backendTLS: &btls, backendCA: &ca, backendName: &name,
		backendInsecure: &insecure,
	}
	if mutate != nil {
		mutate(o)
	}
	return o
}

func TestGatewayOptsConfig(t *testing.T) {
	// No backends is a hard error, not a silent zero-backend gateway.
	if _, err := testGatewayOpts(nil).Config(nil, nil); err == nil {
		t.Fatal("Config accepted an empty -backends")
	}

	o := testGatewayOpts(func(o *GatewayOpts) {
		*o.backends = " a:9001, b:9002,,"
		*o.programs = "add,hamming"
		*o.maxInflight = 3
		*o.rate = 2.5
		*o.adminToken = "sesame"
	})
	cfg, err := o.Config(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Backends) != 2 || cfg.Backends[0] != "a:9001" || cfg.Backends[1] != "b:9002" {
		t.Fatalf("backends parsed as %v", cfg.Backends)
	}
	if len(cfg.Programs) != 2 || cfg.MaxInflight != 3 || cfg.RatePerPeer != 2.5 {
		t.Fatalf("knobs lost in translation: %+v", cfg)
	}
	if cfg.BackendTLS != nil || cfg.TLS != nil {
		t.Fatal("TLS configs materialized from untouched flags")
	}
	if o.AdminToken() != "sesame" {
		t.Fatalf("AdminToken = %q", o.AdminToken())
	}

	// Any -backend-tls-* flag arms the backend hop.
	tcfg, err := testGatewayOpts(func(o *GatewayOpts) {
		*o.backends = "a:9001"
		*o.backendName = "garbler-1"
	}).Config(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tcfg.BackendTLS == nil || tcfg.BackendTLS.ServerName != "garbler-1" {
		t.Fatalf("backend TLS = %+v, want ServerName garbler-1", tcfg.BackendTLS)
	}

	// A bogus CA path fails loudly.
	if _, err := testGatewayOpts(func(o *GatewayOpts) {
		*o.backends = "a:9001"
		*o.backendCA = "/no/such/bundle.pem"
	}).Config(nil, nil); err == nil {
		t.Fatal("Config accepted an unreadable -backend-tls-ca")
	}
}
