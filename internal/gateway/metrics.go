package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
)

// gatewayMetrics is the Gateway's live counter set; everything atomic,
// mirroring the server's metric discipline — nothing on the relay hot
// path takes a lock for accounting.
type gatewayMetrics struct {
	connsAccepted atomic.Int64
	connsActive   atomic.Int64
	proposals     atomic.Int64
	shedRate      atomic.Int64
	shedNoBackend atomic.Int64
	rejectedLocal atomic.Int64
	clientFaults  atomic.Int64
	ringMoves     atomic.Int64
	ejections     atomic.Int64
	readmissions  atomic.Int64
	probes        atomic.Int64
	probeFailures atomic.Int64
}

// BackendStatus is one backend's slice of a metrics snapshot.
type BackendStatus struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Inflight int64  `json:"inflight"`
	Routed   int64  `json:"routed"`
	Failed   int64  `json:"failed"`
}

// Metrics is a point-in-time snapshot of a Gateway's counters.
type Metrics struct {
	// ConnectionsAccepted / ConnectionsActive count client connections.
	ConnectionsAccepted int64 `json:"connections_accepted"`
	ConnectionsActive   int64 `json:"connections_active"`
	// Proposals counts every client proposal seen, whatever its fate.
	Proposals int64 `json:"proposals"`
	// ShedRateLimit / ShedNoBackend count proposals rejected with a
	// Retry-After hint: per-peer rate sheds and no-backend-available
	// sheds respectively.
	ShedRateLimit int64 `json:"shed_rate_limit"`
	ShedNoBackend int64 `json:"shed_no_backend"`
	// RejectedLocal counts proposals the gateway rejected on its own
	// policy (malformed, unlisted or retired program).
	RejectedLocal int64 `json:"rejected_local"`
	// ClientFaults counts sessions a client broke once a backend had its
	// proposal: a hang-up, a failed read or write, or a frame its
	// direction may not send. Each ends that client's connection and
	// costs the backend nothing: no ejection, no failed session.
	ClientFaults int64 `json:"client_faults"`
	// RingMoves counts virtual-node ownership changes from backend
	// adds/removes — the keyspace churn the consistent hash bounds.
	RingMoves int64 `json:"ring_moves"`
	// Ejections / Readmissions count backend health transitions;
	// Probes / ProbeFailures count health checks.
	Ejections     int64 `json:"ejections"`
	Readmissions  int64 `json:"readmissions"`
	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`
	// Backends holds the per-backend counters, sorted by address.
	Backends []BackendStatus `json:"backends"`
}

// Metrics snapshots the Gateway's counters; safe at any time.
func (g *Gateway) Metrics() Metrics {
	return Metrics{
		ConnectionsAccepted: g.met.connsAccepted.Load(),
		ConnectionsActive:   g.met.connsActive.Load(),
		Proposals:           g.met.proposals.Load(),
		ShedRateLimit:       g.met.shedRate.Load(),
		ShedNoBackend:       g.met.shedNoBackend.Load(),
		RejectedLocal:       g.met.rejectedLocal.Load(),
		ClientFaults:        g.met.clientFaults.Load(),
		RingMoves:           g.met.ringMoves.Load(),
		Ejections:           g.met.ejections.Load(),
		Readmissions:        g.met.readmissions.Load(),
		Probes:              g.met.probes.Load(),
		ProbeFailures:       g.met.probeFailures.Load(),
		Backends:            g.Backends(),
	}
}

// MetricsHandler exposes the Gateway's counters in the Prometheus text
// format (JSON with ?format=json), mirroring the Server's handler.
func (g *Gateway) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := g.Metrics()
		if r.URL.Query().Get("format") == "json" {
			// Marshal before writing: an encode failure becomes a clean
			// 500 instead of a truncated 200 the scraper would trust.
			b, err := json.MarshalIndent(m, "", "  ")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(append(b, '\n')) // scraper gone mid-reply: nothing to report to
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, m)
	})
}

func writeProm(w http.ResponseWriter, m Metrics) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("arm2gc_gateway_connections_accepted_total", "Client connections accepted.", m.ConnectionsAccepted)
	gauge("arm2gc_gateway_connections_active", "Client connections currently open.", m.ConnectionsActive)
	counter("arm2gc_gateway_proposals_total", "Client proposals seen.", m.Proposals)
	counter("arm2gc_gateway_shed_rate_limit_total", "Proposals shed by the per-peer rate limit.", m.ShedRateLimit)
	counter("arm2gc_gateway_shed_no_backend_total", "Proposals shed for lack of an available backend.", m.ShedNoBackend)
	counter("arm2gc_gateway_rejected_local_total", "Proposals rejected by gateway policy.", m.RejectedLocal)
	counter("arm2gc_gateway_client_faults_total", "Sessions broken by their client.", m.ClientFaults)
	counter("arm2gc_gateway_ring_moves_total", "Hash-ring virtual-node ownership changes.", m.RingMoves)
	counter("arm2gc_gateway_ejections_total", "Backends ejected after failures.", m.Ejections)
	counter("arm2gc_gateway_readmissions_total", "Ejected backends re-admitted by the prober.", m.Readmissions)
	counter("arm2gc_gateway_probes_total", "Health probes sent.", m.Probes)
	counter("arm2gc_gateway_probe_failures_total", "Health probes that failed.", m.ProbeFailures)

	// %q escapes the exact set the Prometheus text format requires.
	series := func(name, help, typ string, value func(BackendStatus) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, b := range m.Backends {
			fmt.Fprintf(w, "%s{backend=%q} %d\n", name, b.Addr, value(b))
		}
	}
	series("arm2gc_gateway_backend_healthy", "Backend health (1 healthy, 0 ejected).", "gauge",
		func(b BackendStatus) int64 {
			if b.Healthy {
				return 1
			}
			return 0
		})
	series("arm2gc_gateway_backend_inflight", "Sessions in flight, by backend.", "gauge",
		func(b BackendStatus) int64 { return b.Inflight })
	series("arm2gc_gateway_backend_sessions_routed_total", "Proposals routed, by backend.", "counter",
		func(b BackendStatus) int64 { return b.Routed })
	series("arm2gc_gateway_backend_sessions_failed_total", "Sessions failed, by backend.", "counter",
		func(b BackendStatus) int64 { return b.Failed })
}
