package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Observer bundles the two observability surfaces a replica threads
// through its layers: the metrics registry and the lifecycle tracer. A
// nil *Observer disables everything — the accessors below return nil, and
// every instrument method is nil-safe.
type Observer struct {
	Reg    *Registry
	Tracer *Tracer
}

// NewObserver builds a registry plus a tracer recording every request.
func NewObserver() *Observer {
	return &Observer{Reg: NewRegistry(), Tracer: NewTracer(1)}
}

// Registry returns the metrics registry, nil on a nil observer.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Trace returns the tracer, nil on a nil observer.
func (o *Observer) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// PeerHealth is one peer's reachability as seen from this replica.
type PeerHealth struct {
	ID        uint32 `json:"id"`
	Reachable bool   `json:"reachable"`
}

// Health is the /healthz payload: Healthy only when every peer answers
// the connectivity probe, all three compartments are alive, and the
// durability store has not failed. It deliberately flips on the FIRST
// unreachable peer — before quorum is lost — because an operator wants to
// repair degraded redundancy, not be told once the system is already
// stalled.
type Health struct {
	Healthy      bool            `json:"healthy"`
	Peers        []PeerHealth    `json:"peers,omitempty"`
	Compartments map[string]bool `json:"compartments"`
	WAL          string          `json:"wal"` // "ok", "off", or the sticky failure
}

// Source is what the introspection server scrapes — implemented by the
// replica facade so this package needs no knowledge of nodes.
type Source interface {
	Gather() []Sample
	StageStats() []StageStat
	Spans(limit int) []Span
	TraceEpoch() time.Time
	Health() Health
}

// Server is the opt-in HTTP introspection endpoint of one replica:
// /metrics (Prometheus text format), /healthz (JSON, 200/503) and
// /debug/trace (recent sampled spans as JSON).
type Server struct {
	src Source
	ln  net.Listener
	srv *http.Server
}

// NewServer builds a server scraping src; Start binds and serves.
func NewServer(addr string, src Source) *Server {
	mux := http.NewServeMux()
	s := &Server{src: src, srv: &http.Server{Addr: addr, Handler: mux}}
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/debug/trace", s.trace)
	return s
}

// Start binds the listen address (":0" picks a free port — see Addr) and
// serves in the background until Close.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.srv.Addr)
	if err != nil {
		return fmt.Errorf("obs: metrics listener: %w", err)
	}
	s.ln = ln
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return nil
}

// Addr returns the bound listen address, empty before Start.
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server and releases the port.
func (s *Server) Close() {
	if s == nil || s.ln == nil {
		return
	}
	s.srv.Close() //nolint:errcheck
	s.ln = nil
}

// metrics renders every gathered sample in the Prometheus text exposition
// format, hand-rolled over stdlib: one "name value" line per series.
// Histogram-backed stage latencies are exported as summary-style quantile
// series rather than thousands of raw log buckets.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, sm := range s.src.Gather() {
		fmt.Fprintf(w, "%s %s\n", sm.Name, formatValue(sm.Value))
	}
	for _, st := range s.src.StageStats() {
		fmt.Fprintf(w, "%s %d\n", Label("splitbft_stage_spans_total", "stage", st.Stage), st.Count)
		fmt.Fprintf(w, "%s %d\n", Label("splitbft_stage_latency_ns", "stage", st.Stage, "quantile", "0.5"), int64(st.P50))
		fmt.Fprintf(w, "%s %d\n", Label("splitbft_stage_latency_ns", "stage", st.Stage, "quantile", "0.99"), int64(st.P99))
	}
}

// formatValue renders integral floats without an exponent or trailing
// zeros — counters should read as counts.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// healthz answers 200 with the Health JSON when healthy, 503 otherwise.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	h := s.src.Health()
	w.Header().Set("Content-Type", "application/json")
	if !h.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h) //nolint:errcheck
}

// traceSpan is the JSON form of one completed span: stage-name →
// nanosecond offset from the epoch. Payloads never appear — the tracer
// records timestamps and protocol identifiers only.
type traceSpan struct {
	Client uint32           `json:"client"`
	TS     uint64           `json:"ts"`
	Seq    uint64           `json:"seq,omitempty"`
	Read   bool             `json:"read,omitempty"`
	Stages map[string]int64 `json:"stages"`
}

// trace serves the recent completed spans (?limit=N, default 256).
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	limit := 256
	if q := r.URL.Query().Get("limit"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n > 0 {
			limit = n
		}
	}
	spans := s.src.Spans(limit)
	out := struct {
		Epoch time.Time   `json:"epoch"`
		Spans []traceSpan `json:"spans"`
	}{Epoch: s.src.TraceEpoch(), Spans: make([]traceSpan, 0, len(spans))}
	for i := range spans {
		sp := &spans[i]
		out.Spans = append(out.Spans, traceSpan{
			Client: sp.Key.Client,
			TS:     sp.Key.TS,
			Seq:    sp.Seq,
			Read:   sp.Read,
			Stages: sp.Stages(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck
}
