package queryd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers (the debug server in internal/obs uses the same value);
// without it one stalled client pins a connection of the resident service
// forever.
const readHeaderTimeout = 5 * time.Second

// Server exposes a Service over HTTP: POST /query executes a QuerySpec,
// GET /metrics scrapes Prometheus text, GET /healthz answers liveness.
type Server struct {
	svc *Service
	ln  net.Listener
	srv *http.Server
}

// NewServer binds addr (pass host:0 for an ephemeral port) and serves in
// the background until Close.
func NewServer(addr string, svc *Service) (*Server, error) {
	return newServer(addr, svc, readHeaderTimeout)
}

func newServer(addr string, svc *Service, headerTimeout time.Duration) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("queryd: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	s := &Server{svc: svc, ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: headerTimeout}}
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr reports the bound address — the concrete port when addr was :0.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the HTTP listener and then the service (draining its queue).
func (s *Server) Close() {
	_ = s.srv.Close()
	s.svc.Close()
}

// errorBody is the JSON error envelope, carrying the typed-rejection kind
// so clients can branch without parsing message text.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var spec QuerySpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad query spec: " + err.Error()})
		return
	}
	resp, err := s.svc.Submit(spec)
	if err != nil {
		var qe *QuotaError
		var fe *QueueFullError
		switch {
		case errors.As(err, &qe):
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), Kind: "quota"})
		case errors.As(err, &fe):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), Kind: "queue_full"})
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.svc.cfg.Obs.R()
	if reg == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
