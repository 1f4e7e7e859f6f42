package memserver

import (
	"fmt"
	"net/http"
)

// Handler returns the daemon's HTTP control plane: GET /healthz (503
// while draining) and GET /metrics. Reads and writes travel only over
// the binary frame server (binary.go); the control plane carries no
// data and no per-op latency.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
