package analytics

import (
	"encoding/json"
	"net/http"
	"strconv"

	"fmore/internal/exchange"
	"fmore/pkg/api"
)

// NewHandler wraps the exchange's HTTP handler with the analytics
// endpoints, keeping the v1 conventions (error envelope, stable codes):
//
//	GET /v1/jobs/{id}/stats   windowed + lifetime job rollups
//	GET /v1/nodes/{id}/stats  windowed + lifetime node rollups
//
// Everything else falls through to next (normally exchange.NewHandler).
// A known-but-quiet entity answers 200 with zero rollups; a fully unknown
// one is a 404 (unknown_job for jobs, not_found for nodes — node identity
// is only established by registration or a first accepted bid).
func NewHandler(ex *exchange.Exchange, agg *Aggregator, next http.Handler) http.Handler {
	h := &handler{ex: ex, agg: agg}
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc("GET /v1/jobs/{id}/stats", h.jobStats)
	mux.HandleFunc("GET /v1/nodes/{id}/stats", h.nodeStats)
	return mux
}

type handler struct {
	ex  *exchange.Exchange
	agg *Aggregator
}

func (h *handler) jobStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := h.agg.JobStats(id)
	if !ok {
		// The aggregator has seen nothing — distinguish a quiet job from a
		// nonexistent one against the live exchange.
		if _, hosted := h.ex.Job(id); !hosted {
			writeErr(w, http.StatusNotFound, api.CodeUnknownJob, "unknown job "+strconv.Quote(id))
			return
		}
		st = JobStats{Job: id, WindowSec: int64(h.agg.window.Seconds()), PriceHistogram: h.emptyHist()}
	}
	writeJSON(w, st)
}

func (h *handler) nodeStats(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeInvalidRequest, "bad node id "+strconv.Quote(r.PathValue("id")))
		return
	}
	st, ok := h.agg.NodeStats(id)
	if !ok {
		if _, known := h.ex.Registry().Lookup(id); !known {
			writeErr(w, http.StatusNotFound, api.CodeNotFound, "unknown node "+strconv.Itoa(id))
			return
		}
		st = NodeStats{Node: id, WindowSec: int64(h.agg.window.Seconds()), PriceHistogram: h.emptyHist()}
	}
	writeJSON(w, st)
}

// emptyHist keeps the zero-stats response shape identical to a populated
// one (bounds present, counts all zero).
func (h *handler) emptyHist() PriceHistogram {
	return PriceHistogram{Bounds: h.agg.bounds, Counts: make([]int64, len(h.agg.bounds)+1)}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr renders the v1 error envelope {code, message}.
func writeErr(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(api.Error{Code: code, Message: message})
}
