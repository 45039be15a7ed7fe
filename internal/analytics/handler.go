package analytics

import (
	"net/http"
	"strconv"

	"fmore/internal/exchange"
	"fmore/pkg/api"
)

// NewHandler wraps the exchange's HTTP handler with the analytics
// endpoints, api.GetJobStats and api.GetNodeStats (windowed + lifetime
// rollups), keeping the v1 conventions (error envelope, stable codes).
// Everything else falls through to next (normally exchange.NewHandler).
// A known-but-quiet entity answers 200 with zero rollups; a fully unknown
// one is a 404 (unknown_job for jobs, not_found for nodes — node identity
// is only established by registration or a first accepted bid).
func NewHandler(ex *exchange.Exchange, agg *Aggregator, next http.Handler) http.Handler {
	h := &handler{ex: ex, agg: agg}
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc(api.GetJobStats.Method+" "+api.GetJobStats.Path, h.jobStats)
	mux.HandleFunc(api.GetNodeStats.Method+" "+api.GetNodeStats.Path, h.nodeStats)
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
			api.WriteJSON(w, http.StatusNotFound, api.Error{Code: api.CodeUnknownJob, Message: "unknown job " + strconv.Quote(id)})
			return
		}
		st = JobStats{Job: id, WindowSec: int64(h.agg.window.Seconds()), PriceHistogram: h.emptyHist()}
	}
	api.WriteJSON(w, http.StatusOK, st)
}

func (h *handler) nodeStats(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.Error{Code: api.CodeInvalidRequest, Message: "bad node id " + strconv.Quote(r.PathValue("id"))})
		return
	}
	st, ok := h.agg.NodeStats(id)
	if !ok {
		if _, known := h.ex.Registry().Lookup(id); !known {
			api.WriteJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound, Message: "unknown node " + strconv.Itoa(id)})
			return
		}
		st = NodeStats{Node: id, WindowSec: int64(h.agg.window.Seconds()), PriceHistogram: h.emptyHist()}
	}
	api.WriteJSON(w, http.StatusOK, st)
}

// emptyHist keeps the zero-stats response shape identical to a populated
// one (bounds present, counts all zero).
func (h *handler) emptyHist() PriceHistogram {
	return PriceHistogram{Bounds: h.agg.bounds, Counts: make([]int64, len(h.agg.bounds)+1)}
}
