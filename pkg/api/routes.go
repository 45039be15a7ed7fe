package api

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strings"

	"fmore/internal/partition"
)

// Route is one /v1 endpoint: a method, a net/http pattern path ({id} is its
// only wildcard) and a Scope. The handler registers these rows, the router
// routes by them and pkg/client builds its URLs from them.
type Route struct {
	Method string
	Path   string
	Scope  Scope
}

// Scope is a route's routing decision in a partitioned cluster.
type Scope uint8

const (
	// Local: the default replica, the lexically first partition.
	Local Scope = iota
	// JobPath: the replica owning the path's {id} under rendezvous hashing.
	JobPath
	// JobBody: the owner of the body's "id"; without one, the default
	// replica, whose exchange draws an id it owns.
	JobBody
	// Fanout: every replica, as registration and blacklists gate bids
	// wherever the job is hosted; the default replica's answer is returned.
	Fanout
)

// The /v1 routes. Only job creation and bid submission honor an
// Idempotency-Key; the two listings page with ?cursor= / ?limit=.
var (
	ListJobs      = Route{http.MethodGet, "/v1/jobs", Local}
	CreateJob     = Route{http.MethodPost, "/v1/jobs", JobBody}
	GetJob        = Route{http.MethodGet, "/v1/jobs/{id}", JobPath}
	RemoveJob     = Route{http.MethodDelete, "/v1/jobs/{id}", JobPath}    // close and evict
	SubmitBid     = Route{http.MethodPost, "/v1/jobs/{id}/bids", JobPath} // one sealed bid; the only route the router sheds
	CloseRound    = Route{http.MethodPost, "/v1/jobs/{id}/close", JobPath}
	GetOutcome    = Route{http.MethodGet, "/v1/jobs/{id}/outcome", JobPath}  // ?round=N, ?wait=1
	ListOutcomes  = Route{http.MethodGet, "/v1/jobs/{id}/outcomes", JobPath} // retained rounds
	WatchEvents   = Route{http.MethodGet, "/v1/jobs/{id}/events", JobPath}   // SSE round stream, Last-Event-ID resume
	GetStrategy   = Route{http.MethodGet, "/v1/jobs/{id}/strategy", JobPath} // solved equilibrium bid curve, ?samples=N
	GetJobStats   = Route{http.MethodGet, "/v1/jobs/{id}/stats", JobPath}    // served by internal/analytics
	RegisterNode  = Route{http.MethodPost, "/v1/nodes", Fanout}
	BlacklistNode = Route{http.MethodPost, "/v1/nodes/{id}/blacklist", Fanout}
	GetNodeStats  = Route{http.MethodGet, "/v1/nodes/{id}/stats", Local} // served by internal/analytics
	GetMetrics    = Route{http.MethodGet, "/v1/metrics", Local}          // JSON snapshot
	GetPrometheus = Route{http.MethodGet, "/v1/metrics/prometheus", Local}
	GetPartitions = Route{http.MethodGet, partition.MapPath, Local} // 404 when unpartitioned
	GetHealthz    = Route{http.MethodGet, "/v1/healthz", Local}     // 503 + retry_after_ms while shedding or degraded
)

// Routes lists every /v1 route.
var Routes = []Route{
	ListJobs, CreateJob, GetJob, RemoveJob, SubmitBid, CloseRound, GetOutcome,
	ListOutcomes, WatchEvents, GetStrategy, GetJobStats, RegisterNode,
	BlacklistNode, GetNodeStats, GetMetrics, GetPrometheus, GetPartitions, GetHealthz,
}

// MaxBody bounds every request body the handler reads and the router buffers
// (413 past it), far below the log's own record bound.
const MaxBody = 8 << 20

// URL is the route's path with {id} filled in, escaped.
func (r Route) URL(id string) string {
	return strings.Replace(r.Path, "{id}", url.PathEscape(id), 1)
}

// allowed maps each route path to the methods it is served under.
var allowed = func() map[string][]string {
	m := map[string][]string{}
	for _, r := range Routes {
		m[r.Path] = append(m[r.Path], r.Method)
	}
	return m
}()

// Lookup matches a request as a ServeMux holding every row of Routes would:
// each escaped segment is unescaped before it is compared, so a %2F stays
// inside {id}, and a GET row serves HEAD. route is the matched row (zero if
// none has the method), id its {id}, allow the methods of the path's rows
// (nil for no route; read-only). It allocates nothing unless a segment is
// escaped.
func Lookup(method, escapedPath string) (route Route, id string, allow []string) {
	for _, r := range Routes {
		rid, ok := match(r.Path, escapedPath)
		if !ok {
			continue
		}
		allow = allowed[r.Path]
		if r.Method == method || method == http.MethodHead && r.Method == http.MethodGet {
			return r, rid, allow
		}
	}
	return Route{}, "", allow
}

func match(pattern, path string) (id string, ok bool) {
	if !strings.HasPrefix(path, "/") {
		return "", false
	}
	pattern, path = pattern[1:], path[1:]
	for {
		lit, prest, pmore := strings.Cut(pattern, "/")
		seg, rest, more := strings.Cut(path, "/")
		switch {
		case lit == "{id}" && seg != "":
			// ServeMux reads a segment that unescapes to "/" as a trailing
			// slash, which no {id} matches.
			if id = unescape(seg); id == "/" {
				return "", false
			}
		case seg != lit && unescape(seg) != lit:
			return "", false
		}
		if !pmore || !more {
			return id, pmore == more
		}
		pattern, path = prest, rest
	}
}

// unescape is ServeMux's: an invalid escape leaves the segment as it is.
func unescape(seg string) string {
	if u, err := url.PathUnescape(seg); err == nil {
		return u
	}
	return seg
}

// WriteJSON answers status with v as a newline-terminated JSON body, or 500
// internal_error with the encoder's message when v does not encode (a
// non-finite float, say): the status line waits for the whole body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, Error{Code: CodeInternal, Message: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}
