package api_test

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"slices"
	"strings"
	"testing"

	"fmore/pkg/api"
)

// lookupSeeds are the paths Lookup is held to the mux on: every row's path
// with a plain, a %2F, a %25 and a lone %2F id (which ServeMux reads as a
// trailing slash), each with a trailing slash too; empty
// segments; escaped literals; a near miss; the removed pre-v1 paths.
func lookupSeeds() []string {
	seeds := []string{
		"/", "/v1", "/v1/", "/v1//jobs", "/v1/jobs//bids", "/v1/jobs/a//bids",
		"/v1/jobsx/a", "/v1/jobs/a/bidsx", "/v1/j%6Fbs", "/%76%31/metrics",
		"/v1/jobs/a/b/bids", "/v1/jobs/%zz", "/v1/nodes/7/stats/x",
		"/jobs", "/jobs/a/bids", "/jobs/a/outcome", "/nodes", "/metrics",
	}
	for _, rt := range api.Routes {
		for _, id := range []string{"a", "a%2Fb", "a%25b", "%2F"} {
			p := strings.Replace(rt.Path, "{id}", id, 1)
			seeds = append(seeds, p, p+"/")
		}
	}
	return seeds
}

var lookupMethods = []string{http.MethodGet, http.MethodPost, http.MethodDelete, http.MethodHead, http.MethodPut}

// newRouteMux serves every row of api.Routes; each handler reports the
// pattern it matched and the {id} it saw in response headers.
func newRouteMux() *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range api.Routes {
		mux.HandleFunc(rt.Method+" "+rt.Path, func(w http.ResponseWriter, r *http.Request) {
			w.Header()["Pattern"] = []string{r.Pattern}
			w.Header()["Id"] = []string{r.PathValue("id")}
		})
	}
	return mux
}

// checkLookup holds Lookup(method, p) to what mux does with the same
// request: the matched pattern, PathValue("id"), and the methods whose probe
// matches. Paths the mux would redirect (unclean) or that no request line
// carries as they are spelled are skipped.
func checkLookup(t *testing.T, mux *http.ServeMux, method, p string) {
	t.Helper()
	route, id, allow := api.Lookup(method, p) // whatever p is, Lookup must not panic
	clean := path.Clean(p)
	if strings.HasSuffix(p, "/") && clean != "/" {
		clean += "/"
	}
	raw, err := url.PathUnescape(p)
	if !strings.HasPrefix(p, "/") || clean != p || err != nil {
		return
	}
	r := &http.Request{Method: method, URL: &url.URL{Path: raw, RawPath: p}, Header: http.Header{}}
	if r.URL.EscapedPath() != p {
		return
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, r)
	var gotPattern, gotID string
	if v := rec.Header()["Pattern"]; v != nil {
		gotPattern, gotID = v[0], rec.Header()["Id"][0]
	}
	var wantAllow []string
	for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodDelete} {
		probe := r.Clone(r.Context())
		probe.Method = m
		if _, pat := mux.Handler(probe); pat != "" {
			wantAllow = append(wantAllow, m)
		}
	}
	pattern := ""
	if route != (api.Route{}) {
		pattern = route.Method + " " + route.Path
	}
	if pattern != gotPattern || id != gotID || !slices.Equal(allow, wantAllow) {
		t.Errorf("Lookup(%q, %q) = %q, id %q, allow %v; the mux says %q, id %q, allow %v",
			method, p, pattern, id, allow, gotPattern, gotID, wantAllow)
	}
}

// TestLookupMatchesServeMux: the router's matcher and the handler's mux
// agree on every seed path under every method.
func TestLookupMatchesServeMux(t *testing.T) {
	mux := newRouteMux()
	for _, p := range lookupSeeds() {
		for _, m := range lookupMethods {
			checkLookup(t, mux, m, p)
		}
	}
	// Spot checks the comparison above cannot make on its own.
	if route, id, _ := api.Lookup(http.MethodPost, "/v1/jobs/a%2Fb%25c/bids"); route != api.SubmitBid || id != "a/b%c" {
		t.Errorf("escaped bid submit = %v, id %q; want SubmitBid, id %q", route, id, "a/b%c")
	}
	if route, _, allow := api.Lookup(http.MethodPost, "/v1/jobs/x/stats"); route != (api.Route{}) || !slices.Equal(allow, []string{http.MethodGet}) {
		t.Errorf("POST stats = %v, allow %v; want no route, allow [GET]", route, allow)
	}
	if got := api.CloseRound.URL("a/b %c"); got != "/v1/jobs/a%2Fb%20%25c/close" {
		t.Errorf("CloseRound.URL = %q", got)
	}
}

// TestLookupAllocatesNothing: matching a plain path — found, wrong method or
// unknown — allocates nothing (the router matches every request).
func TestLookupAllocatesNothing(t *testing.T) {
	for _, p := range []string{"/v1/jobs/j-17/bids", "/v1/cluster/partitions", "/v1/nodes/x", "/favicon.ico"} {
		if n := testing.AllocsPerRun(100, func() { api.Lookup(http.MethodPost, p) }); n != 0 {
			t.Errorf("Lookup(POST, %q): %v allocs, want 0", p, n)
		}
	}
}

// FuzzLookup holds Lookup to the mux on arbitrary methods and paths: it
// never panics, and on every clean escaped path its route, {id} and Allow
// methods are the mux's. Seeds: every row with a plain, a %2F and a %25
// id, trailing slashes, empty segments, near misses and the pre-v1 paths.
func FuzzLookup(f *testing.F) {
	for _, p := range lookupSeeds() {
		for _, m := range lookupMethods {
			f.Add(m, p)
		}
	}
	mux := newRouteMux()
	f.Fuzz(func(t *testing.T, method, p string) {
		checkLookup(t, mux, method, p)
	})
}
