package exchange

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"fmore/internal/partition"
	"fmore/pkg/api"
)

// TestWireGoldenBytes pins, byte for byte, the small acknowledgements that
// were map literals before pkg/api named them: a map marshals its keys
// sorted, so each struct's field order has to spell the same bytes.
func TestWireGoldenBytes(t *testing.T) {
	srv, ex := httpFixture(t)
	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // read below
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	if st, body := do(http.MethodPost, "/v1/jobs", `{"id":"gold","k":1,"rule":{"kind":"additive","alpha":[0.5,0.5]}}`); st != http.StatusCreated {
		t.Fatalf("create: %d %s", st, body)
	}
	for _, tc := range []struct {
		what, method, path, body string
		status                   int
		want                     string
	}{
		{"node register", http.MethodPost, "/v1/nodes", `{"node_id":7,"meta":"edge-7"}`, 200, `{"bids":0,"node_id":7}`},
		{"bid ack", http.MethodPost, "/v1/jobs/gold/bids", `{"node_id":7,"qualities":[0.5,0.5],"payment":0.1}`, 202, `{"job":"gold","round":1}`},
		{"node register, after a bid", http.MethodPost, "/v1/nodes", `{"node_id":7}`, 200, `{"bids":1,"node_id":7}`},
		{"node blacklist", http.MethodPost, "/v1/nodes/7/blacklist", ``, 200, `{"blacklisted":true,"node_id":7}`},
		{"job removed", http.MethodDelete, "/v1/jobs/gold", ``, 200, `{"job":"gold","removed":true}`},
		{"error envelope", http.MethodDelete, "/v1/jobs/gold", ``, 404, `{"code":"unknown_job","message":"exchange: unknown job: \"gold\""}`},
	} {
		if st, body := do(tc.method, tc.path, tc.body); st != tc.status || body != tc.want+"\n" {
			t.Errorf("%s: got %d %q, want %d %q", tc.what, st, body, tc.status, tc.want+"\n")
		}
	}
	// The two event payloads that were map literals.
	for _, tc := range []struct {
		v    any
		want string
	}{
		{api.RoundOpen{Job: "gold", Round: 3}, `{"job":"gold","round":3}`},
		{api.JobClosed{Job: "gold"}, `{"job":"gold"}`},
	} {
		rec := httptest.NewRecorder()
		writeSSE(rec, "", "e", tc.v)
		if want := "event: e\ndata: " + tc.want + "\n\n"; rec.Body.String() != want {
			t.Errorf("SSE frame %q, want %q", rec.Body.String(), want)
		}
	}

	// The round bodies of a seeded job, as encoding/json wrote them before
	// the round encoder did. latency_ms is the one field a run does not
	// repeat, so it is masked.
	latency := regexp.MustCompile(`"latency_ms":[^,]*,`)
	mask := func(s string) string { return latency.ReplaceAllString(s, `"latency_ms":LAT,`) }
	const (
		round1 = `{"job":"seeded","round":1,"num_bids":4,"latency_ms":LAT,"winners":[{"node_id":3,"score":0.509,"payment":0.22199999999999998,"bid_payment":0.125,"qualities":[0.81,0.37]},{"node_id":5,"score":0.46,"payment":0.248,"bid_payment":0.2,"qualities":[0.5,0.9]}],"total_payment":0.47,"aggregator_profit":0.8240000000000001,"scores":[0.509,0.46,0.41200000000000003,0.2800000000000001]}`
		round2 = `{"job":"seeded","round":2,"num_bids":2,"latency_ms":LAT,"winners":[{"node_id":3,"score":0.6,"payment":0.1,"bid_payment":0.1,"qualities":[0.7,0.7]},{"node_id":5,"score":0.09999906,"payment":0.000001,"bid_payment":0.000001,"qualities":[1e-7,0.25]}],"total_payment":0.100001,"aggregator_profit":0.69999906,"scores":[0.6,0.09999906]}`
	)
	if st, body := do(http.MethodPost, "/v1/jobs", `{"id":"seeded","k":2,"seed":7,"payment":"second-price","rule":{"kind":"additive","alpha":[0.6,0.4]}}`); st != http.StatusCreated {
		t.Fatalf("create: %d %s", st, body)
	}
	for _, round := range []struct {
		bids []string
		want string
	}{
		{[]string{`{"node_id":3,"qualities":[0.81,0.37],"payment":0.125}`, `{"node_id":5,"qualities":[0.5,0.9],"payment":0.2}`,
			`{"node_id":8,"qualities":[0.33,0.66],"payment":0.05}`, `{"node_id":11,"qualities":[0.9,0.1],"payment":0.3}`}, round1},
		{[]string{`{"node_id":3,"qualities":[0.7,0.7],"payment":0.1}`, `{"node_id":5,"qualities":[1e-7,0.25],"payment":1e-6}`}, round2},
	} {
		for _, bid := range round.bids {
			if st, body := do(http.MethodPost, "/v1/jobs/seeded/bids", bid); st != http.StatusAccepted {
				t.Fatalf("bid %s: %d %s", bid, st, body)
			}
		}
		if st, body := do(http.MethodPost, "/v1/jobs/seeded/close", ``); st != http.StatusOK || mask(body) != round.want+"\n" {
			t.Errorf("close body: got %d\n%s\nwant\n%s", st, mask(body), round.want)
		}
	}
	for _, tc := range []struct{ what, path, want string }{
		{"outcome by round", "/v1/jobs/seeded/outcome?round=1", round1},
		{"outcome page", "/v1/jobs/seeded/outcomes?limit=1", `{"outcomes":[` + round1 + `],"next_cursor":"1"}`},
	} {
		if st, body := do(http.MethodGet, tc.path, ``); st != http.StatusOK || mask(body) != tc.want+"\n" {
			t.Errorf("%s: got %d\n%s\nwant\n%s", tc.what, st, mask(body), tc.want)
		}
	}
	stream, stop := pipeStream(t, NewHandler(ex), "/v1/jobs/seeded/events")
	defer stop()
	var frame strings.Builder
	for !strings.HasSuffix(frame.String(), "\n\n") {
		line, err := stream.ReadString('\n')
		if err != nil {
			t.Fatalf("event stream: %v after %q", err, frame.String())
		}
		frame.WriteString(line)
	}
	if want := "id: 1\nevent: round_closed\ndata: " + round1 + "\n\n"; mask(frame.String()) != want {
		t.Errorf("round_closed frame: got\n%q\nwant\n%q", mask(frame.String()), want)
	}
}

// jsonOnlyMetrics are the api.Metrics fields the Prometheus page leaves out
// on purpose: rates a scraper derives itself with rate(), and the shed total
// that is the sum of the page's per-reason samples.
var jsonOnlyMetrics = map[string]bool{
	"rounds_per_sec":       true,
	"bids_per_sec":         true,
	"admission_shed_total": true,
}

// TestMetricCatalogAgrees keeps the three statements of the metric catalog
// — api.Metrics, metricCatalog (which is the Prometheus page) and the table
// in doc.go — from drifting apart: a snapshot field no row renders, or a
// family nobody documents, fails here.
func TestMetricCatalogAgrees(t *testing.T) {
	m := &partition.Map{Version: 3, Partitions: []partition.Replica{{Partition: "p0", URL: "http://127.0.0.1:1"}}}
	ex := New(Options{Partition: &partition.Assignment{Local: "p0", Map: partition.NewHandle(m)}})
	defer ex.Close()
	render := func(s Snapshot) string {
		var buf bytes.Buffer
		if err := renderPrometheus(&buf, ex, s); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// Every field either moves the page when it alone changes, or is listed.
	base := Snapshot{AdmissionEnabled: true} // admission families render only when enabled
	basePage := render(base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if name == "" {
			t.Fatalf("api.Metrics.%s has no json name", typ.Field(i).Name)
		}
		s := base
		switch f := reflect.ValueOf(&s).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(7.5)
		default:
			t.Fatalf("api.Metrics.%s: kind %s is not handled here", typ.Field(i).Name, f.Kind())
		}
		switch rendered := render(s) != basePage; {
		case !rendered && !jsonOnlyMetrics[name]:
			t.Errorf("%s is in api.Metrics but no row of metricCatalog renders it (add one, or list it as JSON-only)", name)
		case rendered && jsonOnlyMetrics[name]:
			t.Errorf("%s is listed as JSON-only but changes the Prometheus page", name)
		}
	}

	// Every family of the table (and the histogram, which has its own writer)
	// has a row of the right type in doc.go, and doc.go documents no other.
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, row := range regexp.MustCompile(`(?m)^//\t([a-z0-9_]+) +(gauge|counter|histogram) +\S`).FindAllStringSubmatch(string(doc), -1) {
		rows[row[1]] = row[2]
	}
	families := map[string]string{"round_latency_seconds": "histogram"}
	for _, row := range metricCatalog {
		typ := "gauge"
		if row.counter {
			typ = "counter"
		}
		if prev, seen := families[row.name]; seen && prev != typ {
			t.Errorf("family %s is declared both %s and %s", row.name, prev, typ)
		}
		families[row.name] = typ
	}
	for name, typ := range families {
		if rows[name] != typ {
			t.Errorf("family %s (%s) has no matching row in doc.go's catalog (found %q)", name, typ, rows[name])
		}
		delete(rows, name)
	}
	for short := range rows {
		t.Errorf("doc.go documents %s, which the page does not render", short)
	}
}
