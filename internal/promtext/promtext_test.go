package promtext

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodPage = `# HELP demo_requests_total Requests served.
# TYPE demo_requests_total counter
demo_requests_total 42
# HELP demo_temp_celsius Current temperature.
# TYPE demo_temp_celsius gauge
demo_temp_celsius{sensor="a",site="lab 1"} -3.5
demo_temp_celsius{sensor="b",site="lab 1"} 7
# HELP demo_latency_seconds Request latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{le="0.1"} 10
demo_latency_seconds_bucket{le="0.5"} 15
demo_latency_seconds_bucket{le="+Inf"} 20
demo_latency_seconds_sum 4.5
demo_latency_seconds_count 20
`

func TestParseGoodPage(t *testing.T) {
	m, err := Parse(strings.NewReader(goodPage))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Order); got != 3 {
		t.Fatalf("families = %d, want 3", got)
	}
	v, err := m.Value("demo_requests_total")
	if err != nil || v != 42 {
		t.Fatalf("requests_total = %v, %v; want 42", v, err)
	}
	gauge := m.Families["demo_temp_celsius"]
	if gauge.Type != "gauge" || len(gauge.Samples) != 2 {
		t.Fatalf("gauge family = %+v", gauge)
	}
	if s := gauge.Samples[0]; s.Labels["sensor"] != "a" || s.Labels["site"] != "lab 1" || s.Value != -3.5 {
		t.Fatalf("labeled sample = %+v", s)
	}
	hist := m.Families["demo_latency_seconds"]
	if hist.Type != "histogram" || len(hist.Samples) != 5 {
		t.Fatalf("histogram family = %+v", hist)
	}
	inf := hist.Samples[2]
	if !math.IsInf(mustLe(t, inf.Labels["le"]), 1) {
		t.Fatalf("+Inf bucket le = %q", inf.Labels["le"])
	}
}

func mustLe(t *testing.T, s string) float64 {
	t.Helper()
	v, err := parseValue(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestParseRejectsMalformedPages(t *testing.T) {
	cases := map[string]string{
		"bad metric name": "# TYPE 1bad counter\n1bad 1\n",
		"bad name in sample": "# TYPE ok counter\n" +
			"bad-dash 1\n",
		"sample before TYPE":  "lonely_metric 1\n",
		"unknown type":        "# TYPE x widget\nx 1\n",
		"TYPE after samples":  "# TYPE x counter\nx 1\n# TYPE x gauge\n",
		"bad label name":      "# TYPE x counter\nx{9bad=\"v\"} 1\n",
		"unquoted label":      "# TYPE x counter\nx{l=v} 1\n",
		"duplicate label":     "# TYPE x counter\nx{l=\"a\",l=\"b\"} 1\n",
		"unterminated labels": "# TYPE x counter\nx{l=\"a\" 1\n",
		"bad value":           "# TYPE x counter\nx one\n",
		"bucket without le": "# TYPE h histogram\n" +
			"h_bucket 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.5\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 0\nh_count 5\n",
		"le out of order": "# TYPE h histogram\n" +
			"h_bucket{le=\"0.5\"} 3\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 0\nh_count 5\n",
		"missing +Inf bucket": "# TYPE h histogram\n" +
			"h_bucket{le=\"0.5\"} 3\nh_sum 0\nh_count 3\n",
		"count disagrees with +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 0\nh_count 7\n",
	}
	for name, page := range cases {
		if _, err := Parse(strings.NewReader(page)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, page)
		}
	}
}

func TestParseToleratesTimestampsAndComments(t *testing.T) {
	page := "# scraped by test\n" +
		"# TYPE ts_metric counter\n" +
		"ts_metric 5 1712345678901\n"
	m, err := Parse(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := m.Value("ts_metric"); err != nil || v != 5 {
		t.Fatalf("ts_metric = %v, %v; want 5", v, err)
	}
}

// FuzzParse: whatever bytes a scrape returns, Parse must not panic, and a
// page it accepts must be one its callers can read: every family indexed
// once in declaration order, every histogram family passing
// validateHistogram, and Value answering (a value or an error) for every
// family name. Seeds: this file's pages and each family of the
// exchange's golden pages.
func FuzzParse(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "exchange", "testdata", "prometheus", "*.golden"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden pages to seed from (%v)", err)
	}
	for _, name := range goldens {
		page, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		// One seed per family: whole 12 KB pages leave the fuzzer
		// minimizing for most of its budget.
		fams := strings.Split(string(page), "\n# HELP ")
		for i, fam := range fams {
			if i > 0 {
				fam = "# HELP " + fam
			}
			f.Add([]byte(fam + "\n"))
		}
	}
	f.Add([]byte(goodPage))
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"0.5\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 0\nh_count 5\n"))
	f.Add([]byte("# TYPE x_count gauge\nx_count 3 1700000000\n# other comment\n"))
	f.Add([]byte("# TYPE x counter\nx{l=\"a,\\\"b\",m=\"\"} NaN\n"))
	f.Fuzz(func(t *testing.T, page []byte) {
		m, err := Parse(bytes.NewReader(page))
		if err != nil {
			if m != nil {
				t.Fatalf("error %v with a page", err)
			}
			return
		}
		if len(m.Order) != len(m.Families) {
			t.Fatalf("%d families in Order, %d indexed", len(m.Order), len(m.Families))
		}
		for _, name := range m.Order {
			fam := m.Families[name]
			if fam == nil || fam.Name != name {
				t.Fatalf("Order names %q, indexed as %+v", name, fam)
			}
			if fam.Type == "histogram" {
				if err := validateHistogram(fam); err != nil {
					t.Fatalf("accepted a histogram validateHistogram rejects: %v", err)
				}
			}
			m.Value(name)
		}
	})
}
