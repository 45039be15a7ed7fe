package exchange

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fmore/internal/admission"
	"fmore/internal/partition"
)

// promGoldenPages renders, for each posture that changes which families the
// Prometheus page carries, one page from an all-zero snapshot and one from a
// snapshot whose every field holds a distinct value (integers past 10⁶, where
// a gauge switches to exponent notation and a counter must not), over a
// histogram with fixed observations. The keys name files in
// testdata/prometheus.
func promGoldenPages(t *testing.T) map[string][]byte {
	t.Helper()
	var full Snapshot
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000003 * (i + 1)))
		case reflect.Float64:
			f.SetFloat(0.125 * float64(i+1))
		default:
			t.Fatalf("api.Metrics.%s: kind %s is not handled here", v.Type().Field(i).Name, f.Kind())
		}
	}
	m := &partition.Map{Version: 3, Partitions: []partition.Replica{{Partition: "p0", URL: "http://127.0.0.1:1"}}}
	pages := map[string][]byte{}
	for name, opts := range map[string]Options{
		"unpartitioned": {},
		"partitioned":   {Partition: &partition.Assignment{Local: "p0", Map: partition.NewHandle(m)}},
		"admission":     {Admission: admission.NewController(admission.Config{})},
	} {
		ex := New(opts)
		defer ex.Close()
		for _, d := range []time.Duration{100 * time.Microsecond, 300 * time.Microsecond, 3 * time.Millisecond, 40 * time.Millisecond, 3 * time.Second} {
			ex.metrics.observeRound(d)
		}
		var buf bytes.Buffer
		for _, s := range []Snapshot{{}, full} {
			s.AdmissionEnabled = opts.Admission != nil
			if err := renderPrometheus(&buf, ex, s); err != nil {
				t.Fatal(err)
			}
		}
		pages[name+".golden"] = buf.Bytes()
	}
	return pages
}

// TestPrometheusGoldenPages holds the metric table to the bytes the
// hand-written call list it replaced produced (the goldens were captured
// from that code): same families, same order, same HELP text, same number
// formatting.
func TestPrometheusGoldenPages(t *testing.T) {
	for name, got := range promGoldenPages(t) {
		want, err := os.ReadFile(filepath.Join("testdata", "prometheus", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the page differs from the golden:\n%s", name, got)
		}
	}
}
