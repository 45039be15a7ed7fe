package exchange

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/wal"
	"fmore/pkg/api"
)

// checkRoundEncoding asserts the round encoder's whole contract on one
// record: the payload built around its output equals the reflective encoder's
// byte for byte (or both refuse the record with the same error), the output
// itself is the record minus its replay fields, and decodeRecord hands back
// that same history form plus the record encoding/json would have decoded.
func checkRoundEncoding(t *testing.T, r *walRound) {
	t.Helper()
	rec := walRecord{Kind: recRound, Round: r}
	reflective, wantErr := json.Marshal(rec)
	history, drawsAt, err := appendWalRound(nil, r)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("encode error = %v, the reflective encoder refuses with %v", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("encode error %v, the reflective encoder accepts: %s", err, reflective)
	}
	spliced := new(bytes.Buffer)
	frameRound(spliced, history, drawsAt, r.Bidders, r.Draws)
	if !bytes.Equal(spliced.Bytes(), reflective) {
		t.Fatalf("payload differs from the reflective encoder's:\n got: %s\nwant: %s", spliced.Bytes(), reflective)
	}

	inHistory := *r
	inHistory.Bidders, inHistory.Draws = nil, 0
	if want, err := json.Marshal(&inHistory); err != nil || !bytes.Equal(history, want) {
		t.Fatalf("history form differs from encoding/json (%v):\n got: %s\nwant: %s", err, history, want)
	}

	payload := bytes.Clone(reflective)
	back, err := decodeRecord(payload)
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if !bytes.Equal(back.roundRaw, history) {
		t.Fatalf("decodeRecord kept %s, the history form is %s", back.roundRaw, history)
	}
	var generic walRecord
	if err := json.Unmarshal(payload, &generic); err != nil {
		t.Fatal(err)
	}
	if back.Kind != recRound || !reflect.DeepEqual(back.Round, generic.Round) {
		t.Fatalf("decodeRecord = %+v, encoding/json decodes %+v", back.Round, generic.Round)
	}
}

// walRoundFromFuzz builds a record from fuzzer-controlled primitives. data
// is consumed eight bytes at a time as raw float64 bit patterns, so NaNs,
// infinities, subnormals and negative zero are all reachable; shape picks
// nil versus empty versus filled slices.
func walRoundFromFuzz(job, errStr string, round, numBids int, draws, lat int64, shape uint8, data []byte) *walRound {
	next := func() float64 {
		if len(data) < 8 {
			return 0
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return f
	}
	r := &walRound{Job: job, Round: round, NumBids: numBids, Draws: draws, LatencyNS: lat, Err: errStr}
	if shape&1 != 0 {
		r.Bidders = []int{numBids, -round, int(draws)}
	}
	if shape&2 != 0 {
		r.Winners = make([]walWinner, int(shape>>4)&3)
		for i := range r.Winners {
			w := walWinner{NodeID: int(lat) + i, BidPayment: next(), Score: next(), Payment: next()}
			if shape&4 != 0 {
				w.Qualities = make([]float64, i)
				for k := range w.Qualities {
					w.Qualities[k] = next()
				}
			}
			r.Winners[i] = w
		}
	}
	if shape&8 != 0 {
		r.Scores = []float64{}
		for len(data) >= 8 {
			r.Scores = append(r.Scores, next())
		}
	}
	r.Profit = next()
	return r
}

func floatBits(fs ...float64) []byte {
	b := make([]byte, 0, 8*len(fs))
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// FuzzAppendWalRound holds the hand-written round encoder to encoding/json
// on arbitrary records: the log and the snapshots stay readable across
// versions only while the two write the same bytes. The seed corpus names the places the two could
// drift apart: negative zero, subnormals, the 'f'/'e' format switches at
// 1e-6 and 1e21 (and the 1e-7 exponent clean-up), MaxFloat64, nil versus
// empty slices, and strings that need HTML, control, U+2028 or
// invalid-UTF-8 escaping; NaN and ±Inf must be refused identically. The
// bytes it guards are on disk, so CI fuzzes it twice as long as the rest.
//
//ci:fuzztime 20s
func FuzzAppendWalRound(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("job-1", "", 7, 64, int64(3), int64(125000), uint8(0x2f), floatBits(0.25, 0.5, 0.125, 0.75, 1, 2, 3))
	f.Add("job", "", 1, 0, int64(0), int64(0), uint8(0), []byte(nil)) // ψ zero-eligible: "w":null, "sc":null
	f.Add("", "", 0, 0, int64(0), int64(0), uint8(0x0a), []byte(nil)) // empty, non-nil slices
	f.Add("z", "", 1, 3, int64(9), int64(1), uint8(0x3f), floatBits(negZero, 5e-324, math.SmallestNonzeroFloat64*3, 1e-7, 1e-6, 9.999999e-7, 1e21, 9.99999999e20, math.MaxFloat64, -math.MaxFloat64, 1e-9, 123456789.125))
	f.Add("j", `round 3: <bad> & "quoted" \ slash`+"\n\t\b\f\x00\x1f\x7f", 3, 2, int64(1), int64(2), uint8(8), floatBits(1))
	f.Add("sep\u2028\u2029é世界", "bad utf8 \xff\xc0\xaf tail \xe2\x80", 1, 1, int64(1), int64(1), uint8(2), []byte(nil))
	f.Add("nan", "", 1, 1, int64(1), int64(1), uint8(8), floatBits(math.NaN()))
	f.Add("inf", "", 1, 1, int64(1), int64(1), uint8(0x1e), floatBits(1, math.Inf(1), math.Inf(-1)))
	f.Add("neg", "", -1, -5, int64(math.MinInt64), int64(math.MaxInt64), uint8(1), []byte(nil))
	f.Fuzz(func(t *testing.T, job, errStr string, round, numBids int, draws, lat int64, shape uint8, data []byte) {
		checkRoundEncoding(t, walRoundFromFuzz(job, errStr, round, numBids, draws, lat, shape, data))
	})
}

// FuzzDecodeHistories feeds arbitrary bytes to replay as one history entry
// of a snapshot. decodeHistories must refuse or decode them without a
// panic, and what it decodes is a fixed point of the history form:
// appendWalRound writes it in bytes that decode to the same round (less
// the replay fields the history form drops) and encode to the same bytes.
// Entries an exchange wrote — the parent-pr12 fixture's snapshot, and
// rounds of the shapes the encoder tests use — come back byte-identical.
func FuzzDecodeHistories(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-pr12", "data", wal.SnapshotName))
	if err != nil {
		f.Fatal(err)
	}
	var fixture walSnapshot
	if err := json.Unmarshal(raw[8:], &fixture); err != nil { // the payload behind the frame header
		f.Fatal(err)
	}
	written := map[string]bool{}
	for _, j := range fixture.Jobs {
		for _, h := range j.History {
			written[string(h.raw)] = true
		}
	}
	failed := &walRound{Job: "job-2", Round: 9, NumBids: 3, LatencyNS: 77, Err: `auction: no "valid" bid`, Scores: []float64{}}
	for _, r := range []*walRound{churnWalRound(), failed, {Job: "psi", Round: 1}} {
		b, _, err := appendWalRound(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		written[string(b)] = true
	}
	if len(written) < 8 {
		f.Fatalf("%d written entries to seed with", len(written))
	}
	for _, entry := range slices.Sorted(maps.Keys(written)) {
		f.Add([]byte(entry))
	}
	f.Add([]byte(`{"job":"x","r":1,"nb":2,"bidders":[4,5],"draws":7,"lat":1,"w":[null,{"q":[]}],"sc":[-0,1e-7]}`))
	f.Add([]byte(`{"JOB":"\ud800","r":1,"job":"y","sc":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"r":1e3}`))
	decode := func(entry []byte) (*walRound, error) {
		snap := &walSnapshot{Jobs: []walSnapJob{{History: []walSnapRound{{raw: entry}}}}}
		err := decodeHistories(snap)
		return &snap.Jobs[0].History[0].walRound, err
	}
	f.Fuzz(func(t *testing.T, entry []byte) {
		first, err := decode(entry)
		if err != nil {
			return
		}
		enc, _, err := appendWalRound(nil, first)
		if err != nil {
			t.Fatalf("a decoded entry does not encode: %v", err)
		}
		second, err := decode(enc)
		if err != nil {
			t.Fatalf("history form %s does not decode: %v", enc, err)
		}
		first.Bidders, first.Draws = nil, 0
		if !reflect.DeepEqual(second, first) {
			t.Fatalf("decode → encode → decode changed the round:\n got %+v\nwant %+v", second, first)
		}
		if again, _, _ := appendWalRound(nil, second); !bytes.Equal(again, enc) {
			t.Fatalf("history form is not a fixed point:\n%s\n%s", enc, again)
		}
		if written[string(entry)] && !bytes.Equal(enc, entry) {
			t.Fatalf("a written entry came back changed:\n got %s\nwant %s", enc, entry)
		}
	})
}

// TestAppendWalRoundMatchesEncodingJSON is the seeded property test: random
// records in the shape real rounds have (and real failed rounds), floats
// drawn across the whole exponent range.
func TestAppendWalRoundMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	float := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN/Inf included
		case 2:
			return math.Pow(10, float64(rng.Intn(60)-30)) * (rng.Float64() - 0.5)
		default:
			return rng.Float64()
		}
	}
	floats := func(n int) []float64 {
		if n < 0 {
			return nil
		}
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = float()
		}
		return fs
	}
	strs := []string{"", "churn-17", "snap-job-0", `a"b\c`, "<script>&", "tab\there", "\u2028", "\xff", "日本"}
	for i := 0; i < 2000; i++ {
		r := &walRound{
			Job:       strs[rng.Intn(len(strs))],
			Round:     rng.Intn(1 << 20),
			NumBids:   rng.Intn(128),
			Draws:     rng.Int63n(1 << 40),
			LatencyNS: rng.Int63n(1 << 30),
			Scores:    floats(rng.Intn(66) - 1),
			Profit:    float(),
		}
		for n := rng.Intn(4) * 16; n > 0; n-- {
			r.Bidders = append(r.Bidders, rng.Intn(1<<16))
		}
		if rng.Intn(10) == 0 {
			r.Err = "exchange: job x round 3: " + strs[rng.Intn(len(strs))]
		}
		if rng.Intn(5) != 0 {
			r.Winners = make([]walWinner, rng.Intn(9))
			for k := range r.Winners {
				r.Winners[k] = walWinner{
					NodeID:     rng.Intn(1 << 16),
					Qualities:  floats(rng.Intn(5) - 1),
					BidPayment: float(),
					Score:      float(),
					Payment:    float(),
				}
			}
		}
		checkRoundEncoding(t, r)
	}
}

// TestDecodeRecordAcceptsForeignRoundSpelling: a round record that is valid
// JSON but not in the writers' exact framing still replays, as it always
// did, and gets canonical bytes to keep. And historyForm leaves alone what
// it does not recognize.
func TestDecodeRecordAcceptsForeignRoundSpelling(t *testing.T) {
	r := &walRound{Job: "j", Round: 2, NumBids: 1, Bidders: []int{7}, Draws: 4, Scores: []float64{0.5}, Winners: []walWinner{}}
	history, _, err := appendWalRound(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	record, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{
		`{ "k":"round", "round": ` + string(record) + ` }`,
		`{"round":` + string(record) + `,"k":"round"}`,
	} {
		rec, err := decodeRecord([]byte(payload))
		if err != nil {
			t.Fatalf("%s: %v", payload, err)
		}
		if rec.Kind != recRound || !reflect.DeepEqual(rec.Round, r) || !bytes.Equal(rec.roundRaw, history) {
			t.Errorf("%s decoded to %+v with raw %s", payload, rec.Round, rec.roundRaw)
		}
	}
	if rec, err := decodeRecord([]byte(`{"k":"round","round":null}`)); err != nil || rec.Round != nil {
		t.Errorf("null round = (%+v, %v), want the generic decode's nil payload", rec.Round, err)
	}
	for _, tc := range [][2]string{
		{`{"draws":3,"job":"j"}`, `{"draws":3,"job":"j"}`},                                               // no member before it: left alone
		{`{"job":"j","bidders":[1],"lat":2,"draws":3}`, `{"job":"j","bidders":[1],"lat":2,"draws":0}`},   // bidders not adjacent: kept
		{`{"job":"a,\"draws\":9","r":1,"nb":0,"lat":2}`, `{"job":"a,\"draws\":9","r":1,"nb":0,"lat":2}`}, // the key's text inside a string
		{`{"job":"j","r":1,"nb":2,"bidders":[4,-5],"draws":-7,"lat":2}`, `{"job":"j","r":1,"nb":2,"draws":0,"lat":2}`},
	} {
		if got := string(historyForm([]byte(tc[0]))); got != tc[1] {
			t.Errorf("historyForm(%s) = %s, want %s", tc[0], got, tc[1])
		}
	}
}

// churnWalRound is a round_churn_durable round's record: 64 scores and K=8
// two-dimensional winners.
func churnWalRound() *walRound {
	rng := rand.New(rand.NewSource(24))
	unit := func() float64 { return unitQuality(rng) }
	r := &walRound{Job: "churn-17", Round: 4211, NumBids: 64, LatencyNS: 20417, Scores: make([]float64, 64), Winners: make([]walWinner, 8)}
	for i := range r.Scores {
		r.Scores[i] = churnScore(rng)
	}
	for i := range r.Winners {
		r.Winners[i] = walWinner{NodeID: i * 7, Qualities: []float64{unit(), unit()}, BidPayment: 0.3 * unit(), Score: r.Scores[i], Payment: 0.3 * unit()}
		r.Profit += r.Winners[i].Score
	}
	return r
}

// churnOutcome is the same shape of round as the /v1 body spells it.
func churnOutcome() *RoundOutcome {
	rng := rand.New(rand.NewSource(24))
	unit := func() float64 { return unitQuality(rng) }
	ro := &RoundOutcome{JobID: "edge-3", Round: 4211, NumBids: 64, Latency: 20417}
	out := &ro.Outcome
	out.Scores = make([]float64, 64)
	for i := range out.Scores {
		out.Scores[i] = churnScore(rng)
	}
	out.Winners = make([]auction.Winner, 8)
	for i := range out.Winners {
		out.Winners[i] = auction.Winner{
			Bid:     auction.Bid{NodeID: i * 7, Qualities: []float64{unit(), unit()}, Payment: 0.3 * unit()},
			Score:   out.Scores[i],
			Payment: 0.3 * unit(),
		}
		out.AggregatorProfit += out.Winners[i].Score
	}
	return ro
}

// TestRoundEncodersAllocateNothing: a round's record and its /v1 body,
// each encoded into a recycled buffer, allocate nothing.
func TestRoundEncodersAllocateNothing(t *testing.T) {
	r, ro := churnWalRound(), churnOutcome()
	rec, _, err := appendWalRound(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	body, err := appendOutcome(nil, ro)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { rec, _, _ = appendWalRound(rec[:0], r) }); n != 0 {
		t.Errorf("appendWalRound into a recycled buffer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { body, _ = appendOutcome(body[:0], ro) }); n != 0 {
		t.Errorf("appendOutcome into a recycled buffer: %v allocs, want 0", n)
	}
}

// BenchmarkAppendWalRound prices the one encode of a round_churn_durable
// round: 64 scores and K=8 two-dimensional winners into a recycled buffer
// (0 allocs/op, TestRoundEncodersAllocateNothing).
func BenchmarkAppendWalRound(b *testing.B) {
	r := churnWalRound()
	buf, _, err := appendWalRound(nil, r)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, _ = appendWalRound(buf[:0], r)
	}
}

// outcomeView renders a round as the api.Outcome value the /v1 bodies
// spell; json.Marshal over it is appendOutcome's oracle. Failed rounds carry
// their error string and no winner fields.
func outcomeView(ro RoundOutcome) api.Outcome {
	resp := api.Outcome{
		Job:       ro.JobID,
		Round:     ro.Round,
		NumBids:   ro.NumBids,
		LatencyMS: float64(ro.Latency) / float64(time.Millisecond),
	}
	if ro.Err != nil {
		resp.Error = ro.Err.Error()
		return resp
	}
	winners := make([]api.Winner, len(ro.Outcome.Winners))
	for i, win := range ro.Outcome.Winners {
		winners[i] = api.Winner{
			NodeID:     win.Bid.NodeID,
			Score:      win.Score,
			Payment:    win.Payment,
			BidPayment: win.Bid.Payment,
			Qualities:  win.Bid.Qualities,
		}
	}
	resp.Winners = winners
	resp.TotalPayment = ro.Outcome.TotalPayment()
	resp.AggregatorProfit = ro.Outcome.AggregatorProfit
	resp.Scores = ro.Outcome.Scores
	return resp
}

// checkOutcomeEncoding asserts appendOutcome's contract on one round: it
// appends to dst exactly what json.Marshal writes for outcomeView, or
// refuses the round with the same error.
func checkOutcomeEncoding(t *testing.T, ro *RoundOutcome) {
	t.Helper()
	want, wantErr := json.Marshal(outcomeView(*ro))
	const prefix = "data: "
	got, err := appendOutcome([]byte(prefix), ro)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("encode error = %v, encoding/json refuses with %v", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("encode error %v, encoding/json accepts: %s", err, want)
	}
	if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("body differs from encoding/json's:\n got: %s\nwant: %s%s", got, prefix, want)
	}
}

// roundFromFuzz builds a round from fuzzer-controlled primitives, data
// consumed as raw float64 bit patterns as in walRoundFromFuzz. shape bit 0
// fails the round (over an outcome that must not show), bit 1 makes the
// winner list non-nil with shape>>4&3 winners, bit 2 gives them non-nil
// qualities, bit 3 makes the scores non-nil.
func roundFromFuzz(job, errStr string, round, numBids int, lat int64, shape uint8, data []byte) *RoundOutcome {
	next := func() float64 {
		if len(data) < 8 {
			return 0
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return f
	}
	ro := &RoundOutcome{JobID: job, Round: round, NumBids: numBids, Latency: time.Duration(lat)}
	if shape&1 != 0 {
		ro.Err = errors.New(errStr)
	}
	out := &ro.Outcome
	if shape&2 != 0 {
		out.Winners = make([]auction.Winner, int(shape>>4)&3)
		for i := range out.Winners {
			w := auction.Winner{Bid: auction.Bid{NodeID: numBids - i, Payment: next()}, Score: next(), Payment: next()}
			if shape&4 != 0 {
				w.Bid.Qualities = make([]float64, i)
				for k := range w.Bid.Qualities {
					w.Bid.Qualities[k] = next()
				}
			}
			out.Winners[i] = w
		}
	}
	out.AggregatorProfit = next()
	if shape&8 != 0 {
		out.Scores = []float64{}
		for len(data) >= 8 {
			out.Scores = append(out.Scores, next())
		}
	}
	return ro
}

// FuzzAppendOutcome holds the /v1 round body to encoding/json on arbitrary
// rounds: the close answer, the outcome reads and pages and the
// round_closed frames are appendOutcome's, and clients read the same bytes
// only while the two agree. The seeds: failed rounds (error text that needs escaping, and an
// empty one, which the body omits), nil and empty winner lists, nil scores
// and qualities, job IDs that need HTML, U+2028 or invalid-UTF-8 escaping,
// negative zero, subnormals and both sides of the 1e-6 and 1e21 notation
// switches; NaN and ±Inf must be refused identically.
func FuzzAppendOutcome(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("job-1", "", 7, 64, int64(125000), uint8(0x2e), floatBits(0.25, 0.5, 0.125, 0.75, 1, 2, 3, 0.5))
	f.Add("job", "", 1, 0, int64(0), uint8(0), []byte(nil))         // nil winners and scores: "winners":[], "scores":null
	f.Add("", "", 0, 0, int64(0), uint8(0x0a), []byte(nil))         // empty, non-nil slices
	f.Add("q", "", 2, 3, int64(1), uint8(0x32), floatBits(1, 2, 3)) // three winners, nil qualities
	f.Add("z", "", 1, 3, int64(999), uint8(0x3e), floatBits(negZero, 5e-324, math.SmallestNonzeroFloat64*3, 1e-7, 1e-6, 9.999999e-7, 1e21, 9.99999999e20, math.MaxFloat64, -math.MaxFloat64, 1e-9, 123456789.125))
	f.Add("j", `exchange: job j round 3: <bad> & "quoted" \ slash`+"\n\t\b\f\x00\x1f\x7f", 3, 2, int64(2), uint8(0x3f), floatBits(1, 2))
	f.Add("j", "", 4, 2, int64(2), uint8(1), []byte(nil)) // failed, empty error text
	f.Add("<a>&b\u2028\u2029é世界", "bad utf8 \xff\xc0\xaf tail \xe2\x80", 1, 1, int64(1), uint8(3), []byte(nil))
	f.Add("inv\xffalid", "", 1, 1, int64(1), uint8(2), []byte(nil))
	f.Add("lat", "", 1, 1, int64(math.MaxInt64), uint8(0), floatBits(1e-6))
	f.Add("lat", "", 1, 1, int64(-1), uint8(0), floatBits(-1e21))
	f.Add("nan", "", 1, 1, int64(1), uint8(8), floatBits(0, math.NaN()))
	f.Add("inf", "", 1, 1, int64(1), uint8(0x1e), floatBits(1, math.Inf(1), math.Inf(-1)))
	f.Add("sum", "", 1, 2, int64(1), uint8(0x22), floatBits(0, 0, math.MaxFloat64, 0, 0, math.MaxFloat64)) // total_payment overflows to +Inf
	f.Add("neg", "", -1, -5, int64(math.MinInt64), uint8(1), []byte(nil))
	f.Fuzz(func(t *testing.T, job, errStr string, round, numBids int, lat int64, shape uint8, data []byte) {
		checkOutcomeEncoding(t, roundFromFuzz(job, errStr, round, numBids, lat, shape, data))
	})
}

// TestAppendOutcomeMatchesEncodingJSON is the seeded property test over the
// fuzz target's space: rounds in the shape real ones have, failed rounds,
// nil and empty lists, floats across the whole exponent range.
func TestAppendOutcomeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	float := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN/Inf included
		case 2:
			return math.Pow(10, float64(rng.Intn(60)-30)) * (rng.Float64() - 0.5)
		default:
			return rng.Float64()
		}
	}
	floats := func(n int) []float64 {
		if n < 0 {
			return nil
		}
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = float()
		}
		return fs
	}
	strs := []string{"", "edge-3", "viaproxy-17", `a"b\c`, "<script>&", "tab\there", "\u2028", "\xff", "日本"}
	for i := 0; i < 2000; i++ {
		ro := &RoundOutcome{
			JobID:   strs[rng.Intn(len(strs))],
			Round:   rng.Intn(1 << 20),
			NumBids: rng.Intn(128),
			Latency: time.Duration(rng.Int63n(1 << 30)),
		}
		out := &ro.Outcome
		out.Scores = floats(rng.Intn(66) - 1)
		out.AggregatorProfit = float()
		if rng.Intn(5) != 0 {
			out.Winners = make([]auction.Winner, rng.Intn(9))
			for k := range out.Winners {
				out.Winners[k] = auction.Winner{
					Bid:     auction.Bid{NodeID: rng.Intn(1 << 16), Qualities: floats(rng.Intn(5) - 1), Payment: float()},
					Score:   float(),
					Payment: float(),
				}
			}
		}
		if rng.Intn(10) == 0 {
			ro.Err = errors.New("exchange: job x round 3: " + strs[rng.Intn(len(strs))])
		}
		checkOutcomeEncoding(t, ro)
	}
}

// BenchmarkAppendOutcome prices one /v1 round body — a 64-bid, K=8 round
// with two-dimensional winners — into a reused buffer (0 allocs/op,
// TestRoundEncodersAllocateNothing).
func BenchmarkAppendOutcome(b *testing.B) {
	ro := churnOutcome()
	buf, err := appendOutcome(nil, ro)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = appendOutcome(buf[:0], ro)
	}
}

// BenchmarkOutcomePage prices GET /v1/jobs/{id}/outcomes over 16 retained
// 64-bid, K=8 rounds through the handler on a recorder.
func BenchmarkOutcomePage(b *testing.B) {
	ex := New(Options{})
	defer ex.Close()
	const rounds = 16
	if _, err := ex.CreateJob(JobSpec{ID: "page", Auction: auction.Config{Rule: testRule(b, 0), K: 8}, Seed: 1, KeepOutcomes: rounds}); err != nil {
		b.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		for _, bid := range testBids(0, r, 64) {
			if _, err := ex.SubmitBid("page", bid); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := ex.CloseRound("page"); err != nil {
			b.Fatal(err)
		}
	}
	h := NewHandler(ex)
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/page/outcomes?limit=16", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("page answered %d: %s", rec.Code, rec.Body)
		}
	}
}
