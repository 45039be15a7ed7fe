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
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"fmore/internal/auction"
	"fmore/internal/wal"
	"fmore/pkg/api"
)

// parentWinner and parentRound are walWinner and walRound as they were
// before the bit spelling, every float a JSON number: json.Marshal over
// them writes the decimal spelling of the logs and snapshots written
// before, and refuses a NaN or ±Inf with the error text the log still
// fails with. parentRecord frames a round record the same way.
type parentWinner struct {
	NodeID     int       `json:"n"`
	Qualities  []float64 `json:"q"`
	BidPayment float64   `json:"bp"`
	Score      float64   `json:"s"`
	Payment    float64   `json:"p"`
}

type parentRound struct {
	Job       string         `json:"job"`
	Round     int            `json:"r"`
	NumBids   int            `json:"nb"`
	Bidders   []int          `json:"bidders,omitempty"`
	Draws     int64          `json:"draws"`
	LatencyNS int64          `json:"lat"`
	Err       string         `json:"err,omitempty"`
	Winners   []parentWinner `json:"w"`
	Scores    []float64      `json:"sc"`
	Profit    float64        `json:"profit"`
}

type parentRecord struct {
	Kind  string       `json:"k"`
	Round *parentRound `json:"round,omitempty"`
}

// parentForm is the round record the code before the bit spelling built
// for ro: a failed round keeps its header and error text, and nothing of
// its outcome.
func parentForm(ro *RoundOutcome, bidders []int, draws int64) *parentRound {
	r := &parentRound{Job: ro.JobID, Round: ro.Round, NumBids: ro.NumBids, Bidders: bidders, Draws: draws, LatencyNS: int64(ro.Latency)}
	if ro.Err != nil {
		r.Err = ro.Err.Error()
		return r
	}
	r.Scores, r.Profit = ro.Outcome.Scores, ro.Outcome.AggregatorProfit
	if ro.Outcome.Winners != nil {
		r.Winners = make([]parentWinner, len(ro.Outcome.Winners))
		for i, w := range ro.Outcome.Winners {
			r.Winners[i] = parentWinner{NodeID: w.Bid.NodeID, Qualities: w.Bid.Qualities, BidPayment: w.Bid.Payment, Score: w.Score, Payment: w.Payment}
		}
	}
	return r
}

// bitsWinner and bitsRound are the same records with every float64 as
// the []byte of its little-endian bits, and every []float64 as the []byte
// of its floats' bits back to back: json.Marshal over them is the oracle
// of appendWalRound's output.
type bitsWinner struct {
	NodeID     int    `json:"n"`
	Qualities  []byte `json:"q"`
	BidPayment []byte `json:"bp"`
	Score      []byte `json:"s"`
	Payment    []byte `json:"p"`
}

type bitsRound struct {
	Job       string       `json:"job"`
	Round     int          `json:"r"`
	NumBids   int          `json:"nb"`
	Bidders   []int        `json:"bidders,omitempty"`
	Draws     int64        `json:"draws"`
	LatencyNS int64        `json:"lat"`
	Err       string       `json:"err,omitempty"`
	Winners   []bitsWinner `json:"w"`
	Scores    []byte       `json:"sc"`
	Profit    []byte       `json:"profit"`
}

// bitsForm respells a parent record's floats as bits.
func bitsForm(r *parentRound) *bitsRound {
	le := func(f float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)) }
	list := func(fs []float64) []byte {
		if fs == nil {
			return nil
		}
		out := []byte{}
		for _, f := range fs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
		}
		return out
	}
	b := &bitsRound{Job: r.Job, Round: r.Round, NumBids: r.NumBids, Bidders: r.Bidders, Draws: r.Draws, LatencyNS: r.LatencyNS, Err: r.Err, Scores: list(r.Scores), Profit: le(r.Profit)}
	if r.Winners != nil {
		b.Winners = make([]bitsWinner, len(r.Winners))
		for i, w := range r.Winners {
			b.Winners[i] = bitsWinner{NodeID: w.NodeID, Qualities: list(w.Qualities), BidPayment: le(w.BidPayment), Score: le(w.Score), Payment: le(w.Payment)}
		}
	}
	return b
}

// walPayload is the round record of ro as the close frames it.
func walPayload(ro *RoundOutcome, bidders []int, draws int64) ([]byte, error) {
	b, err := appendWalRound([]byte(walRoundPrefix), ro, bidders, draws)
	return append(b, walRoundSuffix...), err
}

// checkRoundEncoding asserts the round encoder's contract on one round:
// the record form, framed, and the history form are what json.Marshal
// writes for the bit-spelled record, byte for byte; a round the decimal
// record of which json.Marshal refuses is refused with the same error.
func checkRoundEncoding(t *testing.T, ro *RoundOutcome, bidders []int, draws int64) {
	t.Helper()
	parent := parentForm(ro, bidders, draws)
	_, wantErr := json.Marshal(parentRecord{Kind: recRound, Round: parent})
	payload, err := walPayload(ro, bidders, draws)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("encode error = %v, encoding/json refuses the decimal record with %v", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("encode error %v, encoding/json accepts the decimal record", err)
	}
	want, err := json.Marshal(struct {
		Kind  string     `json:"k"`
		Round *bitsRound `json:"round"`
	}{recRound, bitsForm(parent)})
	if err != nil || !bytes.Equal(payload, want) {
		t.Fatalf("record differs from encoding/json's (%v):\n got: %s\nwant: %s", err, payload, want)
	}
	history, _ := appendWalRound(nil, ro, nil, 0)
	if want, err := json.Marshal(bitsForm(parentForm(ro, nil, 0))); err != nil || !bytes.Equal(history, want) {
		t.Fatalf("history form differs from encoding/json's (%v):\n got: %s\nwant: %s", err, history, want)
	}
}

// walRoundFromFuzz builds a round, its bidders and its draw count from
// fuzzer-controlled primitives. data is consumed eight bytes at a time as
// raw float64 bit patterns, so NaNs, infinities, subnormals and negative
// zero are all reachable; shape picks nil versus empty versus filled
// slices. A non-empty errStr fails the round over an outcome that must not
// show.
func walRoundFromFuzz(job, errStr string, round, numBids int, draws, lat int64, shape uint8, data []byte) (*RoundOutcome, []int) {
	next := func() float64 {
		if len(data) < 8 {
			return 0
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return f
	}
	ro := &RoundOutcome{JobID: job, Round: round, NumBids: numBids, Latency: time.Duration(lat)}
	if errStr != "" {
		ro.Err = errors.New(errStr)
	}
	var bidders []int
	if shape&1 != 0 {
		bidders = []int{numBids, -round, int(draws)}
	}
	out := &ro.Outcome
	if shape&2 != 0 {
		out.Winners = make([]auction.Winner, int(shape>>4)&3)
		for i := range out.Winners {
			w := auction.Winner{Bid: auction.Bid{NodeID: int(lat) + i, Payment: next()}, Score: next(), Payment: next()}
			if shape&4 != 0 {
				w.Bid.Qualities = make([]float64, i)
				for k := range w.Bid.Qualities {
					w.Bid.Qualities[k] = next()
				}
			}
			out.Winners[i] = w
		}
	}
	if shape&8 != 0 {
		out.Scores = []float64{}
		for len(data) >= 8 {
			out.Scores = append(out.Scores, next())
		}
	}
	out.AggregatorProfit = next()
	return ro, bidders
}

func floatBits(fs ...float64) []byte {
	b := make([]byte, 0, 8*len(fs))
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// FuzzAppendWalRound holds the hand-written round encoder to encoding/json
// on arbitrary rounds: the log and the snapshots stay readable only while
// the two write the same bytes. The seeds: negative zero, subnormals,
// MaxFloat64, nil versus empty slices, failed rounds, and strings that
// need HTML, control, U+2028 or invalid-UTF-8 escaping; NaN and ±Inf must
// be refused as encoding/json refuses them in the decimal record. The
// bytes it guards are on disk, so CI fuzzes it twice as long as the rest.
//
//ci:fuzztime 20s
func FuzzAppendWalRound(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("job-1", "", 7, 64, int64(3), int64(125000), uint8(0x2f), floatBits(0.25, 0.5, 0.125, 0.75, 1, 2, 3))
	f.Add("job", "", 1, 0, int64(0), int64(0), uint8(0), []byte(nil)) // ψ zero-eligible: "w":null, "sc":null
	f.Add("", "", 0, 0, int64(0), int64(0), uint8(0x0a), []byte(nil)) // empty, non-nil slices
	f.Add("z", "", 1, 3, int64(9), int64(1), uint8(0x3f), floatBits(negZero, 5e-324, math.SmallestNonzeroFloat64*3, 1e-7, 1e-6, 9.999999e-7, 1e21, 9.99999999e20, math.MaxFloat64, -math.MaxFloat64, 1e-9, 123456789.125))
	f.Add("j", `round 3: <bad> & "quoted" \ slash`+"\n\t\b\f\x00\x1f\x7f", 3, 2, int64(1), int64(2), uint8(0x2e), floatBits(1, 2, 3, 4))
	f.Add("sep\u2028\u2029é世界", "bad utf8 \xff\xc0\xaf tail \xe2\x80", 1, 1, int64(1), int64(1), uint8(2), []byte(nil))
	f.Add("nan", "", 1, 1, int64(1), int64(1), uint8(8), floatBits(math.NaN()))
	f.Add("inf", "", 1, 1, int64(1), int64(1), uint8(0x1e), floatBits(1, math.Inf(1), math.Inf(-1)))
	f.Add("neg", "", -1, -5, int64(math.MinInt64), int64(math.MaxInt64), uint8(1), []byte(nil))
	f.Fuzz(func(t *testing.T, job, errStr string, round, numBids int, draws, lat int64, shape uint8, data []byte) {
		ro, bidders := walRoundFromFuzz(job, errStr, round, numBids, draws, lat, shape, data)
		checkRoundEncoding(t, ro, bidders, draws)
	})
}

// replayed decodes a round record as replay does and returns the round it
// restores, re-encoded in record form: two records restore the same round,
// bit for bit, exactly when these bytes are equal.
func replayed(t testing.TB, payload []byte, jobID string) []byte {
	t.Helper()
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Round == nil {
		t.Fatalf("%s does not decode: %v", payload, err)
	}
	ro := rec.Round.outcome(jobID)
	b, err := walPayload(&ro, rec.Round.Bidders, rec.Round.Draws)
	if err != nil {
		t.Fatalf("round decoded from %s does not encode: %v", payload, err)
	}
	return b
}

// checkSpellingsAgree holds one decimal round record to its bit spelling:
// both restore the same round, and the code before the bit spelling
// refuses the bit spelling with a type error instead of misreading it.
func checkSpellingsAgree(t testing.TB, decimal []byte, jobID string) {
	t.Helper()
	restored := replayed(t, decimal, jobID)
	bits := replayed(t, restored, jobID)
	if !bytes.Equal(bits, restored) {
		t.Fatalf("the decimal spelling restores\n%s\nand its bit spelling\n%s", restored, bits)
	}
	var old parentRecord
	var typeErr *json.UnmarshalTypeError
	if err := json.Unmarshal(bits, &old); !errors.As(err, &typeErr) {
		t.Fatalf("the parent's types read the bit spelling %s with error %v, want a type error", bits, err)
	}
}

// FuzzRoundSpellings holds the two spellings of a round record to each
// other on rounds of finite values (a non-finite bit pattern in data has
// its top exponent bit cleared): the decimal one, json.Marshal of the
// parent's types, and the bit one restore the same round, bit for bit, and
// the parent's types refuse the bit one. The seeds add every round record
// and snapshot history entry of testdata/parent-pr12, written by the code
// before the bit spelling.
func FuzzRoundSpellings(f *testing.F) {
	dir := filepath.Join("testdata", "parent-pr12", "data")
	decimals := parentRoundRecords(f, dir)
	if len(decimals) < 16 {
		f.Fatalf("%d round records in %s", len(decimals), dir)
	}
	for _, d := range decimals {
		checkSpellingsAgree(f, d.payload, d.job)
	}
	f.Add("job-1", "", 7, 64, int64(3), int64(125000), uint8(0x2f), floatBits(0.25, 0.5, 0.125, 0.75, 1, 2, 3))
	f.Add("z", "", 1, 3, int64(9), int64(1), uint8(0x3f), floatBits(math.Copysign(0, -1), 5e-324, 1e-7, 1e21, math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(-1)))
	f.Add("j", "auction: <no> bid", 3, 2, int64(1), int64(2), uint8(0x2e), floatBits(1, 2, 3, 4))
	f.Add("psi", "", 1, 0, int64(0), int64(0), uint8(0), []byte(nil))
	f.Fuzz(func(t *testing.T, job, errStr string, round, numBids int, draws, lat int64, shape uint8, data []byte) {
		data = bytes.Clone(data)
		for i := 0; i+8 <= len(data); i += 8 {
			if u := binary.LittleEndian.Uint64(data[i:]); u>>52&0x7FF == 0x7FF {
				binary.LittleEndian.PutUint64(data[i:], u&^(1<<62))
			}
		}
		ro, bidders := walRoundFromFuzz(job, errStr, round, numBids, draws, lat, shape, data)
		decimal, err := json.Marshal(parentRecord{Kind: recRound, Round: parentForm(ro, bidders, draws)})
		if err != nil {
			t.Fatalf("a finite round's decimal record: %v", err)
		}
		checkSpellingsAgree(t, decimal, job)
		// Decoding replaces invalid UTF-8 in the error text, so only a valid
		// one comes back as the round's own bytes.
		if bits, _ := walPayload(ro, bidders, draws); utf8.ValidString(errStr) && !bytes.Equal(replayed(t, decimal, job), bits) {
			t.Fatalf("the decimal spelling %s restores another round than %s", decimal, bits)
		}
	})
}

// decimalRecord is one round as the code before the bit spelling wrote it.
type decimalRecord struct {
	job     string
	payload []byte // a round record; a history entry is framed as one
	entry   bool   // a snapshot history entry
}

// parentRoundRecords reads every round record and snapshot history entry
// of a data dir.
func parentRoundRecords(t testing.TB, dir string) []decimalRecord {
	t.Helper()
	tmp := t.TempDir()
	if err := os.CopyFS(tmp, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	log, rec, err := wal.Open(tmp, wal.Options{SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close() //nolint:errcheck // only read
	var out []decimalRecord
	for _, seg := range rec.Segments {
		for _, payload := range seg.Records {
			var wr walRecord
			if err := json.Unmarshal(payload, &wr); err != nil {
				t.Fatal(err)
			}
			if wr.Kind == recRound {
				out = append(out, decimalRecord{wr.Round.Job, payload, false})
			}
		}
	}
	var snap struct {
		Jobs []struct {
			History []json.RawMessage `json:"history"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
		t.Fatal(err)
	}
	for _, j := range snap.Jobs {
		for _, entry := range j.History {
			var r walRound
			if err := json.Unmarshal(entry, &r); err != nil {
				t.Fatal(err)
			}
			out = append(out, decimalRecord{r.Job, []byte(walRoundPrefix + string(entry) + walRoundSuffix), true})
		}
	}
	return out
}

// FuzzDecodeHistories feeds arbitrary bytes to replay as one history entry
// of a snapshot. Replay must refuse or decode them without a panic, and
// what it restores is a fixed point of the history form: appendWalRound
// writes it in bytes that restore the same round. Entries this code wrote
// come back byte-identical; the parent-pr12 fixture's decimal entries come
// back in the bit spelling.
func FuzzDecodeHistories(f *testing.F) {
	written := map[string]bool{}
	for _, d := range parentRoundRecords(f, filepath.Join("testdata", "parent-pr12", "data")) {
		if d.entry {
			written[strings.TrimSuffix(strings.TrimPrefix(string(d.payload), walRoundPrefix), walRoundSuffix)] = false
		}
	}
	failed := &RoundOutcome{JobID: "job-2", Round: 9, NumBids: 3, Latency: 77, Err: errors.New(`auction: no "valid" bid`)}
	for _, ro := range []*RoundOutcome{churnOutcome(), failed, {JobID: "psi", Round: 1}} {
		b, err := appendWalRound(nil, ro, nil, 0)
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
	f.Add([]byte(`{"job":"x","r":1,"nb":2,"bidders":[4,5],"draws":7,"lat":1,"w":[null,{"q":[]}],"sc":[-0,"AAAAAAAA8D8="]}`))
	f.Add([]byte(`{"JOB":"\ud800","r":1,"job":"y","sc":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"r":1e3}`))
	// restore is the history form of the round replay restores from entry.
	restore := func(t *testing.T, entry []byte) ([]byte, error) {
		var r walRound
		if err := json.Unmarshal(entry, &r); err != nil {
			return nil, err
		}
		ro := r.outcome(r.Job)
		enc, err := appendWalRound(nil, &ro, nil, 0)
		if err != nil {
			t.Fatalf("a decoded entry does not encode: %v", err)
		}
		return enc, nil
	}
	f.Fuzz(func(t *testing.T, entry []byte) {
		enc, err := restore(t, entry)
		if err != nil {
			return
		}
		again, err := restore(t, enc)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("history form is not a fixed point (%v):\n%s\n%s", err, enc, again)
		}
		if written[string(entry)] && !bytes.Equal(enc, entry) {
			t.Fatalf("a written entry came back changed:\n got %s\nwant %s", enc, entry)
		}
	})
}

// TestAppendWalRoundMatchesEncodingJSON is the seeded property test: random
// rounds in the shape real ones have (and real failed rounds), floats
// drawn across the whole exponent range, NaN and ±Inf included.
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
		ro := &RoundOutcome{
			JobID:   strs[rng.Intn(len(strs))],
			Round:   rng.Intn(1 << 20),
			NumBids: rng.Intn(128),
			Latency: time.Duration(rng.Int63n(1 << 30)),
		}
		draws := rng.Int63n(1 << 40)
		var bidders []int
		for n := rng.Intn(4) * 16; n > 0; n-- {
			bidders = append(bidders, rng.Intn(1<<16))
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
		checkRoundEncoding(t, ro, bidders, draws)
	}
}

// TestDecodeRecordAcceptsForeignRoundSpelling: a round record that is
// valid JSON but not in the writer's exact framing still replays — members
// reordered, whitespace, and floats in either spelling, mixed within one
// record — to the round its writer's own bytes restore.
func TestDecodeRecordAcceptsForeignRoundSpelling(t *testing.T) {
	ro := &RoundOutcome{JobID: "j", Round: 2, NumBids: 1, Outcome: auction.Outcome{
		Winners: []auction.Winner{{Bid: auction.Bid{NodeID: 7, Qualities: []float64{0.25, 1e-9}, Payment: 0.5}, Score: 0.75, Payment: 0.5}},
		Scores:  []float64{0.75}, AggregatorProfit: 0.25,
	}}
	canonical, err := walPayload(ro, []int{7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	decimal, err := json.Marshal(parentForm(ro, []int{7}, 4))
	if err != nil {
		t.Fatal(err)
	}
	round := strings.TrimSuffix(strings.TrimPrefix(string(canonical), walRoundPrefix), walRoundSuffix)
	mixed := strings.Replace(round, `"sc":"AAAAAAAA6D8="`, `"sc":[0.75]`, 1)
	if mixed == round {
		t.Fatal("the fixture edit did not apply")
	}
	for _, payload := range []string{
		`{ "k":"round", "round": ` + round + ` }`,
		`{"round":` + string(decimal) + `,"k":"round"}`,
		`{"k":"round","round":` + mixed + `}`,
	} {
		if got := replayed(t, []byte(payload), "j"); !bytes.Equal(got, canonical) {
			t.Errorf("%s restored\n%s\nwant\n%s", payload, got, canonical)
		}
	}
	var rec walRecord
	if err := json.Unmarshal([]byte(`{"k":"round","round":null}`), &rec); err != nil || rec.Round != nil {
		t.Errorf("null round = (%+v, %v), want a nil payload", rec.Round, err)
	}
	for _, spelled := range []string{`"AAAAAAAA+H8="`, `"AAAAAAAA8H8="`, `"AAAAAAAA8D8"`, `"AAAAAAAA8D8=AAAA"`, `"AAAAAAAA8D\u0038="`, `1e400`, `"0.5"`, `""`, `"AAAAAAAA8D8AAAAAAAAAAAA="`} {
		var f walFloat
		if err := json.Unmarshal([]byte(spelled), &f); err == nil {
			t.Errorf("%s decoded to %v, want an error (NaN, +Inf, wrong length, escapes or count, out of range, a decimal in quotes)", spelled, f)
		}
		var fs walFloats
		if err := json.Unmarshal([]byte(`["x",`+spelled+`]`), &fs); err == nil {
			t.Errorf("[%s] decoded to %v, want an error", spelled, fs)
		}
	}
	for spelled, want := range map[string][]float64{`""`: {}, `"AAAAAAAA8D8AAAAAAAAAQA=="`: {1, 2}, `null`: nil, `[0.5,-0]`: {0.5, math.Copysign(0, -1)}} {
		var fs walFloats
		if err := json.Unmarshal([]byte(spelled), &fs); err != nil || (fs == nil) != (want == nil) || !slices.Equal(floatBits(fs...), floatBits(want...)) {
			t.Errorf("%s decoded to %v (%v), want %v", spelled, fs, err, want)
		}
	}
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

// TestRoundEncodersAllocateNothing: a round's record, in record form with
// its bidders, and its /v1 body, each encoded into a recycled buffer,
// allocate nothing; nor does a failed round's record.
func TestRoundEncodersAllocateNothing(t *testing.T) {
	ro := churnOutcome()
	failed := &RoundOutcome{JobID: "j", Round: 3, Err: errors.New("auction: no valid bid")}
	bidders := make([]int, 64)
	for i := range bidders {
		bidders[i] = i * 7
	}
	rec, err := appendWalRound(nil, ro, bidders, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	body, err := appendOutcome(nil, ro)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { rec, _ = appendWalRound(rec[:0], ro, bidders, 1<<20) }); n != 0 {
		t.Errorf("appendWalRound into a recycled buffer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { rec, _ = appendWalRound(rec[:0], failed, nil, 0) }); n != 0 {
		t.Errorf("appendWalRound of a failed round: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { body, _ = appendOutcome(body[:0], ro) }); n != 0 {
		t.Errorf("appendOutcome into a recycled buffer: %v allocs, want 0", n)
	}
}

// BenchmarkAppendWalRound prices the encode of a round_churn_durable
// round: 64 scores and K=8 two-dimensional winners, in history form, into
// a recycled buffer (0 allocs/op, TestRoundEncodersAllocateNothing). The
// round and form are the ones this benchmark priced before the bit
// spelling, so the two read side by side.
func BenchmarkAppendWalRound(b *testing.B) {
	ro := churnOutcome()
	ro.JobID = "churn-17"
	buf, err := appendWalRound(nil, ro, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = appendWalRound(buf[:0], ro, nil, 0)
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
