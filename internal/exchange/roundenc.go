package exchange

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// A round has three spellings, one encoder each, and none of them goes
// through encoding/json's reflection: the record form and the history form
// (appendWalRound, below) are what the log and the snapshots hold, and the
// /v1 body (appendOutcome) is what the close answer, the outcome reads, the
// outcome pages and the round_closed events carry. All three print their
// floats through roundEncoder.float, that is appendShortest.
//
// The log's round is encoded exactly once, when it closes: the same bytes
// are framed into the log, kept beside the retained history entry, and
// later spliced verbatim into snapshots. The /v1 body is encoded per
// response from the retained RoundOutcome.
//
// The two log spellings differ in one span. The history form is
// the walRound object with Bidders omitted and Draws zero: what a snapshot's
// history holds (replay takes bid counters and the draw count from the
// snapshot's own state, not per retained round) and what a history entry
// keeps. Its record form, what the log holds, has the replay fields —
// `,"bidders":[…]` when there are any, and the real `,"draws":N` — where
// the history form has walRoundNoDraws. frameRound makes the substitution
// one way, historyForm the other.
//
// Contract: for every *walRound r, frameRound over appendWalRound's output
// builds the payload json.Marshal builds for walRecord{Kind: recRound,
// Round: r}, byte for byte, and appendWalRound fails
// on exactly the values (NaN, ±Inf) encoding/json refuses, with the same
// error text. That identity is what keeps logs and snapshots written before
// and after this encoder mutually readable; FuzzAppendWalRound and the
// seeded property test in roundenc_test.go pin it. A field added to
// walRound or walWinner must be added here in struct order.
//
// The /v1 body has the same kind of contract: appendOutcome writes what
// json.Marshal writes for the api.Outcome a round renders to (the tests'
// outcomeView), byte for byte, and refuses the same values with the same
// error; FuzzAppendOutcome and its seeded property test pin it, and a field
// added to api.Outcome or api.Winner must be added to appendOutcome in
// struct order.
//
// Numbers are most of a round and go through the kernel in shortest.go:
// floats through roundEncoder.float, that is appendShortest, which writes
// every finite float64 as strconv.AppendFloat would in the notation
// encoding/json picks, and integers through appendInt, which writes what
// strconv.AppendInt writes. strconv is their test oracle and is called here
// only for the NaN/±Inf text.
const (
	walRoundPrefix  = `{"k":"round","round":`
	walRoundSuffix  = `}`
	walRoundNoDraws = `,"draws":0`
)

// testHookEncodeRound, when set, observes every round encode: tests use it
// to prove that recovery and compaction reuse bytes instead of re-encoding.
var testHookEncodeRound func()

// appendWalRound appends r's history form to dst without reflection
// (r.Bidders and r.Draws play no part) and returns the index in out of its
// walRoundNoDraws span.
func appendWalRound(dst []byte, r *walRound) (out []byte, drawsAt int, err error) {
	if hook := testHookEncodeRound; hook != nil {
		hook()
	}
	e := roundEncoder{b: dst}
	e.b = append(e.b, `{"job":`...)
	e.b = appendJSONString(e.b, r.Job)
	e.b = append(e.b, `,"r":`...)
	e.b = appendInt(e.b, int64(r.Round))
	e.b = append(e.b, `,"nb":`...)
	e.b = appendInt(e.b, int64(r.NumBids))
	drawsAt = len(e.b)
	e.b = append(e.b, walRoundNoDraws...)
	e.b = append(e.b, `,"lat":`...)
	e.b = appendInt(e.b, r.LatencyNS)
	if r.Err != "" {
		e.b = append(e.b, `,"err":`...)
		e.b = appendJSONString(e.b, r.Err)
	}
	e.b = append(e.b, `,"w":`...)
	if r.Winners == nil {
		e.b = append(e.b, "null"...) // ψ-FMore's zero-eligible outcome
	} else {
		e.b = append(e.b, '[')
		for i := range r.Winners {
			w := &r.Winners[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"n":`...)
			e.b = appendInt(e.b, int64(w.NodeID))
			e.b = append(e.b, `,"q":`...)
			e.floats(w.Qualities)
			e.b = append(e.b, `,"bp":`...)
			e.float(w.BidPayment)
			e.b = append(e.b, `,"s":`...)
			e.float(w.Score)
			e.b = append(e.b, `,"p":`...)
			e.float(w.Payment)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"sc":`...)
	e.floats(r.Scores)
	e.b = append(e.b, `,"profit":`...)
	e.float(r.Profit)
	e.b = append(e.b, '}')
	return e.b, drawsAt, e.err
}

// appendOutcome appends ro's /v1 body, the api.Outcome spelling of a round,
// without reflection. A failed round carries its error and no winner fields
// (winners and scores null, totals zero); a successful one always has a
// winner list, [] when nobody won.
func appendOutcome(dst []byte, ro *RoundOutcome) ([]byte, error) {
	e := roundEncoder{b: dst}
	e.b = append(e.b, `{"job":`...)
	e.b = appendJSONString(e.b, ro.JobID)
	e.b = append(e.b, `,"round":`...)
	e.b = appendInt(e.b, int64(ro.Round))
	e.b = append(e.b, `,"num_bids":`...)
	e.b = appendInt(e.b, int64(ro.NumBids))
	e.b = append(e.b, `,"latency_ms":`...)
	e.float(float64(ro.Latency) / float64(time.Millisecond))
	if ro.Err != nil {
		e.b = append(e.b, `,"winners":null,"total_payment":0,"aggregator_profit":0,"scores":null`...)
		if msg := ro.Err.Error(); msg != "" {
			e.b = append(e.b, `,"error":`...)
			e.b = appendJSONString(e.b, msg)
		}
		e.b = append(e.b, '}')
		return e.b, e.err
	}
	out := &ro.Outcome
	e.b = append(e.b, `,"winners":[`...)
	for i := range out.Winners {
		w := &out.Winners[i]
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, `{"node_id":`...)
		e.b = appendInt(e.b, int64(w.Bid.NodeID))
		e.b = append(e.b, `,"score":`...)
		e.float(w.Score)
		e.b = append(e.b, `,"payment":`...)
		e.float(w.Payment)
		e.b = append(e.b, `,"bid_payment":`...)
		e.float(w.Bid.Payment)
		e.b = append(e.b, `,"qualities":`...)
		e.floats(w.Bid.Qualities)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, `],"total_payment":`...)
	e.float(out.TotalPayment())
	e.b = append(e.b, `,"aggregator_profit":`...)
	e.float(out.AggregatorProfit)
	e.b = append(e.b, `,"scores":`...)
	e.floats(out.Scores)
	e.b = append(e.b, '}')
	return e.b, e.err
}

// appendReplayFields appends what the record form has in place of
// walRoundNoDraws.
func appendReplayFields(dst []byte, bidders []int, draws int64) []byte {
	if len(bidders) > 0 {
		dst = append(dst, `,"bidders":[`...)
		for i, id := range bidders {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, int64(id))
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"draws":`...)
	return appendInt(dst, draws)
}

// historyForm returns the history form of a round in record form, as read
// from the log, without decoding it: the replay fields are cut out where
// every writer of this log puts them. (Inside a JSON string a quote is
// always escaped, so the first `,"draws":` is the member itself.) A record
// spelled any other way is returned as it is — replay ignores the fields
// in a snapshot's history either way; they only take space there.
func historyForm(record []byte) []byte {
	at := bytes.Index(record, []byte(`,"draws":`))
	if at < 0 {
		return record
	}
	end := at + len(`,"draws":`)
	for end < len(record) && (record[end] == '-' || '0' <= record[end] && record[end] <= '9') {
		end++
	}
	if b := bytes.Index(record[:at], []byte(`,"bidders":[`)); b >= 0 && bytes.IndexByte(record[b:at], ']') == at-b-1 {
		at = b
	}
	out := make([]byte, 0, at+len(walRoundNoDraws)+len(record)-end)
	out = append(out, record[:at]...)
	out = append(out, walRoundNoDraws...)
	return append(out, record[end:]...)
}

// roundEncoder carries the output and the first unsupported float, so the
// field sequence above reads straight through.
type roundEncoder struct {
	b   []byte
	err error
}

// float appends f as encoding/json does — appendShortest's contract — and
// refuses what it refuses: the first NaN or ±Inf becomes the encoder's error.
func (e *roundEncoder) float(f float64) {
	if math.Float64bits(f)>>52&0x7FF == 0x7FF { // NaN or ±Inf
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	e.b = appendShortest(e.b, f)
}

// floats appends a []float64: null when nil, like encoding/json.
func (e *roundEncoder) floats(fs []float64) {
	if fs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, f := range fs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string with encoding/json's default
// (HTML-safe) escaping: control bytes, quote, backslash, <, > and & are
// escaped, invalid UTF-8 becomes U+FFFD, U+2028/U+2029 are escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 { // LINE/PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
