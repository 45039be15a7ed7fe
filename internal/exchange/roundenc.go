package exchange

import (
	"encoding/json"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"fmore/internal/auction"
)

// A round has two spellings, one encoder each, and neither goes through
// encoding/json's reflection: the log's (appendWalRound, below) is what
// round records and snapshot histories hold, and the /v1 body
// (appendOutcome) is what the close answer, the outcome reads, the outcome
// pages and the round_closed events carry.
//
// The log's spelling is the walRound object with its floats as JSON
// strings: a float64 is the standard base64 of its eight little-endian
// bytes, and a []float64 one such string of its floats' bytes back to
// back, which is what encoding/json writes for those []byte. Replay only
// wants the bits back, so the record carries them exactly, in about twelve
// characters a float whatever the value, and prints no decimal: the record
// no longer goes through appendShortest. Keys, integers, strings, nulls
// and the framing are encoding/json's. The record form, what the log
// holds, carries the replay fields (`"bidders"` when there are any, and
// the job's cumulative `"draws"`) and is framed as {"k":"round","round":…};
// the history form, what a snapshot's history holds, has no bidders and
// draws 0, since replay takes the counters and the draw count from the
// snapshot's own state. A close encodes the record form once, straight
// into the log's frame buffer (Job.logRound); a snapshot encodes the
// history form of each retained outcome while it streams
// (snapCapture.encode).
//
// Contract: appendWalRound writes exactly what json.Marshal writes for the
// round with each float64 and []float64 replaced by the []byte of its
// bits, and it fails
// on exactly the values (NaN, ±Inf) json.Marshal refuses in a float64,
// with the same error text, so the log fails where it always did.
// FuzzAppendWalRound and the seeded property test in roundenc_test.go pin
// it. A field added to walRound or walWinner must be added here in struct
// order. Reading takes both spellings (walFloat, walFloats): the bits, and
// the decimal numbers of every log and snapshot written before them.
//
// The /v1 body has the same kind of contract: appendOutcome writes what
// json.Marshal writes for the api.Outcome a round renders to (the tests'
// outcomeView), byte for byte, and refuses the same values with the same
// error; FuzzAppendOutcome and its seeded property test pin it, and a field
// added to api.Outcome or api.Winner must be added to appendOutcome in
// struct order. Its numbers go through the kernel in shortest.go: floats
// through roundEncoder.float, that is appendShortest, which writes every
// finite float64 as strconv.AppendFloat would in the notation
// encoding/json picks. Integers of both spellings go through appendInt,
// which writes what strconv.AppendInt writes. strconv is their test oracle
// and is called here only for the NaN/±Inf text.
const (
	walRoundPrefix = `{"k":"round","round":`
	walRoundSuffix = `}`
)

// testHookEncodeRound, when set, observes every round encode: tests use it
// to count the encodes of closes and compactions.
var testHookEncodeRound func()

// appendWalRound appends the log spelling of ro to dst without reflection:
// its record form, given the round's bidders and the job's draw count, or
// its history form, given nil and 0. A failed round carries its error
// text and no outcome ("w" and "sc" null, profit zero).
func appendWalRound(dst []byte, ro *RoundOutcome, bidders []int, draws int64) ([]byte, error) {
	if hook := testHookEncodeRound; hook != nil {
		hook()
	}
	e := roundEncoder{b: dst, bits: true}
	e.b = append(e.b, `{"job":`...)
	e.b = appendJSONString(e.b, ro.JobID)
	e.b = append(e.b, `,"r":`...)
	e.b = appendInt(e.b, int64(ro.Round))
	e.b = append(e.b, `,"nb":`...)
	e.b = appendInt(e.b, int64(ro.NumBids))
	for i, id := range bidders {
		if i == 0 {
			e.b = append(e.b, `,"bidders":[`...)
		} else {
			e.b = append(e.b, ',')
		}
		e.b = appendInt(e.b, int64(id))
	}
	if len(bidders) > 0 {
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"draws":`...)
	e.b = appendInt(e.b, draws)
	e.b = append(e.b, `,"lat":`...)
	e.b = appendInt(e.b, int64(ro.Latency))
	out := &ro.Outcome
	if ro.Err != nil {
		if msg := ro.Err.Error(); msg != "" {
			e.b = append(e.b, `,"err":`...)
			e.b = appendJSONString(e.b, msg)
		}
		out = &auction.Outcome{}
	}
	e.b = append(e.b, `,"w":`...)
	if out.Winners == nil {
		e.b = append(e.b, "null"...) // ψ-FMore's zero-eligible outcome
	} else {
		e.b = append(e.b, '[')
		for i := range out.Winners {
			w := &out.Winners[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"n":`...)
			e.b = appendInt(e.b, int64(w.Bid.NodeID))
			e.b = append(e.b, `,"q":`...)
			e.floats(w.Bid.Qualities)
			e.b = append(e.b, `,"bp":`...)
			e.float(w.Bid.Payment)
			e.b = append(e.b, `,"s":`...)
			e.float(w.Score)
			e.b = append(e.b, `,"p":`...)
			e.float(w.Payment)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"sc":`...)
	e.floats(out.Scores)
	e.b = append(e.b, `,"profit":`...)
	e.float(out.AggregatorProfit)
	e.b = append(e.b, '}')
	return e.b, e.err
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

// roundEncoder carries the output, the spelling of its floats and the
// first unsupported float, so the field sequences above read straight
// through.
type roundEncoder struct {
	b    []byte
	bits bool // the log's spelling; the /v1 body's otherwise
	err  error
}

// finite reports whether f is finite. The first NaN or ±Inf becomes the
// encoder's error, the one json.Marshal refuses it with in a float64.
func (e *roundEncoder) finite(f float64) bool {
	if math.Float64bits(f)>>52&0x7FF != 0x7FF {
		return true
	}
	if e.err == nil {
		e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return false
}

// float appends the finite f: appendShortest's decimal, or in the log's
// spelling the JSON string of the base64 of its eight little-endian bytes.
func (e *roundEncoder) float(f float64) {
	switch {
	case !e.finite(f):
	case !e.bits:
		e.b = appendShortest(e.b, f)
	default:
		e.b = append(e.b, '"')
		e.b = appendBase64Floats(e.b, []float64{f})
		e.b = append(e.b, '"')
	}
}

// floats appends a []float64: null when nil, like encoding/json, and
// otherwise a JSON array of decimals or, in the log's spelling, one JSON
// string: the base64 of the floats' little-endian bytes back to back,
// which is what encoding/json writes for that []byte.
func (e *roundEncoder) floats(fs []float64) {
	switch {
	case fs == nil:
		e.b = append(e.b, "null"...)
	case e.bits:
		for _, f := range fs {
			e.finite(f)
		}
		e.b = append(e.b, '"')
		e.b = appendBase64Floats(e.b, fs)
		e.b = append(e.b, '"')
	default:
		e.b = append(e.b, '[')
		for i, f := range fs {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.float(f)
		}
		e.b = append(e.b, ']')
	}
}

// base64Pairs[v] is the two standard base64 digits of the 12-bit v, the
// first in the low byte.
var base64Pairs = func() (t [1 << 12]uint16) {
	const digits = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for v := range t {
		t[v] = uint16(digits[v>>6]) | uint16(digits[v&0x3F])<<8
	}
	return t
}()

// appendBase64Floats appends the standard base64 of the floats'
// little-endian bytes back to back, padding included: what
// base64.StdEncoding writes, a digit pair per table lookup. Read as
// big-endian words, three floats' bytes are the 192-bit stream of 32
// digits, written as four words; one or two floats left over are encoded
// with zero words after them, and their first 11 or 22 digits and the
// padding are the encoding.
func appendBase64Floats(dst []byte, fs []float64) []byte {
	p := func(v uint64) uint64 { return uint64(base64Pairs[v&0xFFF]) }
	for len(fs) > 0 {
		var w [3]uint64
		for i := range min(3, len(fs)) {
			w[i] = bits.ReverseBytes64(math.Float64bits(fs[i]))
		}
		a, b, c := w[0], w[1], w[2]
		n := len(dst)
		dst = slices.Grow(dst, 32)[:n+32]
		d := dst[n : n+32]
		putWord(d[0:], p(a>>52)|p(a>>40)<<16|p(a>>28)<<32|p(a>>16)<<48)
		putWord(d[8:], p(a>>4)|p(a<<8|b>>56)<<16|p(b>>44)<<32|p(b>>32)<<48)
		putWord(d[16:], p(b>>20)|p(b>>8)<<16|p(b<<4|c>>60)<<32|p(c>>48)<<48)
		putWord(d[24:], p(c>>36)|p(c>>24)<<16|p(c>>12)<<32|p(c)<<48)
		switch len(fs) {
		case 1:
			dst = append(dst[:n+11], '=')
		case 2:
			dst = append(dst[:n+22], "=="...)
		}
		fs = fs[min(3, len(fs)):]
	}
	return dst
}

// putWord stores v in b[:8] and word loads it, least significant byte
// first, as encoding/binary's LittleEndian does; the exchange's non-test
// files stay off the byte-level packages (TestImportBoundary).
func putWord(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

func word(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
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
