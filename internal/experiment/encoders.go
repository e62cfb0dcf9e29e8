package experiment

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/h2sim"
	"repro/internal/jsonenc"
)

// This file holds the hand-rolled append encoders behind the export
// fast path: byte-for-byte replacements for json.Marshal over the
// campaign line types (SurveyResult for the survey, TrialResult for
// all six fixed sweeps).
// Field order follows struct declaration order — embedded SiteSpec
// fields promote inline first — exactly as encoding/json's reflection
// encoder walks them; the equivalence suite in encoders_test.go pins
// each encoder against json.Marshal under seeded random values, since
// checkpoint offsets and shard concatenation depend on the two paths
// being interchangeable.
//
// DecodeTrialResults is AppendTrialResult's inverse and sits beside
// it so that a field added to one is visibly missing from the other.
// It accepts exactly the bytes the encoder writes and nothing else.

// AppendSurveyResult appends r's JSON object, byte-identical to
// json.Marshal(r). The embedded website.SiteSpec's tagged fields lead
// (promoted inline, declaration order), then SurveyResult's own.
func AppendSurveyResult(dst []byte, r SurveyResult) ([]byte, error) {
	var err error
	dst = append(dst, `{"site":`...)
	dst = jsonenc.AppendInt(dst, int64(r.Index))
	dst = append(dst, `,"seed":`...)
	dst = jsonenc.AppendUint(dst, r.SiteSpec.Seed)
	dst = append(dst, `,"objects":`...)
	dst = jsonenc.AppendInt(dst, int64(r.Objects))
	dst = append(dst, `,"shape":`...)
	dst = jsonenc.AppendString(dst, r.Shape)
	dst = append(dst, `,"target_id":`...)
	dst = jsonenc.AppendInt(dst, int64(r.TargetID))
	dst = append(dst, `,"target_size":`...)
	dst = jsonenc.AppendInt(dst, int64(r.TargetSize))
	dst = append(dst, `,"total_bytes":`...)
	dst = jsonenc.AppendInt(dst, int64(r.TotalBytes))
	dst = append(dst, `,"rep":`...)
	dst = jsonenc.AppendInt(dst, int64(r.Rep))
	dst = append(dst, `,"trial_seed":`...)
	dst = jsonenc.AppendInt(dst, r.TrialSeed)
	dst = append(dst, `,"broken":`...)
	dst = jsonenc.AppendBool(dst, r.Broken)
	dst = append(dst, `,"complete":`...)
	dst = jsonenc.AppendBool(dst, r.PageComplete)
	dst = append(dst, `,"target_clean":`...)
	dst = jsonenc.AppendBool(dst, r.TargetClean)
	dst = append(dst, `,"target_clean_orig":`...)
	dst = jsonenc.AppendBool(dst, r.TargetCleanOrig)
	dst = append(dst, `,"target_identified":`...)
	dst = jsonenc.AppendBool(dst, r.TargetIdentified)
	dst = append(dst, `,"target_degree":`...)
	if dst, err = jsonenc.AppendFloat64(dst, r.TargetDegree); err != nil {
		return dst, err
	}
	dst = append(dst, `,"success":`...)
	dst = jsonenc.AppendBool(dst, r.Success)
	dst = append(dst, `,"inferences":`...)
	dst = jsonenc.AppendInt(dst, int64(r.Inferences))
	dst = append(dst, `,"identified":`...)
	dst = jsonenc.AppendInt(dst, int64(r.Identified))
	dst = append(dst, `,"retransmissions":`...)
	dst = jsonenc.AppendInt(dst, int64(r.Retransmissions))
	dst = append(dst, `,"re_requests":`...)
	dst = jsonenc.AppendInt(dst, int64(r.ReRequests))
	dst = append(dst, `,"resets":`...)
	dst = jsonenc.AppendInt(dst, int64(r.Resets))
	dst = append(dst, `,"load_time_ms":`...)
	if dst, err = jsonenc.AppendFloat64(dst, r.LoadTimeMs); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendRequestLog appends one h2sim.RequestLog object (untagged
// fields, declaration order).
func appendRequestLog(dst []byte, l h2sim.RequestLog) []byte {
	dst = append(dst, `{"Time":`...)
	dst = jsonenc.AppendInt(dst, int64(l.Time))
	dst = append(dst, `,"ObjectID":`...)
	dst = jsonenc.AppendInt(dst, int64(l.ObjectID))
	dst = append(dst, `,"CopyID":`...)
	dst = jsonenc.AppendInt(dst, int64(l.CopyID))
	dst = append(dst, `,"StreamID":`...)
	dst = jsonenc.AppendUint(dst, uint64(l.StreamID))
	dst = append(dst, `,"ReIssue":`...)
	dst = jsonenc.AppendBool(dst, l.ReIssue)
	return append(dst, '}')
}

// AppendTrialResult appends r's JSON object, byte-identical to
// json.Marshal(r): untagged Go field names in declaration order, nil
// Requests encoding as null.
func AppendTrialResult(dst []byte, r TrialResult) ([]byte, error) {
	var err error
	dst = append(dst, `{"Broken":`...)
	dst = jsonenc.AppendBool(dst, r.Broken)
	dst = append(dst, `,"HTMLCleanAny":`...)
	dst = jsonenc.AppendBool(dst, r.HTMLCleanAny)
	dst = append(dst, `,"HTMLCleanOrig":`...)
	dst = jsonenc.AppendBool(dst, r.HTMLCleanOrig)
	dst = append(dst, `,"HTMLIdentified":`...)
	dst = jsonenc.AppendBool(dst, r.HTMLIdentified)
	dst = append(dst, `,"HTMLDegree":`...)
	if dst, err = jsonenc.AppendFloat64(dst, r.HTMLDegree); err != nil {
		return dst, err
	}
	dst = append(dst, `,"TruthOrder":[`...)
	for k, v := range r.TruthOrder {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendInt(dst, int64(v))
	}
	dst = append(dst, `],"PredOrder":[`...)
	for k, v := range r.PredOrder {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendInt(dst, int64(v))
	}
	dst = append(dst, `],"ImageClean":[`...)
	for k, v := range r.ImageClean {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendBool(dst, v)
	}
	dst = append(dst, `],"Retransmissions":`...)
	dst = jsonenc.AppendInt(dst, int64(r.Retransmissions))
	dst = append(dst, `,"ReRequests":`...)
	dst = jsonenc.AppendInt(dst, int64(r.ReRequests))
	dst = append(dst, `,"Resets":`...)
	dst = jsonenc.AppendInt(dst, int64(r.Resets))
	dst = append(dst, `,"PageComplete":`...)
	dst = jsonenc.AppendBool(dst, r.PageComplete)
	dst = append(dst, `,"LoadTime":`...)
	dst = jsonenc.AppendInt(dst, int64(r.LoadTime))
	dst = append(dst, `,"Requests":`...)
	if r.Requests == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for k, l := range r.Requests {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = appendRequestLog(dst, l)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// DecodeTrialResults reads exactly n TrialResult lines — the
// reassembled shard slices of one sweep, in index order — as they
// stream in. Each line must be exactly what AppendTrialResult writes
// followed by '\n': keys in declaration order, no whitespace,
// canonical numbers, PartyCount-long arrays. Every bundle is written
// by that encoder, so anything else (a flipped byte, a truncated or
// hand-edited line) is refused with its record index and the stream
// byte offset of the first byte that differs. Requests null decodes
// as nil and [] as an empty slice, as encoding/json decodes them.
func DecodeTrialResults(r io.Reader, n int) ([]TrialResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	sc.Split(scanRecordLine)
	results := make([]TrialResult, 0, n)
	var d trialDecoder
	off := 0
	for sc.Scan() {
		i := len(results)
		if i == n {
			return nil, fmt.Errorf("experiment: trial record %d at byte %d: more than %d records", i, off, n)
		}
		results = results[:i+1]
		if err := d.decode(sc.Bytes(), &results[i]); err != nil {
			return nil, fmt.Errorf("experiment: trial record %d at byte %d: %w", i, off+d.pos, err)
		}
		off += len(sc.Bytes())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("experiment: trial record %d at byte %d: %w", len(results), off, err)
	}
	if len(results) != n {
		return nil, fmt.Errorf("experiment: got %d trial records, want %d", len(results), n)
	}
	return results, nil
}

// scanRecordLine splits at '\n' and keeps the newline in the token; a
// final unterminated line is handed over as is, for the decoder to
// refuse.
func scanRecordLine(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// trialDecoder parses one AppendTrialResult line in place. Errors are
// sticky: after the first mismatch every step is a no-op and pos stays
// on the offending byte, so decode reads as a transcript of the
// encoder with one error check at the end.
type trialDecoder struct {
	buf  []byte
	pos  int
	err  error
	reqs []h2sim.RequestLog // request-log scratch, reused across lines
}

// decode parses line (with its '\n') into *r. The one allocation is
// the exact-size Requests backing array of a non-empty log.
func (d *trialDecoder) decode(line []byte, r *TrialResult) error {
	d.buf, d.pos, d.err = line, 0, nil
	d.lit(`{"Broken":`)
	r.Broken = d.boolean()
	d.lit(`,"HTMLCleanAny":`)
	r.HTMLCleanAny = d.boolean()
	d.lit(`,"HTMLCleanOrig":`)
	r.HTMLCleanOrig = d.boolean()
	d.lit(`,"HTMLIdentified":`)
	r.HTMLIdentified = d.boolean()
	d.lit(`,"HTMLDegree":`)
	r.HTMLDegree = d.float()
	d.lit(`,"TruthOrder":[`)
	for k := range r.TruthOrder {
		if k > 0 {
			d.lit(",")
		}
		r.TruthOrder[k] = d.int()
	}
	d.lit(`],"PredOrder":[`)
	for k := range r.PredOrder {
		if k > 0 {
			d.lit(",")
		}
		r.PredOrder[k] = d.int()
	}
	d.lit(`],"ImageClean":[`)
	for k := range r.ImageClean {
		if k > 0 {
			d.lit(",")
		}
		r.ImageClean[k] = d.boolean()
	}
	d.lit(`],"Retransmissions":`)
	r.Retransmissions = d.int()
	d.lit(`,"ReRequests":`)
	r.ReRequests = d.int()
	d.lit(`,"Resets":`)
	r.Resets = d.int()
	d.lit(`,"PageComplete":`)
	r.PageComplete = d.boolean()
	d.lit(`,"LoadTime":`)
	r.LoadTime = time.Duration(d.signed(math.MaxInt64))
	d.lit(`,"Requests":`)
	if d.next('n') {
		d.lit("null")
		r.Requests = nil
	} else {
		d.lit("[")
		reqs := d.reqs[:0]
		for d.err == nil && !d.next(']') {
			if len(reqs) > 0 {
				d.lit(",")
			}
			reqs = append(reqs, d.requestLog())
		}
		d.lit("]")
		r.Requests = append(make([]h2sim.RequestLog, 0, len(reqs)), reqs...)
		d.reqs = reqs
	}
	d.lit("}")
	if d.err == nil {
		switch rest := d.buf[d.pos:]; {
		case len(rest) == 0:
			d.err = errors.New("line truncated: want newline")
		case rest[0] != '\n':
			d.err = errors.New("trailing bytes after record")
		case len(rest) > 1:
			d.pos++
			d.err = errors.New("trailing bytes after newline")
		}
	}
	return d.err
}

// requestLog parses one appendRequestLog object.
func (d *trialDecoder) requestLog() (l h2sim.RequestLog) {
	d.lit(`{"Time":`)
	l.Time = time.Duration(d.signed(math.MaxInt64))
	d.lit(`,"ObjectID":`)
	l.ObjectID = d.int()
	d.lit(`,"CopyID":`)
	l.CopyID = d.int()
	d.lit(`,"StreamID":`)
	l.StreamID = uint32(d.digits(math.MaxUint32))
	d.lit(`,"ReIssue":`)
	l.ReIssue = d.boolean()
	d.lit("}")
	return l
}

// next reports whether the next byte is c, without consuming it.
func (d *trialDecoder) next(c byte) bool {
	return d.err == nil && d.pos < len(d.buf) && d.buf[d.pos] == c
}

// lit consumes the literal s, or fails on its first differing byte.
func (d *trialDecoder) lit(s string) {
	if d.err != nil {
		return
	}
	if len(d.buf)-d.pos >= len(s) && string(d.buf[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return
	}
	for i := 0; i < len(s); i++ {
		if d.pos == len(d.buf) {
			d.err = fmt.Errorf("line truncated: want %q", s[i:])
			return
		}
		if d.buf[d.pos] != s[i] {
			d.err = fmt.Errorf("want %q", s[i:])
			return
		}
		d.pos++
	}
}

// boolean parses true or false.
func (d *trialDecoder) boolean() bool {
	if d.next('t') {
		d.lit("true")
		return true
	}
	d.lit("false")
	return false
}

// digits parses an unsigned decimal no greater than max, without sign
// or leading zeros.
func (d *trialDecoder) digits(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	start := d.pos
	var v uint64
	for ; d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9'; d.pos++ {
		if d.pos > start && v == 0 {
			d.err = errors.New("leading zero")
			return 0
		}
		x := uint64(d.buf[d.pos] - '0')
		if v > (max-x)/10 {
			d.pos = start
			d.err = errors.New("number out of range")
			return 0
		}
		v = v*10 + x
	}
	if d.pos == start {
		d.err = errors.New("want a digit")
	}
	return v
}

// signed parses a decimal in [-max-1, max]; "-0" is refused, since
// jsonenc.AppendInt never writes it.
func (d *trialDecoder) signed(max uint64) int64 {
	if !d.next('-') {
		return int64(d.digits(max))
	}
	start := d.pos
	d.pos++
	v := d.digits(max + 1)
	if v == 0 && d.err == nil {
		d.pos = start
		d.err = errors.New("negative zero")
	}
	return int64(-v)
}

// int parses a Go int.
func (d *trialDecoder) int() int {
	return int(d.signed(math.MaxInt))
}

// float parses a number and accepts it only if jsonenc.AppendFloat64
// writes the same bytes for its value.
func (d *trialDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	start := d.pos
	for ; d.pos < len(d.buf); d.pos++ {
		if c := d.buf[d.pos]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
	}
	tok := d.buf[start:d.pos]
	f, err := strconv.ParseFloat(string(tok), 64)
	var canon [32]byte
	if enc, encErr := jsonenc.AppendFloat64(canon[:0], f); err != nil || encErr != nil || !bytes.Equal(enc, tok) {
		d.pos = start
		d.err = fmt.Errorf("non-canonical number %q", tok)
		return 0
	}
	return f
}

// AppendSurveyResultLine is the survey campaign's pipeline.Appender:
// the JSONL line is the SurveyResult alone (the params are implied by
// the trial index).
func AppendSurveyResultLine(dst []byte, _ int, _ CorpusTrialParams, r SurveyResult) ([]byte, error) {
	return AppendSurveyResult(dst, r)
}

// AppendTrialResultLine is the sweep shards' pipeline.Appender; one
// encoder serves all six fixed sweeps since they share TrialResult.
func AppendTrialResultLine(dst []byte, _ int, _ TrialParams, r TrialResult) ([]byte, error) {
	return AppendTrialResult(dst, r)
}
