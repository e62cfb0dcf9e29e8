package telemetry

import (
	"slices"
	"strconv"

	"repro/internal/obs"
)

// Perfetto/Chrome trace_event conversion of one trial's flight-
// recorder ring: the timeline view of an attack. The output is the
// JSON-object form of the trace_event format —
// {"traceEvents":[...]} — loadable in ui.perfetto.dev or
// chrome://tracing, with one named track ("thread") per simulated
// layer:
//
//	tid 1  netem      packet drops
//	tid 2  tcp        retransmissions, broken connections
//	tid 3  h2         request→completion spans, stalls, refetches,
//	                  duplicate server copies
//	tid 4  attack     phase spans and reset-round spans
//	tid 5  predictor  inference-run instants
//
// Point events render as instants (ph "i", thread-scoped).
// Durations are reconstructed from event pairs:
//
//   - an h2.request (B = object) opens a span closed by the
//     h2.obj_complete carrying the same object ID (A) — the object's
//     download time, the signal the §V attack stretches;
//   - attack.phase boundary events split the trial into phase spans
//     (phase 1 runs from the trace start to the first boundary);
//   - each h2.reset_round closes a round span from the previous
//     round boundary, so the Fig. 5 reset cadence reads directly off
//     the track.
//
// Timestamps are microseconds of simulation time (the trace_event
// unit), rendered with fixed 3-decimal precision — exactly the
// nanosecond resolution of the simulated clock.
type traceLayer int

const (
	layerNetem traceLayer = iota + 1
	layerTCP
	layerH2
	layerAttack
	layerPredictor
)

// traceLayerNames names the per-layer tracks, indexed by traceLayer.
var traceLayerNames = [...]string{
	layerNetem:     "netem",
	layerTCP:       "tcp",
	layerH2:        "h2",
	layerAttack:    "attack",
	layerPredictor: "predictor",
}

// layerOf maps an event kind to its track.
func layerOf(k obs.EventKind) traceLayer {
	switch k {
	case obs.EvNetemDrop:
		return layerNetem
	case obs.EvTCPFastRetx, obs.EvTCPTimeoutRetx, obs.EvTCPBroken:
		return layerTCP
	case obs.EvAtkPhase:
		return layerAttack
	case obs.EvPredRun:
		return layerPredictor
	default:
		return layerH2
	}
}

// appendTS appends a trace timestamp: nanoseconds converted to the
// format's microsecond unit, fixed 3 decimals (exact for the
// integer-nanosecond sim clock).
func appendTS(dst []byte, ns int64) []byte {
	return strconv.AppendFloat(dst, float64(ns)/1e3, 'f', 3, 64)
}

// appendTraceStr appends a JSON string. Track and event names are
// ASCII identifiers from the tables above, so plain quoting suffices;
// caller-supplied trial names go through the same path and must not
// contain quotes or control characters (the CLI passes "seed N").
func appendTraceStr(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendMeta appends one ph:"M" metadata event naming a process or
// thread.
func appendMeta(dst []byte, tid int, key, name string) []byte {
	dst = append(dst, `{"ph":"M","pid":1,"tid":`...)
	dst = strconv.AppendInt(dst, int64(tid), 10)
	dst = append(dst, `,"name":"`...)
	dst = append(dst, key...)
	dst = append(dst, `","args":{"name":`...)
	dst = appendTraceStr(dst, name)
	return append(dst, "}}"...)
}

// appendEventHead opens one trace event up to and including its
// timestamp: {"ph":"<ph>","pid":1,"tid":T,"ts":...
func appendEventHead(dst []byte, ph byte, layer traceLayer, tsNanos int64) []byte {
	dst = append(dst, `{"ph":"`...)
	dst = append(dst, ph)
	dst = append(dst, `","pid":1,"tid":`...)
	dst = strconv.AppendInt(dst, int64(layer), 10)
	dst = append(dst, `,"ts":`...)
	return appendTS(dst, tsNanos)
}

// appendInstant appends a thread-scoped instant event with the
// recorder's raw a/b payload as args.
func appendInstant(dst []byte, layer traceLayer, e obs.Event) []byte {
	dst = appendEventHead(dst, 'i', layer, int64(e.At))
	dst = append(dst, `,"s":"t","name":`...)
	dst = appendTraceStr(dst, e.Kind.String())
	dst = append(dst, `,"args":{"a":`...)
	dst = strconv.AppendInt(dst, e.A, 10)
	dst = append(dst, `,"b":`...)
	dst = strconv.AppendInt(dst, e.B, 10)
	return append(dst, "}}"...)
}

// appendSpan appends a ph:"X" complete event covering
// [startNanos, endNanos) with up to two named integer args.
func appendSpan(dst []byte, layer traceLayer, name string, startNanos, endNanos int64, argNames [2]string, argVals [2]int64, nargs int) []byte {
	dst = appendEventHead(dst, 'X', layer, startNanos)
	dst = append(dst, `,"dur":`...)
	dst = appendTS(dst, endNanos-startNanos)
	dst = append(dst, `,"name":`...)
	dst = appendTraceStr(dst, name)
	dst = append(dst, `,"args":{`...)
	for i := 0; i < nargs; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, argNames[i]...)
		dst = append(dst, `":`...)
		dst = strconv.AppendInt(dst, argVals[i], 10)
	}
	return append(dst, "}}"...)
}

// AppendTrace renders events (one trial's flight-recorder dump, in
// arrival order — which is simulation-time order) as a trace_event
// JSON document and returns dst extended. name labels the trace's
// process track (e.g. "survey seed 7").
func AppendTrace(dst []byte, events []obs.Event, name string) []byte {
	dst = append(dst, `{"traceEvents":[`...)
	dst = appendMeta(dst, 0, "process_name", "h2attack "+name)
	for tid := layerNetem; tid <= layerPredictor; tid++ {
		dst = append(dst, ',')
		dst = appendMeta(dst, int(tid), "thread_name", traceLayerNames[tid])
	}

	// endNanos closes the open-ended spans (final attack phase, an
	// unfinished download rendered as zero-length at its request).
	var endNanos int64
	if len(events) > 0 {
		endNanos = int64(events[len(events)-1].At)
	}

	// pendingReq maps object ID → request timestamp for open
	// downloads; pendingStream carries the request's stream ID along.
	pendingReq := map[int64]int64{}
	pendingStream := map[int64]int64{}
	phase := int64(1) // current attack phase; trials start in phase 1
	phaseStart := int64(0)
	roundStart := int64(0)
	sawPhase := false

	for _, e := range events {
		at := int64(e.At)
		switch e.Kind {
		case obs.EvH2Request:
			// Opens an object-download span; B is the object ID. A
			// refetch of the same object replaces the open request —
			// the completion pairs with the most recent fetch.
			pendingReq[e.B] = at
			pendingStream[e.B] = e.A
		case obs.EvH2ObjComplete:
			start, open := pendingReq[e.A]
			if !open {
				dst = append(dst, ',')
				dst = appendInstant(dst, layerH2, e)
				continue
			}
			delete(pendingReq, e.A)
			stream := pendingStream[e.A]
			delete(pendingStream, e.A)
			dst = append(dst, ',')
			dst = appendSpan(dst, layerH2, "h2.obj", start, at,
				[2]string{"object", "stream"}, [2]int64{e.A, stream}, 2)
		case obs.EvAtkPhase:
			// Close the span of the phase we are leaving; A is the
			// phase being entered.
			dst = append(dst, ',')
			dst = appendSpan(dst, layerAttack, "attack.phase", phaseStart, at,
				[2]string{"phase"}, [2]int64{phase}, 1)
			phase, phaseStart, sawPhase = e.A, at, true
		case obs.EvH2ResetRound:
			dst = append(dst, ',')
			dst = appendSpan(dst, layerH2, "h2.reset_round", roundStart, at,
				[2]string{"round", "streams_reset"}, [2]int64{e.B, e.A}, 2)
			roundStart = at
		default:
			dst = append(dst, ',')
			dst = appendInstant(dst, layerOf(e.Kind), e)
		}
	}

	// Close what's still open: the current attack phase (only when
	// the trial had phase structure at all — a passive trial renders
	// no attack track) and any never-completed downloads.
	if sawPhase {
		dst = append(dst, ',')
		dst = appendSpan(dst, layerAttack, "attack.phase", phaseStart, endNanos,
			[2]string{"phase"}, [2]int64{phase}, 1)
	}
	// Sorted by object ID so the rendered bytes are deterministic (a
	// Perfetto file for a given seed is always the same file).
	open := make([]int64, 0, len(pendingReq))
	for obj := range pendingReq {
		open = append(open, obj)
	}
	slices.Sort(open)
	for _, obj := range open {
		dst = append(dst, ',')
		dst = appendSpan(dst, layerH2, "h2.obj_incomplete", pendingReq[obj], pendingReq[obj],
			[2]string{"object", "stream"}, [2]int64{obj, pendingStream[obj]}, 2)
	}

	return append(dst, "]}"...)
}
