package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/telemetry"
)

// JSONL streams one JSON line per trial to a file — the bounded-
// memory raw export of a campaign. Lines are written in trial-index
// order; the encoding is the caller's (a marshal function over the
// trial's params and result), so one implementation serves any
// campaign type.
//
// Its checkpoint state is the byte offset and line count after the
// last exported trial. Restore truncates the file back to that
// offset, discarding any trailing lines a killed run had written past
// its last checkpoint; because the pipeline re-runs exactly the
// trials after the checkpoint and trials are pure functions of their
// index, the resumed file ends up byte-identical to an uninterrupted
// run's.
type JSONL[P, R any] struct {
	path   string
	encode func(i int, p P, r R) (any, error)
	app    Appender[P, R]

	file    *os.File
	w       *bufio.Writer
	bufSize int
	scratch []byte
	offset  int64
	lines   int64
	gauges  *telemetry.Gauges // campaign telemetry (nil when off)
}

// Appender is the zero-allocation encoding contract: AppendLine
// appends trial i's JSON line (without the trailing newline) to dst
// and returns the extended slice. Implementations must produce bytes
// identical to json.Marshal of the value the fallback encode function
// would return — checkpoint offsets, shard concatenation, and resume
// byte-identity all assume the two paths are interchangeable.
type Appender[P, R any] interface {
	AppendLine(dst []byte, i int, p P, r R) ([]byte, error)
}

// AppendFunc adapts a plain function to the Appender contract.
type AppendFunc[P, R any] func(dst []byte, i int, p P, r R) ([]byte, error)

// AppendLine implements Appender.
func (f AppendFunc[P, R]) AppendLine(dst []byte, i int, p P, r R) ([]byte, error) {
	return f(dst, i, p, r)
}

// NewJSONL builds a JSONL exporter writing to path. encode maps one
// trial to the value marshalled as its line; returning the result
// struct itself is typical.
func NewJSONL[P, R any](path string, encode func(i int, p P, r R) (any, error)) *JSONL[P, R] {
	return &JSONL[P, R]{path: path, encode: encode}
}

// WithAppender installs the zero-allocation fast path: Export calls
// app instead of encode+json.Marshal. The fallback encode function is
// retained as the semantic reference (the equivalence suites compare
// the two). Returns j for chaining.
func (j *JSONL[P, R]) WithAppender(app Appender[P, R]) *JSONL[P, R] {
	j.app = app
	return j
}

// WithBufferSize sets the exporter's bufio.Writer size (default
// 1<<16). Larger buffers amortize syscalls for shard bundles whose
// lines are long; values < 1 keep the default. Never affects the
// bytes written. Returns j for chaining.
func (j *JSONL[P, R]) WithBufferSize(n int) *JSONL[P, R] {
	j.bufSize = n
	return j
}

// Name implements Exporter.
func (j *JSONL[P, R]) Name() string { return "jsonl:" + filepath.Base(j.path) }

// jsonlState is the serialized checkpoint state.
type jsonlState struct {
	Offset int64 `json:"offset"`
	Lines  int64 `json:"lines"`
}

// Restore implements Exporter: record the checkpointed offset; Begin
// truncates to it.
func (j *JSONL[P, R]) Restore(state json.RawMessage) error {
	var s jsonlState
	if err := json.Unmarshal(state, &s); err != nil {
		return fmt.Errorf("jsonl state: %w", err)
	}
	j.offset, j.lines = s.Offset, s.Lines
	return nil
}

// Begin implements Exporter: open (or reopen) the file. On resume the
// file is truncated to the checkpointed offset, and a file shorter
// than that offset is an error; on a fresh campaign it is truncated
// to empty.
func (j *JSONL[P, R]) Begin(m Meta) error {
	if dir := filepath.Dir(j.path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	// Truncate would extend a file shorter than the checkpointed
	// offset with NUL bytes; such a file lost lines the checkpoint
	// counts.
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if fi.Size() < j.offset {
		f.Close()
		return fmt.Errorf("%s holds %d bytes, checkpoint expects at least %d", j.path, fi.Size(), j.offset)
	}
	if err := f.Truncate(j.offset); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(j.offset, 0); err != nil {
		f.Close()
		return err
	}
	j.file = f
	size := j.bufSize
	if size < 1 {
		size = 1 << 16
	}
	j.w = bufio.NewWriterSize(f, size)
	j.gauges = m.Gauges
	j.gauges.Set(telemetry.GExportBytes, j.offset)
	return nil
}

// Export implements Exporter: append one line. With an Appender
// installed the line is built in a reused scratch buffer and written
// once — zero allocations steady state; otherwise the trial value is
// marshalled through encoding/json.
func (j *JSONL[P, R]) Export(i int, p P, r R) error {
	if j.app != nil {
		line, err := j.app.AppendLine(j.scratch[:0], i, p, r)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		j.scratch = line // keep any growth for the next line
		if _, err := j.w.Write(line); err != nil {
			return err
		}
		j.offset += int64(len(line))
		j.lines++
		j.gauges.Set(telemetry.GExportBytes, j.offset)
		return nil
	}
	v, err := j.encode(i, p, r)
	if err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := j.w.Write(data); err != nil {
		return err
	}
	j.offset += int64(len(data))
	j.lines++
	j.gauges.Set(telemetry.GExportBytes, j.offset)
	return nil
}

// Checkpoint implements Exporter. The buffered writer is flushed
// first so the recorded offset is durable bytes, not buffered ones.
func (j *JSONL[P, R]) Checkpoint() (json.RawMessage, error) {
	if j.w != nil {
		if err := j.w.Flush(); err != nil {
			return nil, err
		}
	}
	return json.Marshal(jsonlState{Offset: j.offset, Lines: j.lines})
}

// Close implements Exporter. The file is closed even when the final
// flush fails.
func (j *JSONL[P, R]) Close(bool) error {
	if j.file == nil {
		return nil
	}
	ferr := j.w.Flush()
	cerr := j.file.Close()
	j.file, j.w = nil, nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Lines reports how many lines the exporter has written across the
// campaign so far (including lines restored from a checkpoint).
func (j *JSONL[P, R]) Lines() int64 { return j.lines }
