package obs

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
)

// Recorder is the Tracer's JSONL sink: each finished span becomes one
// "span" line written through a log/slog JSONHandler. The handler strips
// slog's wall-clock time attribute, so a sim-time trace carries virtual
// timestamps only and replays byte for byte.
//
// Recorder has no level of its own: the Tracer's Debug flag is the one
// gate deciding which spans exist. A nil *Recorder discards everything.
// Safe for concurrent use; each span is written as one line.
type Recorder struct {
	logger *slog.Logger
	out    *lockedWriter
}

// lockedWriter serialises writes from concurrent emitters (slog handlers
// require a concurrency-safe writer) and owns the optional flush/close
// chain for file-backed recorders.
type lockedWriter struct {
	mu    sync.Mutex
	w     io.Writer
	flush func() error
	close func() error
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// NewRecorder returns a sink writing one JSON line per span to w.
func NewRecorder(w io.Writer) *Recorder {
	out := &lockedWriter{w: w}
	h := slog.NewJSONHandler(out, &slog.HandlerOptions{
		Level: slog.LevelDebug,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{} // drop wall time: traces must be replayable
			}
			return a
		},
	})
	return &Recorder{logger: slog.New(h), out: out}
}

// fileRecorder creates (truncating) path and returns a buffered sink whose
// Close flushes and closes the file.
func fileRecorder(path string) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open trace file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	r := NewRecorder(bw)
	r.out.flush = bw.Flush
	r.out.close = f.Close
	return r, nil
}

// Close flushes buffered output and closes the underlying file, if any.
// Safe on a nil recorder.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.out.mu.Lock()
	defer r.out.mu.Unlock()
	if r.out.flush != nil {
		if err := r.out.flush(); err != nil {
			return err
		}
	}
	if r.out.close != nil {
		return r.out.close()
	}
	return nil
}

// OpenTracer builds the tracer behind a CLI's -trace-out and -log-level
// flags. level must be "debug" (which also turns on the StartDebug spans)
// or "info"; anything else is an error, because a trace holds only spans
// and a warn or error threshold would leave it silently empty. A non-empty
// path is created (truncating) and becomes the JSONL sink; (*Tracer).Close
// flushes it. With neither a path nor cfg.Ring the spans would go nowhere,
// so OpenTracer returns a nil (disabled) tracer.
func OpenTracer(path, level string, cfg TracerConfig) (*Tracer, error) {
	level = strings.ToLower(level)
	if level != "debug" && level != "info" {
		return nil, fmt.Errorf("obs: bad log level %q (debug or info)", level)
	}
	cfg.Debug = level == "debug"
	if path != "" {
		rec, err := fileRecorder(path)
		if err != nil {
			return nil, err
		}
		cfg.Recorder = rec
	}
	if cfg.Recorder == nil && cfg.Ring == nil {
		return nil, nil
	}
	return NewTracer(cfg), nil
}
