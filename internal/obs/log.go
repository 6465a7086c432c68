package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// ParseLevel parses a level name (debug, info, warn, error).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
}

// Logger is a minimal leveled structured logger emitting one logfmt
// line per event: `ts=... level=... msg=... k=v ...`. A nil *Logger
// discards everything, so optional logging needs no guards. Loggers
// derived with With share the parent's writer lock.
type Logger struct {
	mu    *sync.Mutex
	w     io.Writer
	min   Level
	attrs string           // pre-rendered " k=v ..." suffix
	now   func() time.Time // test hook
}

// NewLogger returns a logger writing events at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, min: min, now: time.Now}
}

// With returns a logger that appends the given key-value pairs to
// every event.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil {
		return nil
	}
	d := *l
	d.attrs = l.attrs + renderAttrs(kv)
	return &d
}

// Enabled reports whether events at lv would be written.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.min }

// Debug logs at debug level.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(lv Level, msg string, kv []any) {
	if !l.Enabled(lv) {
		return
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(l.now().UTC().Format(time.RFC3339Nano))
	b.WriteString(" level=")
	b.WriteString(lv.String())
	b.WriteString(" msg=")
	b.WriteString(renderValue(msg))
	b.WriteString(l.attrs)
	b.WriteString(renderAttrs(kv))
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	io.WriteString(l.w, b.String())
}

// renderAttrs renders alternating key-value pairs as " k=v ...". An
// odd trailing value is paired with the key "!BADKEY" rather than
// dropped, mirroring log/slog.
func renderAttrs(kv []any) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		key, ok := "", false
		if s, isStr := kv[i].(string); isStr {
			key, ok = s, true
		}
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		var val any = "!MISSING"
		if i+1 < len(kv) {
			val = kv[i+1]
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(renderValue(val))
	}
	return b.String()
}

// renderValue formats one logfmt value, quoting anything with spaces
// or quotes.
func renderValue(v any) string {
	var s string
	switch x := v.(type) {
	case string:
		s = x
	case error:
		s = x.Error()
	case time.Duration:
		s = x.String()
	case float64:
		s = strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		s = strconv.FormatFloat(float64(x), 'g', -1, 32)
	default:
		s = fmt.Sprint(v)
	}
	if s == "" || strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}
