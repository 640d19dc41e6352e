package sim

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// This file is the one definition of a Time's JSON wire form: a quoted
// Go duration string ("30ms", "1.5s") on output, and either such a
// string or a bare integer number of nanoseconds on input, so
// hand-written scenario files stay readable while machine-generated
// ones can stay numeric.

// AppendTimeJSON appends t's wire form, Duration.String quoted, to dst.
// It does not allocate beyond growing dst.
func AppendTimeJSON(dst []byte, t Time) []byte {
	dst = append(dst, '"')
	dst = append(dst, time.Duration(t).String()...)
	return append(dst, '"')
}

// ParseTimeJSON parses one syntactically valid JSON value as a Time: a
// duration string ("6ms", "300us") or an integer nanosecond count, with
// null reading as 0. Any other value, a fractional or out-of-range
// number, or a string time.ParseDuration rejects is an error.
func ParseTimeJSON(tok []byte) (Time, error) {
	if len(tok) > 0 && tok[0] == '"' {
		var s string
		if err := json.Unmarshal(tok, &s); err != nil {
			return 0, err
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			return 0, fmt.Errorf("sim: bad duration %q: %w", s, err)
		}
		return Time(d), nil
	}
	if string(tok) == "null" {
		return 0, nil
	}
	ns, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sim: time must be a duration string or a nanosecond count, got %.32s", tok)
	}
	return Time(ns), nil
}

// MarshalJSON renders a Time in its wire form (AppendTimeJSON).
func (t Time) MarshalJSON() ([]byte, error) {
	return AppendTimeJSON(nil, t), nil
}

// UnmarshalJSON reads a Time in its wire form (ParseTimeJSON).
func (t *Time) UnmarshalJSON(data []byte) error {
	v, err := ParseTimeJSON(data)
	if err != nil {
		return err
	}
	*t = v
	return nil
}
