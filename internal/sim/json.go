package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the one definition of a Time's JSON wire form: a quoted
// Go duration string ("30ms", "1.5s") on output, and either such a
// string or a bare integer number of nanoseconds on input, so
// hand-written scenario files stay readable while machine-generated
// ones can stay numeric. MarshalJSON/UnmarshalJSON and the fleet
// snapshot codec all go through AppendTimeJSON and ParseTimeJSON; the
// codec's decoder reads the plainest duration strings itself, and its
// tests hold that reader to ParseTimeJSON.

// AppendTimeJSON appends t's wire form, a quoted duration string, to
// dst. Values in [0, 1s) — every value a controller window holds — are
// printed directly, byte-equal to Duration.String: whole ns below 1µs,
// then µs or ms with a fraction of at most 3 or 6 digits, trailing
// zeros dropped. Every other value goes through Duration.String. It
// does not allocate beyond growing dst.
func AppendTimeJSON(dst []byte, t Time) []byte {
	dst = append(dst, '"')
	switch {
	case t == 0:
		dst = append(dst, '0', 's')
	case t > 0 && t < Microsecond:
		dst = append(strconv.AppendInt(dst, int64(t), 10), 'n', 's')
	case t > 0 && t < Millisecond:
		dst = append(appendFrac(dst, t, Microsecond, 3), "µs"...)
	case t > 0 && t < Second:
		dst = append(appendFrac(dst, t, Millisecond, 6), 'm', 's')
	default:
		dst = append(dst, time.Duration(t).String()...)
	}
	return append(dst, '"')
}

// appendFrac appends t/unit as Duration.String writes it: the whole
// part, then, if t is not a whole number of units, a point and the
// prec-digit fraction without its trailing zeros.
func appendFrac(dst []byte, t, unit Time, prec int) []byte {
	dst = strconv.AppendInt(dst, int64(t/unit), 10)
	frac := t % unit
	if frac == 0 {
		return dst
	}
	var digits [6]byte
	for i := prec - 1; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := prec
	for digits[n-1] == '0' {
		n--
	}
	return append(append(dst, '.'), digits[:n]...)
}

// ParseTimeJSON parses one syntactically valid JSON value as a Time: a
// duration string ("6ms", "300us") or an integer nanosecond count, with
// null reading as 0. Any other value, a fractional or out-of-range
// number, or a string time.ParseDuration rejects is an error.
func ParseTimeJSON(tok []byte) (Time, error) {
	if len(tok) > 0 && tok[0] == '"' {
		s, err := UnquoteJSON(tok)
		if err != nil {
			return 0, err
		}
		d, err := time.ParseDuration(string(s))
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

var errBadString = errors.New("sim: malformed JSON string")

// UnquoteJSON returns the contents of the JSON string literal tok
// (quotes included) the way encoding/json reads it: escapes resolve,
// surrogate pairs combine, and lone surrogates and invalid UTF-8 become
// U+FFFD. Without escapes it returns a subslice of tok as is; tok must
// then already be a valid literal (no raw '"' or control bytes).
func UnquoteJSON(tok []byte) ([]byte, error) {
	if len(tok) < 2 || tok[0] != '"' || tok[len(tok)-1] != '"' {
		return nil, errBadString
	}
	s := tok[1 : len(tok)-1]
	if bytes.IndexByte(s, '\\') < 0 {
		return s, nil
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += n
			continue
		}
		if c != '\\' {
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(s) {
			return nil, errBadString
		}
		switch e := s[i+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := hex4(s[i:])
			if r < 0 {
				return nil, errBadString
			}
			i += 6
			if utf16.IsSurrogate(r) {
				if dec := utf16.DecodeRune(r, hex4(s[i:])); dec != unicode.ReplacementChar {
					r = dec
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			out = utf8.AppendRune(out, r)
			continue
		default:
			return nil, errBadString
		}
		i += 2
	}
	return out, nil
}

// hex4 decodes a `\uXXXX` escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
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
