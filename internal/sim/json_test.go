package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTimeJSONRoundTrip(t *testing.T) {
	for _, d := range []Time{0, Microsecond, 300 * Microsecond, 30 * Millisecond, Second, -Millisecond} {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal %v: %v", d, err)
		}
		var got Time
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got != d {
			t.Errorf("round trip %v -> %s -> %v", d, b, got)
		}
	}
}

func TestTimeUnmarshalForms(t *testing.T) {
	cases := map[string]Time{
		`"30ms"`:  30 * Millisecond,
		`"300us"`: 300 * Microsecond,
		`"1.5s"`:  1500 * Millisecond,
		`1000000`: Millisecond,
		`0`:       0,
		`"0s"`:    0,
		`-1000`:   -Microsecond,
	}
	for in, want := range cases {
		var got Time
		if err := json.Unmarshal([]byte(in), &got); err != nil {
			t.Errorf("unmarshal %s: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("unmarshal %s = %v, want %v", in, got, want)
		}
	}
	for _, bad := range []string{`"30 furlongs"`, `"ms"`, `true`, `{"ns":1}`} {
		var got Time
		if err := json.Unmarshal([]byte(bad), &got); err == nil {
			t.Errorf("unmarshal %s accepted as %v", bad, got)
		}
	}
}

// refParseTime is the encoding/json-based reader ParseTimeJSON
// replaced, kept as its oracle.
func refParseTime(data []byte) (Time, error) {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return 0, err
		}
		d, err := time.ParseDuration(s)
		return Time(d), err
	}
	var ns int64
	err := json.Unmarshal(data, &ns)
	return Time(ns), err
}

// checkParseTime asserts ParseTimeJSON agrees with the oracle on tok.
func checkParseTime(t *testing.T, tok []byte) {
	t.Helper()
	got, err := ParseTimeJSON(tok)
	want, werr := refParseTime(tok)
	if (err == nil) != (werr == nil) || err == nil && got != want {
		t.Errorf("ParseTimeJSON(%s) = %v, %v; reference %v, %v", tok, got, err, want, werr)
	}
}

var timeTokens = []string{
	`"30ms"`, `"1.5s"`, `"-2h3m4.5s"`, `"300µs"`, `"300us"`, `"3µs"`, `"3ms"`,
	`"1h\/"`, `"\ud800ms"`, `""`, `"0"`, `"+5s"`, `".5s"`,
	`0`, `-0`, `1000000`, `-1000`, `9223372036854775807`, `-9223372036854775808`,
	`9223372036854775808`, `1.5`, `1e3`, `null`, `true`, `false`, `{}`, `[1]`, `{"ns":1}`,
}

// TestParseTimeJSONMatchesReference pins the wire-form reader to the
// encoding/json-based one it replaced, escapes and edge numbers
// included.
func TestParseTimeJSONMatchesReference(t *testing.T) {
	for _, tok := range timeTokens {
		checkParseTime(t, []byte(tok))
	}
}

// FuzzParseTimeJSON extends the reference check to any valid JSON
// value.
func FuzzParseTimeJSON(f *testing.F) {
	for _, tok := range timeTokens {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		if json.Valid(tok) && len(bytes.TrimSpace(tok)) == len(tok) {
			checkParseTime(t, tok)
		}
	})
}

// TestAppendTimeJSON pins the wire form to a quoted time.Duration
// string, as json.Marshal renders it, written without allocating.
func TestAppendTimeJSON(t *testing.T) {
	for _, v := range []Time{0, 1, -1, 999, Microsecond, 1500 * Microsecond, 30 * Millisecond,
		-Second, 3723*Second + 1, math.MaxInt64, math.MinInt64} {
		want, err := json.Marshal(time.Duration(v).String())
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendTimeJSON(nil, v); !bytes.Equal(got, want) {
			t.Errorf("AppendTimeJSON(%d) = %s, want %s", int64(v), got, want)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = AppendTimeJSON(buf[:0], math.MinInt64) }); n != 0 {
		t.Errorf("AppendTimeJSON allocates %v times per call", n)
	}
}

// TestAppendTimeJSONMatchesDurationString pins AppendTimeJSON to a
// quoted Duration.String over every nanosecond count up to 3ms, whole
// multiples of each unit and their neighbours, random values up to 2s,
// and the extremes.
func TestAppendTimeJSONMatchesDurationString(t *testing.T) {
	check := func(v Time) {
		got := AppendTimeJSON(nil, v)
		if want := `"` + time.Duration(v).String() + `"`; string(got) != want {
			t.Fatalf("AppendTimeJSON(%d) = %s, want %s", int64(v), got, want)
		}
	}
	for v := Time(-3000); v < 3_000_000; v++ {
		check(v)
	}
	for _, unit := range []time.Duration{time.Nanosecond, time.Microsecond, time.Millisecond,
		time.Second, time.Minute, time.Hour} {
		for k := Time(0); k < 5000; k++ {
			v := k * Time(unit)
			check(v - 1)
			check(v)
			check(v + 1)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(Time(r.Int63n(int64(2 * Second))))
	}
	check(math.MinInt64)
	check(math.MaxInt64)
}
