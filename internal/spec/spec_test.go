package spec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// slowDuration is Duration.UnmarshalJSON without its plain-string fast path:
// every quoted token through json.Unmarshal.
func slowDuration(b []byte) (Duration, error) {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return 0, err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return 0, fmt.Errorf("spec: bad duration %q: %w", s, err)
		}
		return Duration(v), nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("spec: bad duration %s: %w", b, err)
	}
	return Duration(n), nil
}

// uEsc turns each %u of s into the \u that starts a JSON unicode escape.
func uEsc(s string) string { return strings.ReplaceAll(s, "%u", `\`+"u") }

// TestDurationFastPathMatchesJSON: a duration token decodes to the value and
// the error text it did when every string went through json.Unmarshal —
// plain tokens on the fast path, and escapes, control bytes, invalid UTF-8,
// non-ASCII and malformed tokens on the slow one.
func TestDurationFastPathMatchesJSON(t *testing.T) {
	for _, tc := range []struct {
		fast bool
		toks []string
	}{
		{true, []string{`"72h"`, `"1h30m"`, `"-5m"`, `"+2s"`, `"0"`, `"1.5h"`, `""`, `"72"`, `"h"`, `"72 h"`, `"abc"`, `"9999999999h"`, `"72h~"`}},
		// Escapes.
		{false, []string{uEsc(`"%u0037%u0032h"`), uEsc(`"72%u0068"`), `"7\/2h"`, `"\"72h\""`, `"72h\n"`, `"\\72h"`, `"72h\"`, `"\x"`, uEsc(`"%ud800"`)}},
		// Control bytes, DEL, invalid UTF-8 and non-ASCII.
		{false, []string{"\"72h\x00\"", "\"\t72h\"", "\"72h\x7f\"", "\"72\xffh\"", "\"\xc3\"", `"5µs"`, `"5μs"`, `"72ｈ"`}},
		// Malformed quoting.
		{false, []string{`"`, `"72h`, `"72h"x`, `"72"h"`, `"72h" `, ` "72h"`, `"72h"72`}},
		// Integer nanoseconds and other tokens.
		{false, []string{`259200000000000`, `-1`, `1.5`, `1e9`, `null`, `true`, ``}},
	} {
		for _, tok := range tc.toks {
			want, wantErr := slowDuration([]byte(tok))
			var got Duration
			err := got.UnmarshalJSON([]byte(tok))
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || got != want {
				t.Errorf("%q: got (%v, %v), want (%v, %v)", tok, got, err, want, wantErr)
			}
			if n := PlainQuoted([]byte(tok)); (n > 0 && n == len(tok)) != tc.fast {
				t.Errorf("%q: fast path %v, want %v", tok, !tc.fast, tc.fast)
			}
		}
	}
}
