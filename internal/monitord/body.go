package monitord

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/vuln"
)

// jsonBody appends the assessment, worst and report bodies and the SSE
// data: line by hand instead of encoding AssessmentJSON and ReportJSON by
// reflection. The bytes are the ones json.Encoder writes for those types —
// field order, omitempty, encoding/json's float format and its HTML-safe
// string escaping — which FuzzAssessmentBody holds them to. Like
// encoding/json it refuses a non-finite float: the first is kept in err.
type jsonBody struct {
	b   []byte
	err error
}

// bodySlack is the room a body's buffer leaves beyond the last body of its
// route. A kept body keeps up to twice that unused beyond its length: the
// slack, and as much again for a body shorter than the last.
const bodySlack = 64

// newBody starts a body in a buffer the size of prev's, the route's last
// kept body, and bodySlack more: the next body of a route is about as long
// as the last, so it is appended in place, where keep leaves it. With no
// kept body yet the buffer is size bytes.
func newBody(prev *encodedBody, size int) jsonBody {
	if prev != nil {
		size = len(prev.body) + bodySlack
	}
	return jsonBody{b: make([]byte, 0, size)}
}

// bodySize is about the length of a's body, for its first buffer: 1 kB
// for the head, and per fault 16 bytes a name and room for the rest.
func bodySize(a core.Assessment) int {
	n := 1024
	for _, f := range a.Injection.Faults {
		n += 128 + len(f.Vuln) + 16*len(f.Compromised)
	}
	return n
}

// keep returns what was appended with its capacity cut to its length: in
// its buffer when that has at most 2·bodySlack bytes to spare, else in a
// copy of exactly that length, so that a kept body holds next to nothing
// unused.
func (j *jsonBody) keep() ([]byte, error) {
	if j.err != nil {
		return nil, j.err
	}
	body := j.b
	if cap(body)-len(body) > 2*bodySlack {
		body = append(make([]byte, 0, len(body)), body...)
	}
	return body[:len(body):len(body)], nil
}

// faultPiece is where one fault's piece lies in a kept assessment body:
// body[lo:hi] runs from the fault's opening brace through its "power" key,
// the bytes that depend on the vulnerability and its compromised names
// only. names is the fault's Compromised slice itself. core.Monitor hands
// out the same slice, never written, for as long as the fault is
// unchanged, so the same vulnerability with the same slice — same array,
// same length — is the same bytes, and the piece holds the slice so that
// its array is not reused for another list.
type faultPiece struct {
	vuln   vuln.ID
	names  []string
	lo, hi int
}

// sameNames reports whether x and y are the same slice: the same elements
// of the same array, or both nil, or both empty and non-nil.
func sameNames(x, y []string) bool {
	if len(x) != len(y) {
		return false
	}
	if len(x) == 0 {
		return (x == nil) == (y == nil)
	}
	return &x[0] == &y[0]
}

// assessmentBody is the JSON of a under the tenant name, newline included,
// as json.Encoder renders AssessmentJSON, and where each fault's piece lies
// in it. A fault whose piece prev holds is copied from prev's body rather
// than encoded again; prev may be nil.
func assessmentBody(tenant string, a core.Assessment, prev *encodedBody) ([]byte, []faultPiece, error) {
	j := newBody(prev, bodySize(a))
	var pieces []faultPiece
	if len(a.Injection.Faults) > 0 {
		pieces = make([]faultPiece, 0, len(a.Injection.Faults))
	}
	j.assessment(tenant, a, prev, &pieces)
	j.raw("\n")
	body, err := j.keep()
	if err != nil {
		return nil, nil, err
	}
	return body, pieces, nil
}

// reportBody is the JSON of r, newline included, as json.Encoder renders
// ReportJSON; prev is the route's last kept body (see newBody).
func reportBody(r diversity.Report, prev *encodedBody) ([]byte, error) {
	j := newBody(prev, 512)
	j.report(r)
	j.raw("\n")
	return j.keep()
}

// assessment appends a's JSON under the tenant name. With pieces non-nil
// it records each fault's piece there, and reuses the pieces prev holds
// (see assessmentBody).
func (j *jsonBody) assessment(tenant string, a core.Assessment, prev *encodedBody, pieces *[]faultPiece) {
	j.raw("{")
	if tenant != "" {
		j.raw(`"tenant":`)
		j.str(tenant)
		j.raw(",")
	}
	j.raw(`"at":`)
	j.str(a.At.String())
	j.raw(`,"substrate":`)
	j.str(a.Substrate)
	j.raw(`,"threshold":`)
	j.float(a.Threshold)
	j.raw(`,"safe":`)
	j.b = strconv.AppendBool(j.b, a.Safe)
	j.raw(`,"totalFraction":`)
	j.float(a.Injection.TotalFraction)
	j.raw(`,"sumFraction":`)
	j.float(a.Injection.SumFraction)
	j.raw(`,"diversity":`)
	j.report(a.Diversity)
	if len(a.Injection.Faults) > 0 {
		j.raw(`,"faults":[`)
		var kept []faultPiece
		if prev != nil && pieces != nil {
			kept = prev.faults
		}
		for i, f := range a.Injection.Faults {
			if i > 0 {
				j.raw(",")
			}
			// Both listings are in vulnerability-ID order, so one pass
			// finds every piece prev can lend.
			for len(kept) > 0 && kept[0].vuln < f.Vuln {
				kept = kept[1:]
			}
			lo := len(j.b)
			if len(kept) > 0 && kept[0].vuln == f.Vuln && sameNames(kept[0].names, f.Compromised) {
				j.b = append(j.b, prev.body[kept[0].lo:kept[0].hi]...)
			} else {
				j.raw(`{"vuln":`)
				j.str(string(f.Vuln))
				j.raw(`,"compromised":`)
				if f.Compromised == nil {
					j.raw("null")
				} else {
					j.raw("[")
					for k, name := range f.Compromised {
						if k > 0 {
							j.raw(",")
						}
						j.str(name)
					}
					j.raw("]")
				}
				j.raw(`,"power":`)
			}
			if pieces != nil {
				*pieces = append(*pieces, faultPiece{vuln: f.Vuln, names: f.Compromised, lo: lo, hi: len(j.b)})
			}
			j.float(f.Power)
			j.raw(`,"powerFraction":`)
			j.float(f.PowerFraction)
			j.raw("}")
		}
		j.raw("]")
	}
	j.raw("}")
}

func (j *jsonBody) report(r diversity.Report) {
	j.raw(`{"support":`)
	j.int(r.Support)
	j.raw(`,"members":`)
	j.int(r.Members)
	j.raw(`,"entropy":`)
	j.float(r.Entropy)
	j.raw(`,"normalizedEntropy":`)
	j.float(r.NormalizedEntropy)
	j.raw(`,"effectiveConfigurations":`)
	j.float(r.EffectiveConfigurations)
	j.raw(`,"simpsonIndex":`)
	j.float(r.SimpsonIndex)
	j.raw(`,"maxShare":`)
	j.float(r.MaxShare)
	if r.Kappa != 0 {
		j.raw(`,"kappa":`)
		j.int(r.Kappa)
	}
	if r.Omega != 0 {
		j.raw(`,"omega":`)
		j.int(r.Omega)
	}
	j.raw(`,"minConfigFaultsToThird":`)
	j.int(r.MinConfigFaultsToThird)
	j.raw(`,"minConfigFaultsToHalf":`)
	j.int(r.MinConfigFaultsToHalf)
	j.raw("}")
}

func (j *jsonBody) raw(s string) { j.b = append(j.b, s...) }

func (j *jsonBody) int(v int) { j.b = strconv.AppendInt(j.b, int64(v), 10) }

// plain marks the bytes encoding/json writes into a string as they are:
// printable ASCII but for the quote, the backslash and the HTML-unsafe <>&.
var plain = func() (set [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		set[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return set
}()

// str appends s as a JSON string: quoted as it stands when every byte of it
// is plain, and otherwise through json.Marshal, so the escaping is
// encoding/json's own.
func (j *jsonBody) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			quoted, _ := json.Marshal(s) // a string always marshals
			j.b = append(j.b, quoted...)
			return
		}
	}
	j.b = append(j.b, '"')
	j.b = append(j.b, s...)
	j.b = append(j.b, '"')
}

// float appends f by encoding/json's rule: the shortest 'f' form, or 'e'
// below 1e-6 and from 1e21 on, a one-digit negative exponent unpadded.
func (j *jsonBody) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if j.err == nil {
			j.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(j.b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	j.b = b
}
