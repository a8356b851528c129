package monitord

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/diversity"
)

// jsonBody appends the assessment, worst and report bodies and the SSE
// data: line by hand instead of encoding AssessmentJSON and ReportJSON by
// reflection. The bytes are the ones json.Encoder writes for those types —
// field order, omitempty, encoding/json's float format and its HTML-safe
// string escaping — which FuzzAssessmentBody holds them to. Like
// encoding/json it refuses a non-finite float: the first is kept in err.
type jsonBody struct {
	b       []byte
	err     error
	scratch *[]byte // the pooled buffer b was taken from, if any
}

// bodyScratch holds the buffers a kept body is appended into before keep
// copies it out at its exact length.
var bodyScratch = sync.Pool{New: func() any { return new([]byte) }}

// scratchBody starts a body on a pooled buffer; keep must end it.
func scratchBody() jsonBody {
	s := bodyScratch.Get().(*[]byte)
	return jsonBody{b: (*s)[:0], scratch: s}
}

// keep returns what was appended in a slice of exactly that length, so a
// kept body holds no spare capacity, and gives the buffer back.
func (j *jsonBody) keep() ([]byte, error) {
	var body []byte
	if j.err == nil {
		body = append(make([]byte, 0, len(j.b)), j.b...)
	}
	*j.scratch = j.b
	bodyScratch.Put(j.scratch) // last: the buffer is another caller's from here
	return body, j.err
}

// assessmentBody is the JSON of a under the tenant name, newline included,
// as json.Encoder renders AssessmentJSON.
func assessmentBody(tenant string, a core.Assessment) ([]byte, error) {
	j := scratchBody()
	j.assessment(tenant, a)
	j.raw("\n")
	return j.keep()
}

// reportBody is the JSON of r, newline included, as json.Encoder renders
// ReportJSON.
func reportBody(r diversity.Report) ([]byte, error) {
	j := scratchBody()
	j.report(r)
	j.raw("\n")
	return j.keep()
}

func (j *jsonBody) assessment(tenant string, a core.Assessment) {
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
		for i, f := range a.Injection.Faults {
			if i > 0 {
				j.raw(",")
			}
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
