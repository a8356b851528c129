package monitord

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/vuln"
)

// reportJSON and assessmentJSON copy a report and an assessment into their
// wire structs: json.Encoder over them is the reference rendering the
// daemon's hand-appended bodies must match byte for byte.
func reportJSON(r diversity.Report) ReportJSON {
	return ReportJSON{
		Support:                 r.Support,
		Members:                 r.Members,
		Entropy:                 r.Entropy,
		NormalizedEntropy:       r.NormalizedEntropy,
		EffectiveConfigurations: r.EffectiveConfigurations,
		SimpsonIndex:            r.SimpsonIndex,
		MaxShare:                r.MaxShare,
		Kappa:                   r.Kappa,
		Omega:                   r.Omega,
		MinConfigFaultsToThird:  r.MinConfigFaultsToThird,
		MinConfigFaultsToHalf:   r.MinConfigFaultsToHalf,
	}
}

func assessmentJSON(tenant string, a core.Assessment) AssessmentJSON {
	out := AssessmentJSON{
		Tenant:        tenant,
		At:            Duration(a.At),
		Substrate:     a.Substrate,
		Threshold:     a.Threshold,
		Safe:          a.Safe,
		TotalFraction: a.Injection.TotalFraction,
		SumFraction:   a.Injection.SumFraction,
		Diversity:     reportJSON(a.Diversity),
	}
	for _, f := range a.Injection.Faults {
		out.Faults = append(out.Faults, FaultJSON{
			Vuln:          string(f.Vuln),
			Compromised:   f.Compromised,
			Power:         f.Power,
			PowerFraction: f.PowerFraction,
		})
	}
	return out
}

// FuzzAssessmentBody: the hand-appended assessment and report bodies are
// byte for byte what json.Encoder writes for assessmentJSON and reportJSON,
// in slices of exactly their length, and a non-finite float anywhere is
// refused as encoding/json refuses it. Names are names split at '|'; the
// three floats are spread over every float field; shape bit 0 leaves out
// the faults, bit 1 gives an empty compromised list as nil, bit 2 makes the
// tenant name empty (an omitted field). A second assessment body is then
// appended with the first as the kept body to borrow pieces from: its
// powers and fractions moved, its first fault's names the same slice and
// its second fault's a new one, and it too must be json.Encoder's bytes.
func FuzzAssessmentBody(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, names := range []string{
		"r-0001|r-0002", `quote"d|back\slash`, "<script>&amp;|x<y|a>b|amp&", "nul\x00|bell\x07|tab\t|nl\n|us\x1f|del\x7f",
		"line\u2028sep|para\u2029sep", "bad\xffutf8|cut\xc3|\xed\xa0\x80", "héllo|日本|emoji😀", "",
	} {
		f.Add("bench", "CVE-2024-1", names, 0.25, 1.0/3, 12.5, int64(3), int64(2), uint8(0), int64(time.Hour))
	}
	for _, x := range []float64{1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1.5e21, 123456789, negZero, 0, 5e-324, math.MaxFloat64} {
		f.Add("t", "v", "a|b", x, -x, x*3, int64(0), int64(0), uint8(0), int64(1500*time.Microsecond))
	}
	f.Add("t", "v", "", 0.5, 0.25, 1.0, int64(0), int64(0), uint8(2), int64(0))   // empty compromised list, nil
	f.Add("t", "v", "", 0.5, 0.25, 1.0, int64(0), int64(0), uint8(0), int64(0))   // empty compromised list, not nil
	f.Add("", "v", "a", 0.5, 0.25, 1.0, int64(-1), int64(7), uint8(5), int64(-3)) // no faults, no tenant
	f.Add("t", `v"<&>`, "a", math.NaN(), 0.25, 1.0, int64(1), int64(1), uint8(0), int64(0))
	f.Add("t", "v", "a", 0.5, math.Inf(1), 1.0, int64(1), int64(1), uint8(1), int64(0))
	f.Add("t", "v", "a", 0.5, 0.25, math.Inf(-1), int64(1), int64(1), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, tenant, vulnID, names string, x, y, z float64, kappa, omega int64, shape uint8, at int64) {
		if shape&4 != 0 {
			tenant = ""
		}
		compromised := []string{}
		if names != "" {
			compromised = strings.Split(names, "|")
		} else if shape&2 != 0 {
			compromised = nil
		}
		a := core.Assessment{
			At: time.Duration(at),
			Diversity: diversity.Report{
				Support: len(names), Members: int(kappa + omega),
				Entropy: x, NormalizedEntropy: y, EffectiveConfigurations: z, SimpsonIndex: x, MaxShare: y,
				Kappa: int(kappa), Omega: int(omega),
				MinConfigFaultsToThird: int(kappa), MinConfigFaultsToHalf: int(omega),
			},
			Injection: vuln.Injection{
				TotalFraction: y,
				SumFraction:   z,
				Faults: []vuln.Fault{
					{Vuln: vuln.ID(vulnID), Compromised: compromised, Power: z, PowerFraction: x},
					{Vuln: vuln.ID(tenant), Compromised: []string{vulnID}, Power: x, PowerFraction: y},
				},
			},
			Substrate: vulnID,
			Threshold: x,
			Safe:      shape&8 != 0,
		}
		if shape&1 != 0 {
			a.Injection.Faults = nil
		}
		finite := true
		for _, v := range []float64{x, y, z} {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		var kept *encodedBody
		keep := func(body []byte, faults []faultPiece, err error) ([]byte, error) {
			if err != nil && faults != nil {
				t.Fatalf("pieces %v kept beside error %v", faults, err)
			}
			for _, p := range faults {
				if piece := string(body[p.lo:p.hi]); !strings.HasPrefix(piece, `{"vuln":`) || !strings.HasSuffix(piece, `,"power":`) {
					t.Fatalf("piece of %q is %q", p.vuln, piece)
				}
			}
			kept = &encodedBody{body: body, faults: faults}
			return body, err
		}
		next := a
		next.Injection.Faults = slices.Clone(a.Injection.Faults)
		for i := range next.Injection.Faults {
			f := &next.Injection.Faults[i]
			f.Power, f.PowerFraction = f.PowerFraction, f.Power
			if i == 1 {
				f.Compromised = append(slices.Clone(f.Compromised), names)
			}
		}
		for _, c := range []struct {
			name string
			got  func() ([]byte, error)
			ref  any
		}{
			{"assessment", func() ([]byte, error) { return keep(assessmentBody(tenant, a, nil)) }, assessmentJSON(tenant, a)},
			{"assessment from kept pieces", func() ([]byte, error) { return keep(assessmentBody(tenant, next, kept)) }, assessmentJSON(tenant, next)},
			{"report", func() ([]byte, error) { return reportBody(a.Diversity, nil) }, reportJSON(a.Diversity)},
			{"report after a kept body", func() ([]byte, error) { return reportBody(a.Diversity, kept) }, reportJSON(a.Diversity)},
		} {
			got, err := c.got()
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(c.ref)
			switch {
			case !finite && err == nil:
				t.Fatalf("%s: non-finite float accepted: %s", c.name, got)
			case (err == nil) != (wantErr == nil):
				t.Fatalf("%s: appender error %v, encoding/json error %v", c.name, err, wantErr)
			case err != nil && err.Error() != wantErr.Error():
				t.Fatalf("%s: appender error %q, encoding/json error %q", c.name, err, wantErr)
			case err == nil && !bytes.Equal(got, want.Bytes()):
				t.Fatalf("%s:\n got %s\nwant %s", c.name, got, want.Bytes())
			case cap(got) != len(got):
				t.Fatalf("%s: %d-byte body in a %d-byte slice", c.name, len(got), cap(got))
			}
		}
	})
}
