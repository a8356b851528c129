// Package spec is the wire vocabulary the scenario timeline grammar and the
// monitord request bodies share: durations, stack components and
// disclosures as JSON values, and their conversion into config and vuln
// values (Sec. III-A's configurations, Sec. II-C's vulnerabilities). It
// imports nothing above config and vuln, so both drivers can sit on it.
package spec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/config"
	"repro/internal/vuln"
)

// Duration is a time.Duration that marshals as its String form, keeping
// JSON human-readable ("36h0m0s" rather than 129600000000000).
// Unmarshalling accepts both a duration string ("72h") and a JSON integer
// of nanoseconds (259200000000000).
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON encodes the duration as its canonical string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON decodes either a duration string or integer nanoseconds;
// the first byte says which. A plain string (PlainQuoted) that parses is
// read in place; any other string goes through json.Unmarshal, whose values
// and errors are the reference.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		if n := PlainQuoted(b); n == len(b) {
			if v, err := time.ParseDuration(string(b[1 : n-1])); err == nil {
				*d = Duration(v)
				return nil
			}
		}
		s, err := unquote(b)
		if err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("spec: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("spec: bad duration %s: %w", b, err)
	}
	*d = Duration(n)
	return nil
}

// unquote decodes a quoted JSON string. Its string lives in this function
// so that only the slow path of UnmarshalJSON puts one on the heap.
func unquote(b []byte) (string, error) {
	var s string
	err := json.Unmarshal(b, &s)
	return s, err
}

// PlainQuoted returns the length, quotes included, of the quoted JSON
// string b starts with when that string decodes to its own contents:
// printable ASCII, no backslash. It returns 0 when b starts otherwise.
func PlainQuoted(b []byte) int {
	if len(b) == 0 || b[0] != '"' {
		return 0
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < ' ' || c > '~' || c == '\\':
			return 0
		}
	}
	return 0
}

// ComponentSpec is the serializable form of one config.Component; Class is
// the canonical class name ("operating-system", "crypto-library", …).
type ComponentSpec struct {
	Class   string `json:"class"`
	Name    string `json:"name"`
	Version string `json:"version"`
}

// Component materializes the spec.
func (s ComponentSpec) Component() (config.Component, error) {
	class, err := config.ParseClass(s.Class)
	return config.Component{Class: class, Name: s.Name, Version: s.Version}, err
}

// BuildConfiguration materializes the spec list into a config.Configuration.
func BuildConfiguration(specs []ComponentSpec) (config.Configuration, error) {
	var buf [8]config.Component
	components := buf[:0]
	for _, s := range specs {
		c, err := s.Component()
		if err != nil {
			return config.Configuration{}, err
		}
		components = append(components, c)
	}
	return config.New(components...)
}

// VulnSpec is the serializable form of one vuln.Vulnerability.
type VulnSpec struct {
	ID        string   `json:"id"`
	Class     string   `json:"class"`
	Product   string   `json:"product"`
	Version   string   `json:"version,omitempty"`
	Disclosed Duration `json:"disclosed"`
	PatchAt   Duration `json:"patch_at"`
	Severity  float64  `json:"severity"`
}

// Vulnerability materializes the spec.
func (s VulnSpec) Vulnerability() (vuln.Vulnerability, error) {
	class, err := config.ParseClass(s.Class)
	if err != nil {
		return vuln.Vulnerability{}, err
	}
	return vuln.Vulnerability{
		ID: vuln.ID(s.ID), Class: class, Product: s.Product, Version: s.Version,
		Disclosed: s.Disclosed.D(), PatchAt: s.PatchAt.D(), Severity: s.Severity,
	}, nil
}

// NewVulnSpec serializes a vulnerability.
func NewVulnSpec(v vuln.Vulnerability) VulnSpec {
	return VulnSpec{
		ID: string(v.ID), Class: v.Class.String(), Product: v.Product, Version: v.Version,
		Disclosed: Duration(v.Disclosed), PatchAt: Duration(v.PatchAt), Severity: v.Severity,
	}
}
