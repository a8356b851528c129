package monitord

import (
	"bytes"
	"strconv"

	"repro/internal/spec"
)

// decodeCanonical decodes data into the zero value v points at, one of the
// five request bodies (TenantSpec, ReplicaSpec, ReplicaPatch, VulnSpec,
// AdvanceSpec), when data is canonical: an object of exact-case known keys,
// each at most once; strings spec.PlainQuoted accepts; numbers by the JSON
// grammar that strconv.ParseFloat takes; true / false; arrays and objects;
// durations through Duration.UnmarshalJSON; whitespace around tokens and
// nothing after the value. On such a body encoding/json, strict as
// decodeJSON is, sets the same fields to the same values (an empty list
// included: non-nil) and reports no error.
//
// Anything else — null, an escape, non-ASCII, a case-folded, unknown or
// repeated key, a type mismatch, a number ParseFloat refuses, a bad
// duration, trailing data, an empty body — is reported false with v left
// zero, for decodeJSON to decode and word the error.
func decodeCanonical(data []byte, v any) bool {
	c := canon{b: data}
	switch v := v.(type) {
	case *TenantSpec:
		return zeroUnless(v, c.tenant(v) && c.end())
	case *ReplicaSpec:
		return zeroUnless(v, c.replica(v) && c.end())
	case *ReplicaPatch:
		return zeroUnless(v, c.patch(v) && c.end())
	case *VulnSpec:
		return zeroUnless(v, c.vuln(v) && c.end())
	case *AdvanceSpec:
		return zeroUnless(v, c.advance(v) && c.end())
	}
	return false
}

// zeroUnless resets *v to its zero value unless ok, and returns ok.
func zeroUnless[T any](v *T, ok bool) bool {
	if !ok {
		var zero T
		*v = zero
	}
	return ok
}

// canon reads a canonical body: each method consumes one token or value,
// whitespace before it included, and reports false on anything outside
// the canonical subset.
type canon struct {
	b []byte
	i int
}

func (c *canon) skipSpace() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// next consumes the byte want.
func (c *canon) next(want byte) bool {
	c.skipSpace()
	if c.i < len(c.b) && c.b[c.i] == want {
		c.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (c *canon) end() bool {
	c.skipSpace()
	return c.i == len(c.b)
}

// quoted consumes a plain string and returns its contents.
func (c *canon) quoted() ([]byte, bool) {
	c.skipSpace()
	n := spec.PlainQuoted(c.b[c.i:])
	if n == 0 {
		return nil, false
	}
	s := c.b[c.i+1 : c.i+n-1]
	c.i += n
	return s, true
}

// number consumes a number by the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (c *canon) number() ([]byte, bool) {
	c.skipSpace()
	b, i := c.b, c.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	text := b[c.i:i]
	c.i = i
	return text, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

func (c *canon) str(dst *string) bool {
	s, ok := c.quoted()
	*dst = string(s)
	return ok
}

// float converts a number as encoding/json does: ParseFloat of its text.
func (c *canon) float(dst *float64) bool {
	text, ok := c.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(text), 64)
	*dst = f
	return err == nil
}

func (c *canon) boolean(dst *bool) bool {
	c.skipSpace()
	switch rest := c.b[c.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		c.i += len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		c.i += len("false")
	default:
		return false
	}
	return true
}

// duration hands a plain string or a number to Duration.UnmarshalJSON, as
// encoding/json hands it the value's bytes.
func (c *canon) duration(dst *Duration) bool {
	c.skipSpace()
	start := c.i
	if _, ok := c.quoted(); !ok {
		if _, ok := c.number(); !ok {
			return false
		}
	}
	return dst.UnmarshalJSON(c.b[start:c.i]) == nil
}

// object consumes an object, handing each key to field to read its value.
func (c *canon) object(field func(key []byte) bool) bool {
	if !c.next('{') {
		return false
	}
	if c.next('}') {
		return true
	}
	for {
		key, ok := c.quoted()
		if !ok || !c.next(':') || !field(key) {
			return false
		}
		if !c.next(',') {
			return c.next('}')
		}
	}
}

// list consumes an array of T into *dst, which is non-nil even when the
// array is empty, as encoding/json leaves it.
func list[T any](c *canon, dst *[]T, read func(*T) bool) bool {
	if !c.next('[') {
		return false
	}
	out := []T{}
	if !c.next(']') {
		for {
			var zero T
			out = append(out, zero)
			if !read(&out[len(out)-1]) {
				return false
			}
			if !c.next(',') {
				break
			}
		}
		if !c.next(']') {
			return false
		}
	}
	*dst = out
	return true
}

// seen holds the keys an object has had, one bit each.
type seen uint8

// once marks key bit k and reports whether it is the first.
func (s *seen) once(k uint) bool {
	first := *s&(1<<k) == 0
	*s |= 1 << k
	return first
}

func (c *canon) tenant(ts *TenantSpec) bool {
	var s seen
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "substrate":
			return s.once(0) && c.str(&ts.Substrate)
		case "threshold":
			return s.once(1) && c.float(&ts.Threshold)
		case "weighting":
			if !s.once(2) {
				return false
			}
			ts.Weighting = new(WeightingSpec)
			return c.weighting(ts.Weighting)
		case "watchInterval":
			return s.once(3) && c.duration(&ts.WatchInterval)
		case "virtual":
			return s.once(4) && c.boolean(&ts.Virtual)
		case "replicas":
			return s.once(5) && list(c, &ts.Replicas, c.replica)
		case "vulns":
			return s.once(6) && list(c, &ts.Vulns, c.vuln)
		}
		return false
	})
}

func (c *canon) weighting(ws *WeightingSpec) bool {
	var s seen
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "attested":
			return s.once(0) && c.float(&ws.Attested)
		case "declared":
			return s.once(1) && c.float(&ws.Declared)
		}
		return false
	})
}

func (c *canon) replica(rs *ReplicaSpec) bool {
	var s seen
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return s.once(0) && c.str(&rs.ID)
		case "components":
			return s.once(1) && list(c, &rs.Components, c.component)
		case "power":
			return s.once(2) && c.float(&rs.Power)
		case "patchLatency":
			return s.once(3) && c.duration(&rs.PatchLatency)
		}
		return false
	})
}

func (c *canon) component(cs *ComponentSpec) bool {
	var s seen
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "class":
			return s.once(0) && c.str(&cs.Class)
		case "name":
			return s.once(1) && c.str(&cs.Name)
		case "version":
			return s.once(2) && c.str(&cs.Version)
		}
		return false
	})
}

func (c *canon) patch(p *ReplicaPatch) bool {
	var s seen
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "power":
			if !s.once(0) {
				return false
			}
			p.Power = new(float64)
			return c.float(p.Power)
		case "components":
			return s.once(1) && list(c, &p.Components, c.component)
		}
		return false
	})
}

func (c *canon) vuln(vs *VulnSpec) bool {
	var s seen
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return s.once(0) && c.str(&vs.ID)
		case "class":
			return s.once(1) && c.str(&vs.Class)
		case "product":
			return s.once(2) && c.str(&vs.Product)
		case "version":
			return s.once(3) && c.str(&vs.Version)
		case "disclosed":
			return s.once(4) && c.duration(&vs.Disclosed)
		case "patchAt":
			return s.once(5) && c.duration(&vs.PatchAt)
		case "severity":
			return s.once(6) && c.float(&vs.Severity)
		}
		return false
	})
}

func (c *canon) advance(as *AdvanceSpec) bool {
	var s seen
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "by":
			return s.once(0) && c.duration(&as.By)
		case "to":
			return s.once(1) && c.duration(&as.To)
		}
		return false
	})
}
