package integration

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/monitord"
	"repro/internal/scenario"
)

// wirePin is what the daemon's request bodies and the timeline grammar make
// of one operand: a class name (class rows) or a duration (duration rows).
// Each outcome is the reply to the body carrying the operand — status, body
// and, when accepted, the duration as decoded — or ParseTimeline's verdict.
type wirePin struct {
	operand                       string // JSON text
	join, vuln, advance, timeline string
}

// wirePinClasses: the seven canonical names, then four that name nothing.
var wirePinClasses = []wirePin{
	{operand: `"trusted-hardware"`,
		join:     `201 {"id":"r"}`,
		vuln:     `201 {"id":"v"}`,
		timeline: `trusted-hardware 3600000000000`},
	{operand: `"operating-system"`,
		join:     `201 {"id":"r"}`,
		vuln:     `201 {"id":"v"}`,
		timeline: `operating-system 3600000000000`},
	{operand: `"crypto-library"`,
		join:     `201 {"id":"r"}`,
		vuln:     `201 {"id":"v"}`,
		timeline: `crypto-library 3600000000000`},
	{operand: `"consensus-module"`,
		join:     `201 {"id":"r"}`,
		vuln:     `201 {"id":"v"}`,
		timeline: `consensus-module 3600000000000`},
	{operand: `"wallet"`,
		join:     `201 {"id":"r"}`,
		vuln:     `201 {"id":"v"}`,
		timeline: `wallet 3600000000000`},
	{operand: `"database"`,
		join:     `201 {"id":"r"}`,
		vuln:     `201 {"id":"v"}`,
		timeline: `database 3600000000000`},
	{operand: `"runtime"`,
		join:     `201 {"id":"r"}`,
		vuln:     `201 {"id":"v"}`,
		timeline: `runtime 3600000000000`},
	{operand: `""`,
		join:     `400 {"error":"config: unknown component class \"\""}`,
		vuln:     `400 {"error":"config: unknown component class \"\""}`,
		timeline: `error: scenario: timeline pin: event 0: config: unknown component class ""`},
	{operand: `"Operating-System"`,
		join:     `400 {"error":"config: unknown component class \"Operating-System\""}`,
		vuln:     `400 {"error":"config: unknown component class \"Operating-System\""}`,
		timeline: `error: scenario: timeline pin: event 0: config: unknown component class "Operating-System"`},
	{operand: `"class(1)"`,
		join:     `400 {"error":"config: unknown component class \"class(1)\""}`,
		vuln:     `400 {"error":"config: unknown component class \"class(1)\""}`,
		timeline: `error: scenario: timeline pin: event 0: config: unknown component class "class(1)"`},
	{operand: `"flux-capacitor"`,
		join:     `400 {"error":"config: unknown component class \"flux-capacitor\""}`,
		vuln:     `400 {"error":"config: unknown component class \"flux-capacitor\""}`,
		timeline: `error: scenario: timeline pin: event 0: config: unknown component class "flux-capacitor"`},
}

// wirePinDurations: every form a duration operand can take on the wire.
var wirePinDurations = []wirePin{
	{operand: `"72h"`,
		join:     `201 {"id":"r"} | 259200000000000`,
		vuln:     `201 {"id":"v"} | 259200000000000`,
		advance:  `200 {"now":"72h0m0s"} | 259200000000000`,
		timeline: `operating-system 259200000000000`},
	{operand: `"-1h"`,
		join:     `201 {"id":"r"} | -3600000000000`,
		vuln:     `201 {"id":"v"} | -3600000000000`,
		advance:  `400 {"error":"negative by -1h0m0s"}`,
		timeline: `error: scenario: timeline pin: event 0: join r with negative patch latency -1h0m0s`},
	{operand: `"+5h"`,
		join:     `201 {"id":"r"} | 18000000000000`,
		vuln:     `201 {"id":"v"} | 18000000000000`,
		advance:  `200 {"now":"5h0m0s"} | 18000000000000`,
		timeline: `operating-system 18000000000000`},
	{operand: `"1.5h"`,
		join:     `201 {"id":"r"} | 5400000000000`,
		vuln:     `201 {"id":"v"} | 5400000000000`,
		advance:  `200 {"now":"1h30m0s"} | 5400000000000`,
		timeline: `operating-system 5400000000000`},
	{operand: `"0s"`,
		join:     `201 {"id":"r"} | 0`,
		vuln:     `201 {"id":"v"} | 0`,
		advance:  `400 {"error":"set exactly one of by/to"}`,
		timeline: `operating-system 0`},
	{operand: `259200000000000`,
		join:     `201 {"id":"r"} | 259200000000000`,
		vuln:     `201 {"id":"v"} | 259200000000000`,
		advance:  `200 {"now":"72h0m0s"} | 259200000000000`,
		timeline: `operating-system 259200000000000`},
	{operand: `-1`,
		join:     `201 {"id":"r"} | -1`,
		vuln:     `201 {"id":"v"} | -1`,
		advance:  `400 {"error":"negative by -1ns"}`,
		timeline: `error: scenario: timeline pin: event 0: join r with negative patch latency -1ns`},
	{operand: `0`,
		join:     `201 {"id":"r"} | 0`,
		vuln:     `201 {"id":"v"} | 0`,
		advance:  `400 {"error":"set exactly one of by/to"}`,
		timeline: `operating-system 0`},
	{operand: `1e9`,
		join:     `400 {"error":"bad request body: spec: bad duration 1e9: strconv.ParseInt: parsing \"1e9\": invalid syntax"}`,
		vuln:     `400 {"error":"bad request body: spec: bad duration 1e9: strconv.ParseInt: parsing \"1e9\": invalid syntax"}`,
		advance:  `400 {"error":"bad request body: spec: bad duration 1e9: strconv.ParseInt: parsing \"1e9\": invalid syntax"}`,
		timeline: `error: scenario: decode timeline: spec: bad duration 1e9: strconv.ParseInt: parsing "1e9": invalid syntax`},
	{operand: `1.0`,
		join:     `400 {"error":"bad request body: spec: bad duration 1.0: strconv.ParseInt: parsing \"1.0\": invalid syntax"}`,
		vuln:     `400 {"error":"bad request body: spec: bad duration 1.0: strconv.ParseInt: parsing \"1.0\": invalid syntax"}`,
		advance:  `400 {"error":"bad request body: spec: bad duration 1.0: strconv.ParseInt: parsing \"1.0\": invalid syntax"}`,
		timeline: `error: scenario: decode timeline: spec: bad duration 1.0: strconv.ParseInt: parsing "1.0": invalid syntax`},
	{operand: `"1e9"`,
		join:     `400 {"error":"bad request body: spec: bad duration \"1e9\": time: unknown unit \"e\" in duration \"1e9\""}`,
		vuln:     `400 {"error":"bad request body: spec: bad duration \"1e9\": time: unknown unit \"e\" in duration \"1e9\""}`,
		advance:  `400 {"error":"bad request body: spec: bad duration \"1e9\": time: unknown unit \"e\" in duration \"1e9\""}`,
		timeline: `error: scenario: decode timeline: spec: bad duration "1e9": time: unknown unit "e" in duration "1e9"`},
	{operand: `null`,
		join:     `400 {"error":"bad request body: spec: bad duration null: strconv.ParseInt: parsing \"null\": invalid syntax"}`,
		vuln:     `400 {"error":"bad request body: spec: bad duration null: strconv.ParseInt: parsing \"null\": invalid syntax"}`,
		advance:  `400 {"error":"bad request body: spec: bad duration null: strconv.ParseInt: parsing \"null\": invalid syntax"}`,
		timeline: `error: scenario: decode timeline: spec: bad duration null: strconv.ParseInt: parsing "null": invalid syntax`},
	{operand: `true`,
		join:     `400 {"error":"bad request body: spec: bad duration true: strconv.ParseInt: parsing \"true\": invalid syntax"}`,
		vuln:     `400 {"error":"bad request body: spec: bad duration true: strconv.ParseInt: parsing \"true\": invalid syntax"}`,
		advance:  `400 {"error":"bad request body: spec: bad duration true: strconv.ParseInt: parsing \"true\": invalid syntax"}`,
		timeline: `error: scenario: decode timeline: spec: bad duration true: strconv.ParseInt: parsing "true": invalid syntax`},
	{operand: `9223372036854775808`,
		join:     `400 {"error":"bad request body: spec: bad duration 9223372036854775808: strconv.ParseInt: parsing \"9223372036854775808\": value out of range"}`,
		vuln:     `400 {"error":"bad request body: spec: bad duration 9223372036854775808: strconv.ParseInt: parsing \"9223372036854775808\": value out of range"}`,
		advance:  `400 {"error":"bad request body: spec: bad duration 9223372036854775808: strconv.ParseInt: parsing \"9223372036854775808\": value out of range"}`,
		timeline: `error: scenario: decode timeline: spec: bad duration 9223372036854775808: strconv.ParseInt: parsing "9223372036854775808": value out of range`},
}

// pinRequest sends body to a fresh virtual tenant and renders the reply;
// decoded, when the reply is a 2xx, appends the duration the body decodes to.
func pinRequest(t *testing.T, route, body string, decoded func([]byte) string) string {
	t.Helper()
	s := monitord.NewServer()
	defer s.Close()
	if _, err := s.Manager().Create("t", monitord.TenantSpec{Virtual: true}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/tenants/t/"+route, strings.NewReader(body)))
	out := fmt.Sprintf("%d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	if rec.Code/100 == 2 && decoded != nil {
		out += " | " + decoded([]byte(body))
	}
	return out
}

// decodeInto returns a decoder reporting one duration field of T after
// unmarshalling a body into it.
func decodeInto[T any](field func(*T) int64) func([]byte) string {
	return func(body []byte) string {
		var v T
		if err := json.Unmarshal(body, &v); err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprint(field(&v))
	}
}

// pinTimeline parses a one-join timeline and renders the verdict.
func pinTimeline(class, latency string) string {
	tl, err := scenario.ParseTimeline([]byte(`{"name":"pin","horizon":"100h","events":[{"op":"join","at":"0s","id":"r",` +
		`"config":[{"class":` + class + `,"name":"x","version":"1"}],"power":1,"patch_latency":` + latency + `}]}`))
	if err != nil {
		return "error: " + err.Error()
	}
	ev := tl.Events[0]
	return fmt.Sprintf("%s %d", ev.Config[0].Class, int64(ev.PatchLatency))
}

// TestWireVocabularyPinned: every class name and every duration form, fed
// through the daemon's join, disclosure and advance bodies and through a
// one-event timeline — what each accepts, what it decodes and the exact
// error text of what it rejects.
func TestWireVocabularyPinned(t *testing.T) {
	joinLatency := decodeInto(func(rs *monitord.ReplicaSpec) int64 { return int64(rs.PatchLatency) })
	vulnDisclosed := decodeInto(func(vs *monitord.VulnSpec) int64 { return int64(vs.Disclosed) })
	advanceBy := decodeInto(func(as *monitord.AdvanceSpec) int64 { return int64(as.By) })
	check := func(want wirePin, class, d string, durations bool) {
		t.Helper()
		join := `{"id":"r","power":1,"components":[{"class":` + class + `,"name":"x","version":"1"}],"patchLatency":` + d + `}`
		vuln := `{"id":"v","class":` + class + `,"product":"x","version":"1","disclosed":` + d + `,"patchAt":"1000h","severity":1}`
		got := wirePin{operand: want.operand, timeline: pinTimeline(class, d)}
		if durations {
			got.join = pinRequest(t, "replicas", join, joinLatency)
			got.vuln = pinRequest(t, "vulns", vuln, vulnDisclosed)
			got.advance = pinRequest(t, "advance", `{"by":`+d+`}`, advanceBy)
		} else {
			got.join = pinRequest(t, "replicas", join, nil)
			got.vuln = pinRequest(t, "vulns", vuln, nil)
		}
		if got != want {
			t.Errorf("operand %s:\n got %#v\nwant %#v", want.operand, got, want)
		}
	}
	for _, want := range wirePinClasses {
		check(want, want.operand, `"1h"`, false)
	}
	for _, want := range wirePinDurations {
		check(want, `"operating-system"`, want.operand, true)
	}
}
