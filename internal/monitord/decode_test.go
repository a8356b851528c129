package monitord

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// decodeBodySeeds are FuzzRequestBodies' bodies with the operands
// TestWireVocabularyPinned pins — every class name and duration form, in
// the join, disclosure, advance and tenant bodies — plus non-canonical
// bodies that take encoding/json's path.
func decodeBodySeeds(tb testing.TB) []string {
	var seeds []string
	for _, class := range []string{`"trusted-hardware"`, `"operating-system"`, `"crypto-library"`, `"consensus-module"`,
		`"wallet"`, `"database"`, `"runtime"`, `""`, `"Operating-System"`, `"class(1)"`, `"flux-capacitor"`} {
		seeds = append(seeds,
			`{"id":"r","power":1,"components":[{"class":`+class+`,"name":"x","version":"1"}],"patchLatency":"1h"}`,
			`{"id":"v","class":`+class+`,"product":"x","version":"1","disclosed":"1h","patchAt":"1000h","severity":1}`)
	}
	for _, d := range []string{`"72h"`, `"-1h"`, `"+5h"`, `"1.5h"`, `"0s"`, `259200000000000`, `-1`, `0`, `1e9`, `1.0`, `"1e9"`, `null`, `true`, `9223372036854775808`} {
		seeds = append(seeds,
			`{"by":`+d+`}`,
			`{"to":`+d+`}`,
			`{"watchInterval":`+d+`,"virtual":true}`,
			`{"id":"r","power":1,"components":[{"class":"operating-system","name":"x","version":"1"}],"patchLatency":`+d+`}`,
			`{"id":"v","class":"operating-system","product":"ubuntu","disclosed":`+d+`,"patchAt":`+d+`,"severity":1}`)
	}
	return append(seeds,
		`{"id":"strict","power":1,"components":[{"class":"operating-system","name":"plan9"}]}`,
		`{"power":2}`,
		`{"power":99,"components":[{"class":"flux-capacitor","name":"x","version":"1"}]}`,
		`{"power":1.7e308}`,
		`{"power":1e400}`,
		`{"power":-0.0e-0}`,
		`{"components":[{"class":"operating-system","name":"netbsd","version":"10"}]}`,
		`{"components":[]}`,
		`{"virtual":true,"substrate":"raft"}`,
		`{"threshold":0.4,"substrate":"bft"}`,
		`{"weighting":{"attested":1,"declared":0.5},"replicas":[{"id":"a","power":1,"components":[]}]}`,
		`{"weighting":{},"replicas":[],"vulns":[]}`,
		`{"by":"1s"} garbage`,
		` { "by" : "1s" , "to" : 0 } `+"\t\r\n",
		// Non-canonical: encoding/json decides.
		`{"Power":2}`,
		`{"id":"r\u0031","power":1}`,
		`{"id":"r","power":1,"colour":"red"}`,
		`{"power":1,"power":2}`,
		`{"power":2}}`,
		`{"power":null}`,
		`{"power":"2"}`,
		`{"virtual":1}`,
		`{"id":"é","power":1}`,
		`[]`,
		`null`,
		``,
		` `,
		`{"power":01}`,
		`{"power":1.}`,
		`{"power":.5}`,
		`{"power":1,}`,
		`{"virtual":tru}`,
		string(mustJSON(tb, testSpec())),
		string(mustJSON(tb, fleetSpec(3))),
	)
}

// decodeBothWays decodes body into a fresh T by decodeBody and by
// decodeJSON alone under the same limit, and fails t unless they agree on
// the verdict, the status, the error text and the value. sized says
// whether the request carries a Content-Length.
func decodeBothWays[T any](t *testing.T, body string, sized bool) {
	t.Helper()
	request := func() *http.Request {
		req := httptest.NewRequest("POST", "/", strings.NewReader(body))
		if !sized {
			req.ContentLength = -1
		}
		return req
	}
	var got, want T
	gotW, wantW := httptest.NewRecorder(), httptest.NewRecorder()
	gotOK := decodeBody(gotW, request(), &got)
	wantOK := decodeJSON(wantW, http.MaxBytesReader(wantW, request().Body, maxBodyBytes), &want)
	if gotOK != wantOK || gotW.Code != wantW.Code || gotW.Body.String() != wantW.Body.String() {
		t.Fatalf("%T from %.200q (sized %t): decodeBody (%t, %d %s), encoding/json (%t, %d %s)",
			got, body, sized, gotOK, gotW.Code, gotW.Body, wantOK, wantW.Code, wantW.Body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %.200q (sized %t):\n got %#v\nwant %#v", got, body, sized, got, want)
	}
}

// decodeAllWays is decodeBothWays for each of the five request bodies.
func decodeAllWays(t *testing.T, body string, sized bool) {
	t.Helper()
	decodeBothWays[TenantSpec](t, body, sized)
	decodeBothWays[ReplicaSpec](t, body, sized)
	decodeBothWays[ReplicaPatch](t, body, sized)
	decodeBothWays[VulnSpec](t, body, sized)
	decodeBothWays[AdvanceSpec](t, body, sized)
}

// FuzzDecodeBody: for any body, with or without a Content-Length, and each
// of the five request bodies, decodeBody — canonical decoder first — and
// encoding/json alone give the same verdict, status, error text and value.
func FuzzDecodeBody(f *testing.F) {
	for _, body := range decodeBodySeeds(f) {
		f.Add(body, true)
	}
	f.Fuzz(func(t *testing.T, body string, sized bool) {
		decodeAllWays(t, body, sized)
	})
}

// TestDecodeBodyAtTheLimit: past maxBodyBytes decodeBody answers as
// encoding/json reading the limited body does — a 413 for a value cut off
// or followed by whitespace past the limit, a 400 for a syntax error before
// it — and up to the limit decodes as usual.
func TestDecodeBodyAtTheLimit(t *testing.T) {
	comp := `{"class":"operating-system","name":"debian","version":"12"}`
	for _, body := range []string{
		`{"power":2}` + strings.Repeat(" ", maxBodyBytes) + "garbage",
		`{"power":2,"components":[` + comp + strings.Repeat(","+comp, maxBodyBytes/(len(comp)+1)) + `]}`,
		`{"power":2}` + strings.Repeat(" ", maxBodyBytes-len(`{"power":2}`)),
		`{"power":2}` + strings.Repeat(" ", maxBodyBytes-len(`{"power":2}x`)) + "x",
		`{"power":2,"colour":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
		`{"power":2,"components":[` + comp + `],}` + strings.Repeat(" ", maxBodyBytes),
	} {
		for _, sized := range []bool{true, false} {
			decodeBothWays[ReplicaPatch](t, body, sized)
		}
	}
}

// TestCanonicalBodies: what a client's json.Marshal writes for each body
// is canonical and decodes to encoding/json's value; each kind of
// non-canonical body is refused, for encoding/json to decode.
func TestCanonicalBodies(t *testing.T) {
	power := -2.5e-7
	for _, v := range []any{
		testSpec(), fleetSpec(40), TenantSpec{}, TenantSpec{Weighting: &WeightingSpec{Attested: 1, Declared: 0.25}, Replicas: []ReplicaSpec{}},
		TenantSpec{Substrate: "nakamoto", Threshold: 0.4, WatchInterval: Duration(90 * time.Second)},
		testSpec().Replicas[0], ReplicaSpec{ID: "x", Components: []ComponentSpec{}},
		ReplicaPatch{Power: &power}, ReplicaPatch{Components: testSpec().Replicas[1].Components},
		testSpec().Vulns[0], VulnSpec{ID: "v", PatchAt: -1},
		AdvanceSpec{By: Duration(time.Hour)}, AdvanceSpec{To: Duration(1)},
	} {
		body := mustJSON(t, v)
		got := reflect.New(reflect.TypeOf(v))
		if !decodeCanonical(body, got.Interface()) {
			t.Errorf("%T %s: not canonical", v, body)
			continue
		}
		want := reflect.New(reflect.TypeOf(v))
		if err := json.Unmarshal(body, want.Interface()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("%s:\n got %#v\nwant %#v", body, got.Elem(), want.Elem())
		}
	}
	for _, body := range []string{
		``, ` `, `null`, `{"power":null}`, `{"Power":2}`, `{"POWER":2}`, `{"power":2,"power":3}`,
		`{"power":2,"colour":1}`, `{"power":2} 1`, `{"power":2}}`, `{"power":"2"}`, `{"power":1e999}`,
		`{"components":[{"class":"operating-system","name":"a\u0062","version":"1"}]}`,
		`{"components":[{"class":"operating-system","name":"á","version":"1"}]}`,
		`{"components":[{"class":"operating-system","name":"a","version":"1","version":"2"}]}`,
		`{"components":null}`, `{"components":{}}`,
	} {
		var p ReplicaPatch
		if decodeCanonical([]byte(body), &p) {
			t.Errorf("PATCH body %q taken as canonical: %#v", body, p)
		}
		if !reflect.DeepEqual(p, ReplicaPatch{}) {
			t.Errorf("PATCH body %q refused but left %#v", body, p)
		}
	}
	for _, body := range []string{`{"by":"1h","to":"2h","by":"3h"}`, `{"by":"1\u0068"}`, `{"by":1e9}`, `{"by":"1x"}`, `{"by":true}`} {
		var a AdvanceSpec
		if decodeCanonical([]byte(body), &a) {
			t.Errorf("advance body %q taken as canonical: %#v", body, a)
		}
	}
	for _, body := range []string{`{"virtual":"true"}`, `{"weighting":{"attested":1,"Declared":1}}`, `{"replicas":[{"id":"a"},]}`, `{"vulns":[{"severity":1,"severity":1}]}`} {
		var ts TenantSpec
		if decodeCanonical([]byte(body), &ts) {
			t.Errorf("tenant body %q taken as canonical: %#v", body, ts)
		}
	}
}

// allocated runs f once to warm up, then runs times, and returns the heap
// objects and bytes it allocated per run, on one P as testing.AllocsPerRun
// counts.
func allocated(runs int, f func()) (objects, size float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCreateTenantAllocations pins the cost of taking in a population: a
// PUT of a 2000-replica tenant in the bench's stripes through
// Server.ServeHTTP (with the DELETE that lets it repeat), and the decode of
// a PATCH's {"power":…} body.
func TestCreateTenantAllocations(t *testing.T) {
	const (
		// Measured 12 750 objects and 1.21 MB (Go 1.24, linux/amd64; 12 886
		// under -race), plus 10 %. With every body through json.Decoder and
		// a configuration built per replica it was 22 092 objects, 1.81 MB.
		createCeiling = 14_025
		// Measured 3 objects and 56 B: the limited reader, the buffer and
		// the power. Through json.Decoder a PATCH decode is 9 objects and
		// 1000 B (1016 measured).
		patchCeiling = 3.3
	)
	s := NewServer()
	defer s.Close()
	spec := mustJSON(t, fleetSpec(2000))
	objects, size := allocated(5, func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("PUT", "/tenants/fleet", bytes.NewReader(spec)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("PUT: %d %s", rec.Code, rec.Body)
		}
		if err := s.Manager().Delete("fleet"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PUT of %d bytes: %.0f objects, %.0f B", len(spec), objects, size)
	if objects > createCeiling {
		t.Errorf("PUT of 2000 replicas allocates %.0f objects, ceiling %d", objects, createCeiling)
	}

	body := strings.NewReader(`{"power":42}`)
	req := httptest.NewRequest("PATCH", "/tenants/fleet/replicas/r-0000001", body)
	req.Body = io.NopCloser(body)
	w := httptest.NewRecorder()
	objects, size = allocated(1000, func() {
		_, _ = body.Seek(0, io.SeekStart)
		var p ReplicaPatch
		if !decodeBody(w, req, &p) || *p.Power != 42 {
			t.Fatalf("PATCH decode: %d %s", w.Code, w.Body)
		}
	})
	t.Logf("PATCH decode: %.1f objects, %.0f B", objects, size)
	if objects > patchCeiling {
		t.Errorf("PATCH decode allocates %.1f objects, ceiling %.1f", objects, patchCeiling)
	}
}
