package monitord

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzRequestBodies: whatever body arrives on a mutating route, the daemon
// answers without a panic and without a 5xx, a route that refuses the body
// with a 4xx leaves the tenant's generation, vulnerability count and clock
// as they were, and the tenant it was aimed at stays readable — GET tenant
// 200, GET assessment 200 or 422 (a state it cannot assess, such as a
// non-finite total power). The seeds are every class name and duration
// form the wire vocabulary pins, and the bodies the handler tests send.
func FuzzRequestBodies(f *testing.F) {
	for _, class := range []string{`"operating-system"`, `"trusted-hardware"`, `"wallet"`, `""`, `"Operating-System"`, `"class(1)"`, `"flux-capacitor"`} {
		f.Add(`{"id":"r","power":1,"components":[{"class":` + class + `,"name":"x","version":"1"}]}`)
		f.Add(`{"id":"v","class":` + class + `,"product":"x","version":"1","disclosed":"1h","patchAt":"1000h","severity":1}`)
	}
	for _, d := range []string{`"72h"`, `"-1h"`, `"+5h"`, `"1.5h"`, `"0s"`, `259200000000000`, `-1`, `0`, `1e9`, `1.0`, `"1e9"`, `null`, `true`, `9223372036854775808`} {
		f.Add(`{"by":` + d + `}`)
		f.Add(`{"to":` + d + `}`)
		f.Add(`{"watchInterval":` + d + `,"virtual":true}`)
		f.Add(`{"id":"v","class":"operating-system","product":"ubuntu","disclosed":` + d + `,"patchAt":` + d + `,"severity":1}`)
	}
	f.Add(`{"id":"strict","power":1,"components":[{"class":"operating-system","name":"plan9"}]}`)
	f.Add(`{"power":2}`)
	f.Add(`{"power":99,"components":[{"class":"flux-capacitor","name":"x","version":"1"}]}`)
	f.Add(`{"power":1.7e308}`)
	f.Add(`{"components":[{"class":"operating-system","name":"netbsd","version":"10"}]}`)
	f.Add(`{"virtual":true,"substrate":"raft"}`)
	f.Add(`{"threshold":0.4,"substrate":"bft"}`)
	f.Add(`{"weighting":{"attested":1,"declared":0.5},"replicas":[{"id":"a","power":1,"components":[]}]}`)
	f.Add(`{"by":"1s"} garbage`)
	f.Add(string(mustJSON(f, testSpec())))
	f.Fuzz(func(t *testing.T, body string) {
		s := NewServer()
		defer s.Close()
		x, err := s.Manager().Create("x", testSpec())
		if err != nil {
			t.Fatal(err)
		}
		state := func() [3]uint64 {
			return [3]uint64{x.Registry.Generation(), uint64(x.Catalog.Len()), uint64(x.Now())}
		}
		for _, r := range []struct{ method, path string }{
			{"PUT", "/tenants/fuzz"},
			{"POST", "/tenants/x/replicas"},
			{"PATCH", "/tenants/x/replicas/bob"},
			{"POST", "/tenants/x/vulns"},
			{"POST", "/tenants/x/advance"},
		} {
			before := state()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s %s %q: %d %s", r.method, r.path, body, rec.Code, rec.Body)
			}
			if after := state(); rec.Code >= 400 && after != before {
				t.Fatalf("%s %s %q: refused with %d but (generation, vulns, now) moved from %v to %v", r.method, r.path, body, rec.Code, before, after)
			}
		}
		for path, ok := range map[string]func(int) bool{
			"/tenants/x":            func(code int) bool { return code == http.StatusOK },
			"/tenants/x/assessment": func(code int) bool { return code == http.StatusOK || code == http.StatusUnprocessableEntity },
		} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if !ok(rec.Code) {
				t.Fatalf("after %q: GET %s: %d %s", body, path, rec.Code, rec.Body)
			}
		}
	})
}
