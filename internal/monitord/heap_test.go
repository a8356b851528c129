package monitord

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fleetSpec is a virtual tenant of n replicas striped over 32 OS products,
// 97 power classes and 5 patch latencies, with 64 disclosures spread over
// the first 30 days.
func fleetSpec(n int) TenantSpec {
	ts := TenantSpec{Virtual: true}
	for i := 0; i < n; i++ {
		ts.Replicas = append(ts.Replicas, ReplicaSpec{
			ID:           fmt.Sprintf("r-%07d", i),
			Components:   []ComponentSpec{{Class: "operating-system", Name: fmt.Sprintf("os-%d", i%32), Version: "1"}},
			Power:        float64(1 + i%97),
			PatchLatency: Duration(time.Duration(i%5) * 12 * time.Hour),
		})
	}
	for i := 0; i < 64; i++ {
		at := time.Duration(i) * 11 * time.Hour
		ts.Vulns = append(ts.Vulns, VulnSpec{
			ID: fmt.Sprintf("CVE-%04d", i), Class: "operating-system", Product: fmt.Sprintf("os-%d", i%32),
			Disclosed: Duration(at), PatchAt: Duration(at + 48*time.Hour), Severity: 1,
		})
	}
	return ts
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTenantHeapAllocations: a 2 000-replica tenant, created and read,
// retains at most its ceiling per replica, and 20 000 mutations with reads
// interleaved leave it no more than a bound larger: what it keeps is its
// state, not the history of how it got there.
func TestTenantHeapAllocations(t *testing.T) {
	const (
		replicas = 2000
		// Measured 216.9 B per replica (Go 1.24, linux/amd64; 218.0 under
		// -race), plus 10 %. With a bucket pointer in every registry group,
		// which put it in the 64-byte size class, it was 232.7 B; with each
		// group held three times (registry, snapshot copy, injector record)
		// and a two-word entry per replica, 317.7 B.
		ceiling = 239
		// Bytes the tenant may grow by over the mutations: measured 12-18 kB,
		// where a journal of every mutation alone would hold 4 096-8 192
		// entries of 80 B.
		growth = 64 << 10
	)
	s := NewServer()
	defer s.Close()
	body := fleetSpec(replicas)
	read := func() {
		for _, path := range []string{"/tenants/fleet/assessment", "/tenants/fleet/worst"} {
			if code := do(t, s, "GET", path, nil, nil); code != http.StatusOK {
				t.Fatalf("GET %s: %d", path, code)
			}
		}
	}

	base := heapAfterGC()
	if code := do(t, s, "PUT", "/tenants/fleet", body, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	read()
	created := heapAfterGC()
	perReplica := float64(created-base) / replicas
	t.Logf("created and read: %.1f B per replica", perReplica)
	if perReplica > ceiling {
		t.Errorf("created and read: %.1f B per replica, ceiling %d", perReplica, ceiling)
	}

	for i := 0; i < 20_000; i++ {
		path := fmt.Sprintf("/tenants/fleet/replicas/r-%07d", i*7%replicas)
		var patch ReplicaPatch
		if i%2 == 0 {
			power := float64(1 + i%97)
			patch.Power = &power
		} else {
			patch.Components = []ComponentSpec{{Class: "operating-system", Name: fmt.Sprintf("os-%d", i%32), Version: "1"}}
		}
		if code := do(t, s, "PATCH", path, patch, nil); code != http.StatusNoContent {
			t.Fatalf("PATCH %s: %d", path, code)
		}
		if i%10 == 9 {
			read()
		}
	}
	grown := int64(heapAfterGC()) - int64(created)
	t.Logf("after 20 000 mutations: grown by %d B", grown)
	if grown > growth {
		t.Errorf("after 20 000 mutations the tenant grew by %d B, bound %d", grown, growth)
	}
	runtime.KeepAlive(s)
	// The spec was built before base: freed any earlier, it would take its
	// own bytes off both measurements.
	runtime.KeepAlive(body)
}

// TestUnreadBurstOnWire: after 4 097 mutations nobody reads, the next
// assessment is the one a tenant created in the final state answers.
func TestUnreadBurstOnWire(t *testing.T) {
	s := NewServer()
	defer s.Close()
	final := fleetSpec(64)
	if code := do(t, s, "PUT", "/tenants/fed", final, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := do(t, s, "GET", "/tenants/fed/assessment", nil, nil); code != http.StatusOK {
		t.Fatalf("first read: %d", code)
	}
	for i := 0; i < 4097; i++ {
		r := i % len(final.Replicas)
		power := float64(1 + i%13)
		final.Replicas[r].Power = power
		if code := do(t, s, "PATCH", "/tenants/fed/replicas/"+final.Replicas[r].ID, ReplicaPatch{Power: &power}, nil); code != http.StatusNoContent {
			t.Fatalf("PATCH: %d", code)
		}
	}
	var got, want AssessmentJSON
	if code := do(t, s, "GET", "/tenants/fed/assessment", nil, &got); code != http.StatusOK {
		t.Fatalf("read after the burst: %d", code)
	}
	if code := do(t, s, "PUT", "/tenants/fresh", final, nil); code != http.StatusCreated {
		t.Fatalf("create fresh: %d", code)
	}
	do(t, s, "GET", "/tenants/fresh/assessment", nil, &want)
	got.Tenant, want.Tenant = "", ""
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("assessment after the burst\n got %+v\nwant %+v", got, want)
	}
}

// TestBodyLimitIs413: a body longer than maxBodyBytes is refused with a 413
// whatever its first maxBodyBytes hold, and one just under it is decoded as
// usual.
func TestBodyLimitIs413(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if code := do(t, s, "PUT", "/tenants/prod", testSpec(), nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	comp := `{"class":"operating-system","name":"debian","version":"12"}`
	huge := `{"power":2,"components":[` + comp + strings.Repeat(","+comp, 8_800_000/(len(comp)+1)) + `]}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"trailing garbage past the limit", `{"power":2}` + strings.Repeat(" ", maxBodyBytes) + "garbage", http.StatusRequestEntityTooLarge},
		{"valid value past the limit", huge, http.StatusRequestEntityTooLarge},
		{"whitespace up to the limit", `{"power":2}` + strings.Repeat(" ", maxBodyBytes-len(`{"power":2}`)), http.StatusNoContent},
		{"garbage up to the limit", `{"power":2}` + strings.Repeat(" ", maxBodyBytes-len(`{"power":2}x`)) + "x", http.StatusBadRequest},
	} {
		req := httptest.NewRequest("PATCH", "/tenants/prod/replicas/alice", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s (%d bytes): %d %s, want %d", tc.name, len(tc.body), rec.Code, rec.Body.Bytes(), tc.want)
			continue
		}
		if tc.want == http.StatusRequestEntityTooLarge {
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s: 413 body %q is not an error body", tc.name, rec.Body.Bytes())
			}
		}
	}
}
