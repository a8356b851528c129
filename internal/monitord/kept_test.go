package monitord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/vuln"
)

// keptSpec is a tenant on which faults overlap and change piecemeal: three
// products in two versions, severities below 1, windows open at the start.
func keptSpec() TenantSpec {
	spec := TenantSpec{Virtual: true}
	for i := 0; i < 12; i++ {
		spec.Replicas = append(spec.Replicas, ReplicaSpec{
			ID:           fmt.Sprintf("r-%02d", i),
			Components:   []ComponentSpec{{Class: "operating-system", Name: []string{"ubuntu", "freebsd", "openbsd"}[i%3], Version: []string{"1", "2"}[i%2]}},
			Power:        float64(1 + i%4),
			PatchLatency: Duration(time.Duration(i%3) * 6 * time.Hour),
		})
	}
	for i := 0; i < 6; i++ {
		vs := VulnSpec{
			ID: fmt.Sprintf("CVE-k-%02d", i), Class: "operating-system", Product: []string{"ubuntu", "freebsd", "openbsd"}[i%3],
			Disclosed: Duration(time.Duration(i) * 3 * time.Hour), PatchAt: Duration(time.Duration(i+8) * 6 * time.Hour),
			Severity: []float64{1, 0.5, 0.7}[i%3],
		}
		if i%2 == 1 {
			vs.Version = "1"
		}
		spec.Vulns = append(spec.Vulns, vs)
	}
	return spec
}

// TestKeptFaultsAndBodiesAreImmutable: an Injection the monitor handed out
// and the assessment body sent for it read the same, byte for byte, after
// 100 later mutations — joins, leaves, power changes, migrations,
// disclosures, advances and worst-window sweeps — each followed by a read
// whose body reuses the unchanged faults' kept pieces. Every such body is
// also held to json.Encoder over the monitor's assessment: a piece lent
// after its fault changed shows there.
func TestKeptFaultsAndBodiesAreImmutable(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	if code := do(t, srv, "PUT", "/tenants/kept", keptSpec(), nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	tenant, _ := srv.Manager().Get("kept")
	if _, err := tenant.AdvanceTo(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// read GETs the assessment and holds its body to encoding/json over the
	// monitor's own assessment at the same instant.
	read := func(what string) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tenants/kept/assessment", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: GET assessment %d: %s", what, rec.Code, rec.Body)
		}
		a, err := tenant.Monitor.Assess(tenant.Now())
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(assessmentJSON("kept", a)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%s: body\n got %s\nwant %s", what, rec.Body, want.Bytes())
		}
	}
	read("first read")
	held, err := tenant.Monitor.Assess(tenant.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(held.Injection.Faults) == 0 {
		t.Fatal("no faults at the held instant: the test holds nothing")
	}
	heldInj := held.Injection
	wantInj := heldInj
	wantInj.Faults = slices.Clone(heldInj.Faults)
	for i := range wantInj.Faults {
		wantInj.Faults[i].Compromised = slices.Clone(heldInj.Faults[i].Compromised)
	}
	heldBody := tenant.assessmentBody.Load().body
	wantBody := slices.Clone(heldBody)

	rng := rand.New(rand.NewSource(45))
	ids := []string{}
	for _, r := range keptSpec().Replicas {
		ids = append(ids, r.ID)
	}
	joined, disclosed := 0, 0
	for step := 0; step < 100; step++ {
		var what string
		switch op := rng.Intn(6); {
		case op == 0 || len(ids) < 3:
			joined++
			r := ReplicaSpec{
				ID:           fmt.Sprintf("j-%03d", joined),
				Components:   []ComponentSpec{{Class: "operating-system", Name: []string{"ubuntu", "freebsd", "openbsd"}[rng.Intn(3)], Version: []string{"1", "2"}[rng.Intn(2)]}},
				Power:        float64(1 + rng.Intn(4)),
				PatchLatency: Duration(time.Duration(rng.Intn(3)) * 6 * time.Hour),
			}
			if code := do(t, srv, "POST", "/tenants/kept/replicas", r, nil); code != http.StatusCreated {
				t.Fatalf("join %s: %d", r.ID, code)
			}
			ids = append(ids, r.ID)
			what = "join " + r.ID
		case op == 1:
			i := rng.Intn(len(ids))
			if code := do(t, srv, "DELETE", "/tenants/kept/replicas/"+ids[i], nil, nil); code != http.StatusNoContent {
				t.Fatalf("leave %s: %d", ids[i], code)
			}
			what = "leave " + ids[i]
			ids = slices.Delete(ids, i, i+1)
		case op == 2:
			id, power := ids[rng.Intn(len(ids))], float64(1+rng.Intn(6))
			if code := do(t, srv, "PATCH", "/tenants/kept/replicas/"+id, ReplicaPatch{Power: &power}, nil); code != http.StatusNoContent {
				t.Fatalf("power %s: %d", id, code)
			}
			what = fmt.Sprintf("power %s %v", id, power)
		case op == 3:
			id := ids[rng.Intn(len(ids))]
			to := []ComponentSpec{{Class: "operating-system", Name: []string{"ubuntu", "freebsd", "openbsd"}[rng.Intn(3)], Version: []string{"1", "2"}[rng.Intn(2)]}}
			if code := do(t, srv, "PATCH", "/tenants/kept/replicas/"+id, ReplicaPatch{Components: to}, nil); code != http.StatusNoContent {
				t.Fatalf("migrate %s: %d", id, code)
			}
			what = "migrate " + id
		case op == 4:
			disclosed++
			at := tenant.Now() + time.Duration(rng.Intn(3))*time.Hour
			vs := VulnSpec{
				ID: fmt.Sprintf("CVE-n-%03d", disclosed), Class: "operating-system", Product: []string{"ubuntu", "freebsd", "openbsd"}[rng.Intn(3)],
				Disclosed: Duration(at), PatchAt: Duration(at + time.Duration(rng.Intn(5))*6*time.Hour), Severity: float64(1+rng.Intn(10)) / 10,
			}
			if code := do(t, srv, "POST", "/tenants/kept/vulns", vs, nil); code != http.StatusCreated {
				t.Fatalf("disclose %s: %d", vs.ID, code)
			}
			what = "disclose " + vs.ID
		default:
			by := time.Duration(1+rng.Intn(4)) * 3 * time.Hour
			if code := do(t, srv, "POST", "/tenants/kept/advance", AdvanceSpec{By: Duration(by)}, nil); code != http.StatusOK {
				t.Fatalf("advance %v: %d", by, code)
			}
			what = fmt.Sprintf("advance %v", by)
		}
		if rng.Intn(4) == 0 {
			if code := do(t, srv, "GET", "/tenants/kept/worst?horizon=240h", nil, nil); code != http.StatusOK {
				t.Fatalf("step %d (%s): worst %d", step, what, code)
			}
		}
		read(fmt.Sprintf("step %d (%s)", step, what))
	}
	if !injectionsEqual(heldInj, wantInj) {
		t.Fatalf("held injection changed:\n got %+v\nwant %+v", heldInj, wantInj)
	}
	if !bytes.Equal(heldBody, wantBody) {
		t.Fatalf("held body changed:\n got %s\nwant %s", heldBody, wantBody)
	}
	if stats := tenant.Monitor.Stats(); stats.DeltaApplies < 50 {
		t.Fatalf("%d delta applies over 100 mutations: the reads did not follow the writes", stats.DeltaApplies)
	}
}

// injectionsEqual compares two injections field by field, names included.
func injectionsEqual(a, b vuln.Injection) bool {
	if a.At != b.At || a.TotalFraction != b.TotalFraction || a.SumFraction != b.SumFraction || len(a.Faults) != len(b.Faults) {
		return false
	}
	for i := range a.Faults {
		fa, fb := a.Faults[i], b.Faults[i]
		if fa.Vuln != fb.Vuln || fa.Power != fb.Power || fa.PowerFraction != fb.PowerFraction || !slices.Equal(fa.Compromised, fb.Compromised) {
			return false
		}
	}
	return true
}
