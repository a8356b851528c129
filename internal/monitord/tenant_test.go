package monitord

import (
	"fmt"
	"testing"

	"repro/internal/spec"
)

// TestConfigurationsPerDistinctList: a seed whose component lists repeat,
// or differ only in a version, a name, their order or where one field ends
// and the next begins, gives each replica the configuration
// spec.BuildConfiguration builds from its own list; and the first replica
// whose list fails stops the seed with that list's error.
func TestConfigurationsPerDistinctList(t *testing.T) {
	os := func(name, version string) ComponentSpec {
		return ComponentSpec{Class: "operating-system", Name: name, Version: version}
	}
	ssl := ComponentSpec{Class: "crypto-library", Name: "openssl", Version: "3"}
	lists := [][]ComponentSpec{
		{os("ubuntu", "22.04")},
		{os("ubuntu", "22.10")},
		{os("ubuntu2", "2.04")},
		{os("ubuntu", "22.04"), ssl},
		{ssl, os("ubuntu", "22.04")},
		{ssl},
	}
	var ts TenantSpec
	for i := 0; i < 4*len(lists); i++ {
		ts.Replicas = append(ts.Replicas, ReplicaSpec{ID: fmt.Sprintf("r-%02d", i), Components: lists[i%len(lists)], Power: 1})
	}
	tn, err := buildTenant("t", ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range tn.Registry.Records() {
		want, err := spec.BuildConfiguration(lists[i%len(lists)])
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Config.Equal(want) {
			t.Errorf("%s: configuration %v, its list builds %v", rec.ID, rec.Config, want)
		}
	}

	for _, bad := range [][]ComponentSpec{
		{{Class: "flux-capacitor", Name: "x", Version: "1"}},
		{os("ubuntu", "22.04"), os("", "12")},
	} {
		_, want := spec.BuildConfiguration(bad)
		if want == nil {
			t.Fatalf("%v builds", bad)
		}
		failing := ts
		failing.Replicas = append(append(ts.Replicas[:7:7],
			ReplicaSpec{ID: "bad", Components: bad, Power: 1},
			ReplicaSpec{ID: "bad-again", Components: bad, Power: 1}),
			ts.Replicas[7:]...)
		if _, err := buildTenant("t", failing); err == nil || err.Error() != want.Error() {
			t.Errorf("seed with %v: error %v, want %v", bad, err, want)
		}
	}
}
