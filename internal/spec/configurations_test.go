package spec

import "testing"

// TestConfigurationsBuildEachList: one memo fed lists that repeat, or differ
// only in a version, a name, a class, their order or where one field ends
// and the next begins, returns for each the configuration
// BuildConfiguration builds from that list; a repeated list is a lookup,
// and a failing list fails every time with BuildConfiguration's error.
func TestConfigurationsBuildEachList(t *testing.T) {
	os := func(name, version string) ComponentSpec {
		return ComponentSpec{Class: "operating-system", Name: name, Version: version}
	}
	ssl := ComponentSpec{Class: "crypto-library", Name: "openssl", Version: "3"}
	lists := [][]ComponentSpec{
		{os("linux", "6.1")},
		{os("linux", "5.15")},
		{os("linux6", ".1")},
		{{Class: "runtime", Name: "linux", Version: "6.1"}},
		{os("linux", "6.1"), ssl},
		{ssl, os("linux", "6.1")},
		{ssl},
	}
	var memo Configurations
	for round := 0; round < 3; round++ {
		for i, list := range lists {
			got, err := memo.Build(list)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildConfiguration(list)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("round %d, list %d: %v, the list builds %v", round, i, got, want)
			}
		}
	}
	if n := len(memo.built); n != len(lists) {
		t.Fatalf("%d configurations kept for %d distinct lists", n, len(lists))
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := memo.Build(lists[4]); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("a repeated list allocates %.0f objects", got)
	}
	bad := []ComponentSpec{os("linux", "6.1"), os("", "12")}
	_, want := BuildConfiguration(bad)
	for i := 0; i < 2; i++ {
		if _, err := memo.Build(bad); err == nil || err.Error() != want.Error() {
			t.Fatalf("failing list, call %d: error %v, want %v", i, err, want)
		}
	}
}
