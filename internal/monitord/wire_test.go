package monitord

import (
	"encoding/json"
	"testing"

	"repro/internal/scenario"
)

// FuzzDurationDecoders: the daemon's and the timeline grammar's Duration
// decode the same JSON values. For any operand d in {"d": d}, both accept or
// both reject, and what they accept is the same duration.
func FuzzDurationDecoders(f *testing.F) {
	for _, seed := range []string{`"72h"`, `259200000000000`, `-1`, `"0s"`, `null`, `1e9`, `"+5h"`} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, operand string) {
		doc := []byte(`{"d": ` + operand + `}`)
		var m struct{ D Duration }
		var s struct{ D scenario.Duration }
		errM := json.Unmarshal(doc, &m)
		errS := json.Unmarshal(doc, &s)
		if (errM == nil) != (errS == nil) {
			t.Fatalf("%s: monitord err %v, scenario err %v", doc, errM, errS)
		}
		if errM == nil && int64(m.D) != int64(s.D) {
			t.Fatalf("%s: monitord %d, scenario %d", doc, int64(m.D), int64(s.D))
		}
	})
}
