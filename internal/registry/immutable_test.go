package registry

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/config"
	"repro/internal/cryptoutil"
	"repro/internal/diversity"
)

// fingerprint hashes everything a snapshot exports except its generation:
// weighting, distribution, member count, the power classes as carried and
// as recounted from the buckets (recountClasses, so two snapshots'
// fingerprints never agree only because one merge built both histograms),
// and every bucket with its groups' units, latencies and names in listing
// order.
func fingerprint(s *Snapshot) uint64 {
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	str := func(x string) { put(uint64(len(x))); h.Write([]byte(x)) }
	put(math.Float64bits(s.Weighting.Attested))
	put(math.Float64bits(s.Weighting.Declared))
	fmt.Fprint(h, s.Distribution)
	put(uint64(s.members))
	for _, classes := range [][]diversity.PowerClass{s.classes, recountClasses(s.buckets)} {
		put(uint64(len(classes)))
		for _, c := range classes {
			put(c.Units)
			put(uint64(c.Count))
		}
	}
	for _, sb := range s.buckets {
		str(sb.Key)
		str(sb.Config.Canonical())
		put(uint64(sb.Count))
		put(sb.Units)
		put(uint64(len(sb.Groups)))
		for _, g := range sb.Groups {
			put(g.Units)
			put(uint64(g.Latency))
			put(uint64(len(g.Names)))
			for _, name := range g.Names {
				str(name)
			}
		}
	}
	return h.Sum64()
}

// immutabilityWeightings are the two weightings the checks read under: one
// that exports the registry's own groups, and one that halves declared
// power, so declared groups go out as weighted copies and a bucket mixing
// tiers can leave raw attack order.
var immutabilityWeightings = []Weighting{DefaultWeighting, {Attested: 1, Declared: 0.5}}

// checkSnapshotsImmutable runs up to steps random Join (declared or
// attested) / Leave / SetPower / Migrate steps, drawing every choice from
// pick(n) ∈ [0, n) until it reports false, and takes a snapshot under a
// random weighting after about half of them. Every snapshot is
// fingerprinted when it is built and again at the end, and must not have
// changed; the last snapshot under each weighting must equal a fresh
// registry's over the final membership.
func checkSnapshotsImmutable(t *testing.T, steps int, pick func(n int) (int, bool)) {
	t.Helper()
	auth := attest.NewAuthority("tpm2")
	cfgs := make([]config.Configuration, 4)
	for i := range cfgs {
		cfgs[i] = testCfg(fmt.Sprintf("os-%d", i))
	}
	join := func(r *Registry, id ReplicaID, cfg config.Configuration, power float64, latency time.Duration, attested bool) error {
		if !attested {
			return r.JoinDeclared(id, cfg, power, latency)
		}
		dev, err := attest.NewDevice("tpm2", uint64(len(r.records)))
		if err != nil {
			return err
		}
		q, err := dev.QuoteConfig(cfg, cryptoutil.DeriveKeyPair("vote/"+string(id), 0).Public, auth.IssueNonce())
		if err != nil {
			return err
		}
		return r.JoinAttested(id, cfg, q, power, latency)
	}

	type kept struct {
		s    *Snapshot
		fp   uint64
		step int
	}
	var snaps []kept
	r := New(auth)
	var alive []ReplicaID
	for step := 0; step < steps; step++ {
		op, ok := pick(5)
		if !ok {
			break
		}
		var err error
		switch {
		case op <= 1 && len(alive) < 48 || len(alive) < 2:
			id := ReplicaID(fmt.Sprintf("r-%05d", step))
			c, _ := pick(len(cfgs))
			p, _ := pick(3)
			l, _ := pick(2)
			err = join(r, id, cfgs[c], float64(1+p), time.Duration(l)*time.Hour, op == 1)
			alive = append(alive, id)
		case op <= 2:
			i, _ := pick(len(alive))
			err = r.Leave(alive[i])
			alive = slices.Delete(alive, i, i+1)
		case op == 3:
			i, _ := pick(len(alive))
			p, _ := pick(3)
			err = r.SetPower(alive[i], float64(1+p))
		default:
			i, _ := pick(len(alive))
			c, _ := pick(len(cfgs))
			err = r.Migrate(alive[i], cfgs[c])
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if read, _ := pick(2); read == 1 {
			w, _ := pick(len(immutabilityWeightings))
			s := mustSnapshot(t, r, immutabilityWeightings[w])
			if want := recountClasses(s.buckets); !slices.Equal(s.classes, want) {
				t.Fatalf("step %d, %+v: carried classes %v, recounted %v", step, s.Weighting, s.classes, want)
			}
			snaps = append(snaps, kept{s, fingerprint(s), step})
		}
	}
	for _, k := range snaps {
		if fp := fingerprint(k.s); fp != k.fp {
			t.Fatalf("the snapshot taken after step %d under %+v changed later", k.step, k.s.Weighting)
		}
	}

	fresh := New(auth)
	for _, rec := range r.Records() {
		if err := join(fresh, rec.ID, rec.Config, rec.Power, rec.PatchLatency, rec.Tier == TierAttested); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range immutabilityWeightings {
		if got, want := fingerprint(mustSnapshot(t, r, w)), fingerprint(mustSnapshot(t, fresh, w)); got != want {
			t.Fatalf("under %+v the last snapshot differs from a fresh registry's", w)
		}
	}
}

// TestSnapshotsAreImmutable: a group a snapshot holds is never edited. A
// mutation of its members replaces it, so every snapshot of 10 000 random
// steps still reads, at the end, exactly what it read when it was built.
func TestSnapshotsAreImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	checkSnapshotsImmutable(t, 10_000, func(n int) (int, bool) { return rng.Intn(n), true })
}

// FuzzSnapshotImmutability drives the same check from the fuzzer's bytes,
// one byte per choice.
func FuzzSnapshotImmutability(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 3, 0, 2, 1, 4, 1, 3, 1, 2, 0, 1})
	f.Add([]byte("a snapshot keeps what it was built with"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkSnapshotsImmutable(t, len(ops), func(n int) (int, bool) {
			if len(ops) == 0 {
				return 0, false
			}
			b := ops[0]
			ops = ops[1:]
			return int(b) % n, true
		})
	})
}
