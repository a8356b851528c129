package sim

import (
	"math/rand"
	"testing"
)

// TestRandIsTheSeededStream: the scheduler's source, seeded on its first
// draw, gives the stream rand.New(rand.NewSource(seed)) gives, through
// every kind of draw and across a re-seed before and after the first draw.
func TestRandIsTheSeededStream(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		for _, reseedFirst := range []bool{false, true} {
			got, want := NewScheduler(seed).Rand(), rand.New(rand.NewSource(seed))
			if reseedFirst {
				got.Seed(seed + 1)
				want.Seed(seed + 1)
			}
			for round := 0; round < 3; round++ {
				a, b := make([]byte, 13), make([]byte, 13)
				got.Read(a)
				want.Read(b)
				pairs := [][2]any{
					{got.Int63(), want.Int63()},
					{got.Uint64(), want.Uint64()},
					{got.Float64(), want.Float64()},
					{got.Intn(1000), want.Intn(1000)},
					{got.Int63n(1 << 50), want.Int63n(1 << 50)},
					{got.NormFloat64(), want.NormFloat64()},
					{string(a), string(b)},
					{len(got.Perm(17)), len(want.Perm(17))},
				}
				for i, p := range pairs {
					if p[0] != p[1] {
						t.Fatalf("seed %d, reseed first %t, round %d, draw %d: %v, want %v", seed, reseedFirst, round, i, p[0], p[1])
					}
				}
				got.Seed(seed + int64(round))
				want.Seed(seed + int64(round))
			}
		}
	}
}

// TestUndrawnSchedulerBuildsNoSource: a scheduler nobody draws from costs
// its own struct and a rand.Rand, not the 4.9 kB source.
func TestUndrawnSchedulerBuildsNoSource(t *testing.T) {
	var s *Scheduler
	if got := testing.AllocsPerRun(100, func() { s = NewScheduler(42) }); got > 2 {
		t.Fatalf("NewScheduler allocates %.0f objects, want ≤ 2", got)
	}
	if s.src.src != nil {
		t.Fatal("NewScheduler seeded its source before any draw")
	}
	s.Rand().Int63()
	if s.src.src == nil {
		t.Fatal("a draw left the source unseeded")
	}
}
