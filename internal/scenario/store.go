package scenario

import (
	"math/rand"

	"repro/internal/spec"
	"repro/internal/vuln"
)

// workerStore is the storage a sweep worker carries from one timeline to
// the next: Sweep gives each worker one and threads it through every
// generation and run the worker makes. Any other Generate or Run gets an
// empty one, so a run with kept storage and one without take the same path.
// Nothing in it is a result: every value a run reads out of it is
// recomputed from the run's own inputs; only the memory is reused.
type workerStore struct {
	// records is the storage of the last trace, handed back by Sweep once
	// the run is summarised; Run appends the next trace into it.
	records []Record
	// events is the storage of the last generated timeline's events,
	// handed back by Sweep once the run is over.
	events []Event
	// gen is the generator's source, re-seeded for every timeline.
	gen *rand.Rand
	// configs builds each distinct component list's configuration once.
	configs spec.Configurations
	// oracle is what the oracle-agreement observers keep between samples.
	oracle oracleStore
}

// recycle takes back the storage of a generated timeline and its run once
// the caller is done reading both: the next generate and Run start from it.
func (st *workerStore) recycle(tl *Timeline, res *Result) {
	st.records, st.events = res.Records, tl.Events
}

// genRand returns the worker's generator source in the state
// rand.New(rand.NewSource(seed)) starts in: Seed resets all of it.
func (st *workerStore) genRand(seed int64) *rand.Rand {
	if st.gen == nil {
		st.gen = rand.New(rand.NewSource(seed))
	} else {
		st.gen.Seed(seed)
	}
	return st.gen
}

// oracleStore is the storage of the oracle cross-check: the buffers each
// sampled snapshot's replicas and buckets are read into, and the two
// reference injectors rebuilt from them.
type oracleStore struct {
	replicas []vuln.Replica
	specs    []vuln.BucketSpec
	flat     vuln.Injector
	grouped  vuln.GroupInjector
}
