package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/assessbench"
	"repro/internal/monitord"
)

// The serve workloads drive monitord with a seeded operation stream. The
// tenant shape is the assessbench one (32 OS products × 97 power classes ×
// 5 patch latencies), because that is the shape BENCH_assess.json already
// describes: group counts saturate, so the core's cost is O(Δ) and a
// request's cost is mostly everything around the core.

const (
	// tenantNow is where every tenant's virtual clock stands: mid-horizon,
	// with a handful of exposure windows open.
	tenantNow = assessbench.Instant
	// worstHorizon is the ?horizon= every worst request asks for.
	worstHorizon = assessbench.Horizon
	osClass      = "operating-system"
)

type opKind uint8

const (
	opAssess opKind = iota
	opReport
	opWorst
	opPower
	opMigrate
	opJoin
	opLeave
	opVuln
	numOpKinds
)

var opKindNames = [numOpKinds]string{"assess", "report", "worst", "power", "migrate", "join", "leave", "vuln"}

// Request classes: what a caller of the daemon experiences as one kind of
// request. Latency is reported per class.
const (
	classRead = iota
	classWorst
	classMutate
	numClasses
)

var classNames = [numClasses]string{"read", "worst", "mutate"}

func (k opKind) class() int {
	switch k {
	case opAssess, opReport:
		return classRead
	case opWorst:
		return classWorst
	default:
		return classMutate
	}
}

// mix is a request mix in per-mille, indexed by opKind.
type mix [numOpKinds]int

var (
	// readMix never changes state: every assessment is a cache hit.
	readMix = mix{opAssess: 700, opReport: 200, opWorst: 100}
	// churnMix interleaves mutations with reads, so every read pays the
	// delta path and every worst pays a re-sweep.
	churnMix = mix{opPower: 225, opMigrate: 150, opJoin: 60, opLeave: 60, opVuln: 5, opAssess: 400, opWorst: 100}
)

// op is one generated request. Only the fields its kind needs are set.
type op struct {
	kind    opKind
	tenant  int
	replica int                  // base replica index (power, migrate)
	spec    monitord.ReplicaSpec // join: full spec; leave: ID only
	power   float64              // power
	product int                  // migrate, join
	vuln    monitord.VulnSpec    // vuln
}

func tenantName(i int) string  { return fmt.Sprintf("t-%02d", i) }
func replicaID(i int) string   { return fmt.Sprintf("r-%07d", i) }
func productName(p int) string { return fmt.Sprintf("os-%d", p) }
func latencyOf(i int) time.Duration {
	return time.Duration(i%assessbench.LatencyClasses) * 12 * time.Hour
}

func osComponents(product int) []monitord.ComponentSpec {
	return []monitord.ComponentSpec{{Class: osClass, Name: productName(product), Version: "1"}}
}

func vulnSpec(id string, product int, disclosed time.Duration) monitord.VulnSpec {
	return monitord.VulnSpec{
		ID: id, Class: osClass, Product: productName(product),
		Disclosed: monitord.Duration(disclosed),
		PatchAt:   monitord.Duration(disclosed + 48*time.Hour),
		Severity:  1,
	}
}

// tenantSpec builds tenant t's seed population: the assessbench stripes,
// rotated by a seeded offset so different seeds give different tenants.
func tenantSpec(sz sizing, seed int64, t int) monitord.TenantSpec {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(t)))
	offP, offW := rng.Intn(assessbench.Products), rng.Intn(assessbench.PowerClasses)
	spec := monitord.TenantSpec{Virtual: true}
	for i := 0; i < sz.replicas; i++ {
		spec.Replicas = append(spec.Replicas, monitord.ReplicaSpec{
			ID:           replicaID(i),
			Components:   osComponents((i + offP) % assessbench.Products),
			Power:        float64(1 + (i+offW)%assessbench.PowerClasses),
			PatchLatency: monitord.Duration(latencyOf(i)),
		})
	}
	span := assessbench.Horizon - 24*time.Hour
	for i := 0; i < sz.vulns; i++ {
		spec.Vulns = append(spec.Vulns, vulnSpec(fmt.Sprintf("CVE-s-%04d", i),
			(i+offP)%assessbench.Products, time.Duration(i)*span/time.Duration(sz.vulns)))
	}
	return spec
}

// opGen is one caller's seeded operation stream. Caller c of n owns the
// base replicas whose index is ≡ c (mod n) and its own join and CVE id
// namespaces, so callers never touch the same state and the final state
// does not depend on how their requests interleave.
type opGen struct {
	rng             *rand.Rand
	mix             mix
	sz              sizing
	caller, callers int
	joined          []op // this caller's joins not yet left, oldest first
	joins, vulns    int
}

func newOpGen(sz sizing, m mix, seed int64, caller, callers int) *opGen {
	return &opGen{
		rng: rand.New(rand.NewSource(seed*7_368_787 + int64(caller)*104_729 + 1)),
		mix: m, sz: sz, caller: caller, callers: callers,
	}
}

func (g *opGen) next() op {
	roll, kind := g.rng.Intn(1000), opAssess
	for k, share := range g.mix {
		if roll < share {
			kind = opKind(k)
			break
		}
		roll -= share
	}
	if kind == opLeave && len(g.joined) == 0 {
		kind = opJoin // nothing of ours to leave yet
	}
	o := op{kind: kind, tenant: g.rng.Intn(g.sz.tenants)}
	switch kind {
	case opPower, opMigrate:
		owned := (g.sz.replicas - g.caller + g.callers - 1) / g.callers
		o.replica = g.caller + g.callers*g.rng.Intn(owned)
		o.power = float64(1 + g.rng.Intn(assessbench.PowerClasses))
		o.product = g.rng.Intn(assessbench.Products)
	case opJoin:
		o.product = g.rng.Intn(assessbench.Products)
		o.spec = monitord.ReplicaSpec{
			ID:           fmt.Sprintf("j-%d-%06d", g.caller, g.joins),
			Components:   osComponents(o.product),
			Power:        float64(1 + g.rng.Intn(assessbench.PowerClasses)),
			PatchLatency: monitord.Duration(latencyOf(g.rng.Intn(assessbench.LatencyClasses))),
		}
		g.joins++
		g.joined = append(g.joined, o)
	case opLeave:
		o.tenant, o.spec.ID = g.joined[0].tenant, g.joined[0].spec.ID
		g.joined = g.joined[1:]
	case opVuln:
		span := assessbench.Horizon - 24*time.Hour
		o.vuln = vulnSpec(fmt.Sprintf("CVE-c%d-%05d", g.caller, g.vulns),
			g.rng.Intn(assessbench.Products), time.Duration(g.rng.Int63n(int64(span/time.Hour)))*time.Hour)
		g.vulns++
	}
	return o
}

// request renders the op as the HTTP request a monitord client sends.
func (o op) request(base string) (*http.Request, error) {
	url := base + "/tenants/" + tenantName(o.tenant)
	var method string
	var body any
	switch o.kind {
	case opAssess:
		method, url = http.MethodGet, url+"/assessment"
	case opReport:
		method, url = http.MethodGet, url+"/report"
	case opWorst:
		method, url = http.MethodGet, url+"/worst?horizon="+worstHorizon.String()
	case opPower:
		method, url, body = http.MethodPatch, url+"/replicas/"+replicaID(o.replica), monitord.ReplicaPatch{Power: &o.power}
	case opMigrate:
		method, url, body = http.MethodPatch, url+"/replicas/"+replicaID(o.replica), monitord.ReplicaPatch{Components: osComponents(o.product)}
	case opJoin:
		method, url, body = http.MethodPost, url+"/replicas", o.spec
	case opLeave:
		method, url = http.MethodDelete, url+"/replicas/"+o.spec.ID
	case opVuln:
		method, url, body = http.MethodPost, url+"/vulns", o.vuln
	}
	return jsonRequest(method, url, body)
}

// opListHash fingerprints the first n ops of every caller's stream: the
// generator is the benchmark's input, so it must repeat exactly per seed.
func opListHash(sz sizing, m mix, seed int64, callers, n int) string {
	h := sha256.New()
	for c := 0; c < callers; c++ {
		g := newOpGen(sz, m, seed, c, callers)
		for i := 0; i < n; i++ {
			o := g.next()
			fmt.Fprintf(h, "%d %s %d %d %v %d %v %v\n", c, opKindNames[o.kind], o.tenant, o.replica, o.power, o.product, o.spec, o.vuln)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// model is the benchmark's own record of what the daemon acknowledged: the
// state every tenant must be in once the run ends. Callers write disjoint
// parts of it (their own base-replica residue class, their own joined map
// and CVE list), so it needs no lock.
type model struct {
	tenants []tenantModel
}

type tenantModel struct {
	spec   monitord.TenantSpec               // seed population, base replicas patched in place
	joined []map[string]monitord.ReplicaSpec // per caller
	vulns  [][]monitord.VulnSpec             // per caller
}

func newModel(sz sizing, seed int64, callers int) *model {
	m := &model{tenants: make([]tenantModel, sz.tenants)}
	for t := range m.tenants {
		tm := &m.tenants[t]
		tm.spec = tenantSpec(sz, seed, t)
		tm.joined = make([]map[string]monitord.ReplicaSpec, callers)
		for c := range tm.joined {
			tm.joined[c] = make(map[string]monitord.ReplicaSpec)
		}
		tm.vulns = make([][]monitord.VulnSpec, callers)
	}
	return m
}

// apply records one acknowledged op.
func (m *model) apply(caller int, o op) {
	tm := &m.tenants[o.tenant]
	switch o.kind {
	case opPower:
		tm.spec.Replicas[o.replica].Power = o.power
	case opMigrate:
		tm.spec.Replicas[o.replica].Components = osComponents(o.product)
	case opJoin:
		tm.joined[caller][o.spec.ID] = o.spec
	case opLeave:
		delete(tm.joined[caller], o.spec.ID)
	case opVuln:
		tm.vulns[caller] = append(tm.vulns[caller], o.vuln)
	}
}

// finalSpec is tenant t's end state as one creation spec.
func (m *model) finalSpec(t int) monitord.TenantSpec {
	tm := &m.tenants[t]
	spec := tm.spec
	spec.Replicas = append([]monitord.ReplicaSpec(nil), spec.Replicas...)
	spec.Vulns = append([]monitord.VulnSpec(nil), spec.Vulns...)
	for c := range tm.joined {
		for _, rs := range tm.joined[c] {
			spec.Replicas = append(spec.Replicas, rs)
		}
		spec.Vulns = append(spec.Vulns, tm.vulns[c]...)
	}
	return spec
}
