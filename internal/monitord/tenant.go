package monitord

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/spec"
	"repro/internal/vuln"
)

// Errors returned by the tenant manager; handlers map them to HTTP status
// codes.
var (
	ErrTenantExists  = errors.New("monitord: tenant already exists")
	ErrUnknownTenant = errors.New("monitord: unknown tenant")
	ErrWallTenant    = errors.New("monitord: tenant runs on wall time; advance applies to virtual tenants only")
)

// Tenant is one hosted deployment: a registry, a vulnerability catalog, a
// monitor assessing them at the tenant's clock, and the hub that paces the
// tenant's watch stream and fans it out to SSE subscribers.
type Tenant struct {
	Name     string
	Registry *registry.Registry
	Catalog  *vuln.Catalog
	Monitor  *core.Monitor

	substrate string
	threshold float64
	interval  time.Duration
	created   time.Time
	vt        *virtualClock // nil → wall clock
	hub       *hub

	// The last body sent on each read route (see encodedBody): a read that
	// finds the monitor's fill unchanged re-sends it instead of encoding.
	assessmentBody, reportBody, worstBody atomic.Pointer[encodedBody]
}

// Now returns the tenant's current instant: virtual-clock position for
// virtual tenants, elapsed wall time since creation otherwise.
func (t *Tenant) Now() time.Duration {
	if t.vt != nil {
		return t.vt.Now()
	}
	return time.Since(t.created)
}

// Virtual reports whether the tenant's clock is driven by POST …/advance
// rather than wall time.
func (t *Tenant) Virtual() bool { return t.vt != nil }

// Advance moves a virtual tenant's clock forward by d and returns the new
// instant; wall tenants reject it.
func (t *Tenant) Advance(d time.Duration) (time.Duration, error) {
	if t.vt == nil {
		return 0, ErrWallTenant
	}
	return t.vt.Advance(d), nil
}

// AdvanceTo moves a virtual tenant's clock to instant at (monotone: moving
// backwards is a no-op) and returns the resulting instant.
func (t *Tenant) AdvanceTo(at time.Duration) (time.Duration, error) {
	if t.vt == nil {
		return 0, ErrWallTenant
	}
	return t.vt.AdvanceTo(at), nil
}

// Manager owns the tenant set. All methods are safe for concurrent use;
// per-tenant state is synchronized by the registry/monitor/hub themselves,
// so the manager's lock is only held for map access, never during
// assessment.
type Manager struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  bool
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{tenants: make(map[string]*Tenant)}
}

// validTenantName keeps names path- and shell-safe: 1–128 chars of
// [a-zA-Z0-9._-], not starting with a dot or dash.
func validTenantName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("monitord: tenant name length %d out of [1,128]", len(name))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
			if i == 0 && c != '_' {
				return fmt.Errorf("monitord: tenant name %q starts with %q", name, string(c))
			}
		default:
			return fmt.Errorf("monitord: tenant name %q contains %q; use [a-zA-Z0-9._-]", name, string(c))
		}
	}
	return nil
}

// Create builds a tenant from ts and registers it under name. The spec's
// seed replicas and vulnerabilities are applied before the tenant becomes
// visible, so the first reader already sees the seeded population.
func (m *Manager) Create(name string, ts TenantSpec) (*Tenant, error) {
	if err := validTenantName(name); err != nil {
		return nil, err
	}
	t, err := buildTenant(name, ts)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("monitord: manager closed")
	}
	if _, exists := m.tenants[name]; exists {
		return nil, fmt.Errorf("%w: %s", ErrTenantExists, name)
	}
	m.tenants[name] = t
	return t, nil
}

// buildTenant assembles the registry/catalog/monitor triple outside the
// manager lock.
func buildTenant(name string, ts TenantSpec) (*Tenant, error) {
	interval := ts.WatchInterval.D()
	if interval == 0 {
		interval = time.Second
	}
	if interval < 0 {
		return nil, fmt.Errorf("monitord: negative watch interval %v", interval)
	}

	t := &Tenant{
		Name:     name,
		Catalog:  vuln.NewCatalog(),
		interval: interval,
		created:  time.Now(),
	}
	t.Registry = registry.New(nil)

	if ts.Virtual {
		t.vt = newVirtualClock()
	}
	opts := []core.Option{core.WithCatalog(t.Catalog)}
	sub, err := substrateFor(ts)
	if err != nil {
		return nil, err
	}
	opts = append(opts, core.WithSubstrate(sub))
	if ts.Weighting != nil {
		opts = append(opts, core.WithWeighting(registry.Weighting{
			Attested: ts.Weighting.Attested,
			Declared: ts.Weighting.Declared,
		}))
	}
	mon, err := core.NewMonitor(t.Registry, opts...)
	if err != nil {
		return nil, err
	}
	t.Monitor = mon
	t.substrate = mon.Substrate().Name
	t.threshold = mon.Threshold()
	t.hub = newHub(t)

	var configs spec.Configurations
	for _, rs := range ts.Replicas {
		cfg, err := configs.Build(rs.Components)
		if err != nil {
			return nil, err
		}
		if err := joinReplica(t, rs, cfg); err != nil {
			return nil, err
		}
	}
	for _, vs := range ts.Vulns {
		v, err := spec.VulnSpec(vs).Vulnerability()
		if err != nil {
			return nil, err
		}
		if err := t.Catalog.Add(v); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// substrateFor maps the spec's consensus selection to a family: a bespoke
// threshold wins, then the named family, defaulting to BFT.
func substrateFor(ts TenantSpec) (core.Substrate, error) {
	if ts.Threshold != 0 {
		if ts.Substrate != "" {
			return core.Substrate{}, fmt.Errorf("monitord: substrate %q and threshold %v are mutually exclusive", ts.Substrate, ts.Threshold)
		}
		return core.Threshold(ts.Threshold), nil
	}
	switch ts.Substrate {
	case "", "bft":
		return core.BFT, nil
	case "nakamoto":
		return core.Nakamoto, nil
	default:
		return core.Substrate{}, fmt.Errorf("monitord: unknown substrate %q (have bft, nakamoto, or set threshold)", ts.Substrate)
	}
}

// joinReplica applies one ReplicaSpec as a declared join of cfg, the
// configuration its components build.
func joinReplica(t *Tenant, rs ReplicaSpec, cfg config.Configuration) error {
	return t.Registry.JoinDeclared(registry.ReplicaID(rs.ID), cfg, rs.Power, rs.PatchLatency.D())
}

// Get returns the named tenant.
func (m *Manager) Get(name string) (*Tenant, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[name]
	return t, ok
}

// Delete removes a tenant, closing its hub so every SSE stream on it ends.
func (m *Manager) Delete(name string) error {
	m.mu.Lock()
	t, ok := m.tenants[name]
	if ok {
		delete(m.tenants, name)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTenant, name)
	}
	t.hub.close()
	return nil
}

// List returns all tenants sorted by name.
func (m *Manager) List() []*Tenant {
	m.mu.RLock()
	out := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		out = append(out, t)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports the tenant count.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.tenants)
}

// Close deletes every tenant and rejects further Creates.
func (m *Manager) Close() {
	m.mu.Lock()
	tenants := m.tenants
	m.tenants = make(map[string]*Tenant)
	m.closed = true
	m.mu.Unlock()
	for _, t := range tenants {
		t.hub.close()
	}
}
