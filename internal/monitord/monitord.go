// Package monitord hosts the core fault-independence monitor as a
// long-running multi-tenant HTTP/JSON service — the operational shape the
// paper implies: an operator runs continuous diversity assessment against
// many live replica populations at once, instead of batch runs that exit.
//
// Each tenant is one named registry + vulnerability catalog + monitor.
// The API mutates populations (join/leave/set-power/migrate), posts
// disclosure and patch events, reads the current assessment, diversity
// report and worst-window, and streams Monitor.Watch updates to any
// number of subscribers over Server-Sent Events.
//
// Concurrency model: all readers and watchers of one tenant share the
// monitor's memoized per-snapshot assessment — one Watch stream feeds an
// SSE hub that fans out to every subscriber, and GET readers hit the same
// snapshot cache, so N watchers cost one computation per registry
// generation (core.Monitor.Stats exposes the proof). A GET that finds the
// registry, the catalog and the constant interval of the fault picture
// unchanged re-sends the bytes the route last encoded (one body per read
// route per tenant, keyed on the monitor's fill, checked on every read —
// so never older than an acknowledged mutation). Registry mutation during
// live streams is safe: the registry synchronizes churn against snapshot
// readers internally.
//
// Endpoints (JSON bodies unless noted):
//
//	GET    /healthz                            liveness
//	GET    /stats                              server-wide counters
//	GET    /tenants                            list tenants
//	PUT    /tenants/{tenant}                   create (TenantSpec; 409 if exists)
//	GET    /tenants/{tenant}                   tenant info + cache stats
//	DELETE /tenants/{tenant}                   delete, closing its streams
//	POST   /tenants/{tenant}/replicas          join a replica (ReplicaSpec)
//	PATCH  /tenants/{tenant}/replicas/{id}     set power and/or migrate config
//	DELETE /tenants/{tenant}/replicas/{id}     leave
//	POST   /tenants/{tenant}/vulns             disclose a vulnerability (VulnSpec)
//	GET    /tenants/{tenant}/assessment        assessment at the tenant's now
//	GET    /tenants/{tenant}/report            diversity report at now
//	GET    /tenants/{tenant}/worst?horizon=…   worst-window assessment
//	GET    /tenants/{tenant}/watch             SSE stream of assessments
//	POST   /tenants/{tenant}/advance           advance a virtual tenant's clock
package monitord

import (
	"net/http"
	"sync"
)

// Server is the multi-tenant monitor service. It implements http.Handler;
// Close ends every SSE stream and releases every tenant, after which all
// requests fail with 503 — the daemon calls Close before (or while)
// draining in-flight requests so shutdown cannot hang on open streams.
type Server struct {
	mgr       *Manager
	mux       *http.ServeMux
	done      chan struct{}
	closeOnce sync.Once
}

// NewServer returns a ready-to-serve Server with no tenants.
func NewServer() *Server {
	s := &Server{
		mgr:  NewManager(),
		done: make(chan struct{}),
	}
	s.routes()
	return s
}

// Manager exposes the tenant manager, for in-process embedding (tests,
// examples, the load driver's self-hosted mode).
func (s *Server) Manager() *Manager { return s.mgr }

// ServeHTTP dispatches to the service's route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.done:
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
	}
	s.mux.ServeHTTP(w, r)
}

// Close shuts the service down: every SSE subscriber's channel closes (so
// watch handlers return and connections drain), every tenant's watch
// goroutine stops, and subsequent requests get 503. Safe to call more
// than once and concurrently with in-flight requests.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.mgr.Close()
	})
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /tenants", s.handleListTenants)
	mux.HandleFunc("PUT /tenants/{tenant}", s.handleCreateTenant)
	mux.HandleFunc("GET /tenants/{tenant}", s.handleGetTenant)
	mux.HandleFunc("DELETE /tenants/{tenant}", s.handleDeleteTenant)
	mux.HandleFunc("POST /tenants/{tenant}/replicas", s.handleJoin)
	mux.HandleFunc("PATCH /tenants/{tenant}/replicas/{id}", s.handlePatchReplica)
	mux.HandleFunc("DELETE /tenants/{tenant}/replicas/{id}", s.handleLeave)
	mux.HandleFunc("POST /tenants/{tenant}/vulns", s.handleDisclose)
	mux.HandleFunc("GET /tenants/{tenant}/assessment", s.handleAssessment)
	mux.HandleFunc("GET /tenants/{tenant}/report", s.handleReport)
	mux.HandleFunc("GET /tenants/{tenant}/worst", s.handleWorst)
	mux.HandleFunc("GET /tenants/{tenant}/watch", s.handleWatch)
	mux.HandleFunc("POST /tenants/{tenant}/advance", s.handleAdvance)
	s.mux = mux
}
