package monitord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/registry"
	"repro/internal/spec"
)

// maxBodyBytes bounds request bodies; specs are small and a tenant seed
// with thousands of replicas still fits comfortably. A longer body is a 413,
// whatever its first 8 MiB hold.
const maxBodyBytes = 8 << 20

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// encodedBody is the response one read route last sent for a tenant: the
// JSON of the assessment the monitor handed out under fill, newline
// included, exactly as writeJSON renders it. It is immutable once stored;
// a tenant keeps one per route, replaced whenever the monitor reports
// another fill.
type encodedBody struct {
	fill uint64
	body []byte
	// An assessment body also serves the other instants of its fill, which
	// differ only in the "at" value: at is the instant it was encoded for
	// and body[atLo:atHi] the value's bytes. atHi is 0 for a body that
	// carries no instant (report), which at == 0 always matches.
	at         time.Duration
	atLo, atHi int
}

// atJSON is the bytes Duration.MarshalJSON produces for at: a duration
// string holds nothing JSON escapes.
func atJSON(at time.Duration) string { return `"` + at.String() + `"` }

// serveEncoded answers a read route with the JSON of v() for the monitor's
// fill at instant at: from the tenant's kept body when that came from the
// same fill — a 200 with Content-Length and one Write of the kept bytes, or
// head + instant + tail where only the instant moved — and otherwise by
// encoding v() and keeping the result. Concurrent misses each encode and
// store; whichever body stays is checked against the next reader's fill
// like any other. Write errors mean the client is gone, as in writeJSON.
func serveEncoded(w http.ResponseWriter, kept *atomic.Pointer[encodedBody], fill uint64, at time.Duration, v func() any) {
	b := kept.Load()
	if b == nil || b.fill != fill || (b.at != at && b.atHi == 0) {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v()); err != nil {
			writeError(w, http.StatusInternalServerError, "encode: %v", err)
			return
		}
		b = &encodedBody{fill: fill, body: buf.Bytes(), at: at}
		// The tenant name before the instant holds no quote
		// (validTenantName), so the first "at" key is the field.
		key, stamp := []byte(`"at":`), atJSON(at)
		if i := bytes.Index(b.body, key); i >= 0 && bytes.HasPrefix(b.body[i+len(key):], []byte(stamp)) {
			b.atLo = i + len(key)
			b.atHi = b.atLo + len(stamp)
		}
		kept.Store(b)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if at == b.at {
		h.Set("Content-Length", strconv.Itoa(len(b.body)))
		_, _ = w.Write(b.body)
		return
	}
	stamp := atJSON(at)
	h.Set("Content-Length", strconv.Itoa(b.atLo+len(stamp)+len(b.body)-b.atHi))
	_, _ = w.Write(b.body[:b.atLo])
	_, _ = io.WriteString(w, stamp)
	_, _ = w.Write(b.body[b.atHi:])
}

// decodeBody strictly decodes a JSON body into v: unknown fields and
// anything but whitespace after the value are a 400, a body longer than
// maxBodyBytes a 413. An empty body leaves v at its zero value, so
// "PUT /tenants/x" with no body creates a default tenant.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return true
		}
		return badBody(w, err, "%v", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return badBody(w, err, "data after the JSON value")
	}
	return true
}

// badBody answers a body decodeBody refused: 413 when err is the size
// limit, otherwise 400 with the given detail. It returns false for
// decodeBody to pass on.
func badBody(w http.ResponseWriter, err error, format string, args ...any) bool {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooLarge.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, "bad request body: "+format, args...)
	return false
}

// tenantFor resolves the {tenant} path value or writes a 404.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	name := r.PathValue("tenant")
	t, ok := s.mgr.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown tenant %q", name)
		return nil, false
	}
	return t, true
}

// registryStatus maps registry errors to HTTP status codes.
func registryStatus(err error) int {
	switch {
	case errors.Is(err, registry.ErrUnknownReplica):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrDuplicateReplica):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var st ServerStats
	for _, t := range s.mgr.List() {
		st.Tenants++
		st.Replicas += t.Registry.Size()
		st.Watchers += t.hub.subscribers()
		events, dropped := t.hub.stats()
		st.WatchEvents += events
		st.WatchDropped += dropped
		cs := t.Monitor.Stats()
		st.CacheRebuilds += cs.Rebuilds
		st.CacheDeltaApplies += cs.DeltaApplies
		st.CacheHits += cs.Hits
		st.AssessMemoHits += cs.AssessMemoHits
		st.WorstSweeps += cs.WorstSweeps
		st.WorstInstants += cs.WorstInstants
		st.WorstEvaluated += cs.WorstEvaluated
		st.JournalMisses += t.Registry.JournalMisses()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	tenants := s.mgr.List()
	out := make([]TenantInfo, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, tenantInfo(t))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var ts TenantSpec
	if !decodeBody(w, r, &ts) {
		return
	}
	t, err := s.mgr.Create(r.PathValue("tenant"), ts)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrTenantExists) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, tenantInfo(t))
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, tenantInfo(t))
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Delete(r.PathValue("tenant")); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	var rs ReplicaSpec
	if !decodeBody(w, r, &rs) {
		return
	}
	if err := joinReplica(t, rs); err != nil {
		writeError(w, registryStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": rs.ID})
}

func (s *Server) handlePatchReplica(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	var patch ReplicaPatch
	if !decodeBody(w, r, &patch) {
		return
	}
	if patch.Power == nil && len(patch.Components) == 0 {
		writeError(w, http.StatusBadRequest, "empty patch: set power and/or components")
		return
	}
	id := registry.ReplicaID(r.PathValue("id"))
	if patch.Power != nil {
		if err := t.Registry.SetPower(id, *patch.Power); err != nil {
			writeError(w, registryStatus(err), "%v", err)
			return
		}
	}
	if len(patch.Components) > 0 {
		cfg, err := spec.BuildConfiguration(patch.Components)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := t.Registry.Migrate(id, cfg); err != nil {
			writeError(w, registryStatus(err), "%v", err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	if err := t.Registry.Leave(registry.ReplicaID(r.PathValue("id"))); err != nil {
		writeError(w, registryStatus(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDisclose(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	var vs VulnSpec
	if !decodeBody(w, r, &vs) {
		return
	}
	v, err := spec.VulnSpec(vs).Vulnerability()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := t.Catalog.Add(v); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": vs.ID})
}

func (s *Server) handleAssessment(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	a, fill, err := t.Monitor.AssessMemo(t.Now())
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "assess: %v", err)
		return
	}
	serveEncoded(w, &t.assessmentBody, fill, a.At, func() any { return assessmentJSON(t.Name, a) })
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	a, fill, err := t.Monitor.AssessMemo(t.Now())
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "assess: %v", err)
		return
	}
	serveEncoded(w, &t.reportBody, fill, 0, func() any { return reportJSON(a.Diversity) })
}

// defaultWorstHorizon bounds the sweep when the query omits ?horizon=.
const defaultWorstHorizon = 30 * 24 * time.Hour

func (s *Server) handleWorst(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	horizon := defaultWorstHorizon
	if q := r.URL.Query().Get("horizon"); q != "" {
		var err error
		horizon, err = time.ParseDuration(q)
		if err != nil || horizon <= 0 {
			writeError(w, http.StatusBadRequest, "bad horizon %q", q)
			return
		}
	}
	// A sweep's fill is of one horizon, so the fill alone keys the body.
	a, fill, err := t.Monitor.WorstAssessmentMemo(horizon)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "worst window: %v", err)
		return
	}
	serveEncoded(w, &t.worstBody, fill, a.At, func() any { return assessmentJSON(t.Name, a) })
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	var adv AdvanceSpec
	if !decodeBody(w, r, &adv) {
		return
	}
	var (
		now time.Duration
		err error
	)
	switch {
	case adv.By != 0 && adv.To != 0:
		writeError(w, http.StatusBadRequest, "set exactly one of by/to")
		return
	case adv.By < 0:
		writeError(w, http.StatusBadRequest, "negative by %v", adv.By)
		return
	case adv.By != 0:
		now, err = t.Advance(adv.By.D())
	case adv.To != 0:
		now, err = t.AdvanceTo(adv.To.D())
	default:
		writeError(w, http.StatusBadRequest, "set exactly one of by/to")
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]Duration{"now": Duration(now)})
}

// handleWatch streams the tenant's assessments as Server-Sent Events: one
// `assessment` event per Watch emission, each `data:` line the same
// AssessmentJSON the GET endpoint returns. The stream ends when the
// client disconnects, the tenant is deleted, or the server shuts down —
// every path closes the connection cleanly rather than abandoning it.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by connection")
		return
	}
	id, ch, err := t.hub.subscribe()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer t.hub.unsubscribe(id)
	// The daemon gives every request a read and a write deadline (its
	// -timeout); a stream outlives both by design. net/http lifts the read
	// deadline itself once the request is read, when it starts watching the
	// connection for a hang-up, so only the write deadline is cleared here.
	// A writer without deadlines has none to clear.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case a, open := <-ch:
			if !open {
				return
			}
			if _, err := fmt.Fprintf(w, "event: assessment\nid: %d\ndata: ", a.At.Nanoseconds()); err != nil {
				return
			}
			// Encode appends the newline ending the data: line itself.
			if err := enc.Encode(assessmentJSON(t.Name, a)); err != nil {
				return
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
