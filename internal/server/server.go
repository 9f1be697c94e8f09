// Package server exposes the solver over HTTP, the way an SDN
// controller would consume it (the paper's setting is centralized
// computation in an SDN control plane). It offers stateless solving
// and validation endpoints that carry the full instance in the
// request, plus a stateful session API backed by the dynamic manager
// on the network the server was started with. It solves with MSA+OPA
// (or stage one alone) and nothing else: the comparison algorithms and
// rendering run offline (cmd/sftembed, cmd/sftbench), so none of them
// is linked into the controller.
//
//	GET    /healthz               liveness probe
//	GET    /readyz                readiness probe (network + session API state)
//	GET    /metrics               JSON metrics snapshot (counters/gauges/floats/histograms)
//	GET    /debug/traces          recent request-scoped solver span trees (bounded ring)
//	POST   /v1/solve              {instance, algorithm?, timeout_ms?} -> embedding + costs
//	POST   /v1/validate           {instance, embedding} -> verdict + replay
//	POST   /v1/sessions           task -> admitted session (server network)
//	GET    /v1/sessions           manager statistics
//	DELETE /v1/sessions/{id}      release a session
//
// Every request passes through the obs middleware: request IDs,
// structured access logs, per-route latency histograms and an
// in-flight gauge. Solver phase events feed the same registry, so
// /metrics shows where stage-2 time goes under live traffic.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/queue"
)

// MaxBodyBytes caps request bodies.
const MaxBodyBytes = 16 << 20

// Config carries the optional observability wiring.
type Config struct {
	// Registry receives HTTP, solver and session metrics; nil creates
	// a private registry (reachable via Server.Registry).
	Registry *obs.Registry
	// Logger emits structured access logs; nil disables them.
	Logger *slog.Logger
	// SolveTimeout caps how long any one solve or admission may run.
	// The solver has anytime semantics: on expiry it returns the best
	// feasible embedding found so far with EarlyStop set, so a timeout
	// degrades optimization quality, never correctness. Requests may
	// ask for a shorter deadline (timeout_ms); they cannot exceed this
	// ceiling. Zero means no server-side cap.
	SolveTimeout time.Duration
	// Manager, when set, backs the stateful session API instead of a
	// freshly constructed one — the WAL-restore boot path builds the
	// manager first (rehydrated from disk) and hands it over. The
	// server instruments and traces it; net must be the manager's
	// network.
	Manager *dynamic.Manager
	// QueueDepth bounds the admission queue behind POST /v1/sessions:
	// requests enqueue with their deadline, one solver per processor
	// works the line they form — whatever queued up behind busy solvers
	// joins it earliest deadline first — and overflow answers 429 with
	// Retry-After. Zero takes queue.New's default depth.
	QueueDepth int
	// Deprecated: BatchWindow is ignored; a ticket is taken the moment
	// a solver is free.
	BatchWindow time.Duration
}

// Server is the HTTP facade. Create it with New or NewWith; it
// implements http.Handler.
type Server struct {
	mux     *http.ServeMux
	h       http.Handler     // mux wrapped in the obs middleware
	mgr     *dynamic.Manager // fixed at construction, nil when stateless
	net     *nfv.Network
	reg     *obs.Registry
	traces  *obs.TraceBuffer
	opts    core.Options // base solver options, observer attached
	timeout time.Duration
	// q is the admission queue behind POST /v1/sessions, nil on a
	// stateless server (see Config.QueueDepth).
	q *queue.Queue
}

// New builds a server with default observability (private registry, no
// access logs). net backs the stateful session API and may be nil, in
// which case only the stateless endpoints are served.
func New(net *nfv.Network, opts core.Options) *Server {
	return NewWith(net, opts, Config{})
}

// NewWith builds a server with explicit observability wiring.
// opts.Observer, when set, receives every solver phase event on top of
// the registry bridge.
func NewWith(net *nfv.Network, opts core.Options, cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Cache and pool telemetry is process-global; registering the
	// callback gauges per server is idempotent (same names, same
	// sources), so every registry scraping this server sees them.
	obs.RegisterCacheStats(reg)
	obs.RegisterRuntimeStats(reg)
	// Every solve, admission and fault-repair run leaves one
	// request-scoped span tree in a ring of obs.DefaultTraceCap traces,
	// served at GET /debug/traces (and reachable via Server.Traces).
	traces := obs.NewTraceBuffer(0)
	// Each solve path bridges its events into the registry once: the
	// stateless /v1/solve path through s.opts, and the manager's
	// admissions and repairs through Instrument, whoever built the
	// manager. The manager is therefore handed opts without the bridge.
	mgr := cfg.Manager
	if mgr == nil && net != nil {
		mgr = dynamic.NewManager(net, opts)
	}
	opts.Observer = obs.Tee(opts.Observer, obs.NewMetricsObserver(reg))
	s := &Server{mux: http.NewServeMux(), mgr: mgr, net: net, reg: reg, traces: traces,
		opts: opts, timeout: cfg.SolveTimeout}
	if mgr != nil {
		mgr.Instrument(reg).Trace(traces)
		s.q = queue.New(queue.Config{
			Depth:       cfg.QueueDepth,
			BatchWindow: cfg.BatchWindow,
			Manager:     s.Manager,
		}).Instrument(reg)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.Handle("GET /metrics", reg.Handler())
	s.mux.Handle("GET /debug/traces", traces.Handler())
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/validate", s.handleValidate)
	s.mux.HandleFunc("POST /v1/sessions", s.handleAdmit)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionStats)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleRelease)
	s.mux.HandleFunc("/", s.handleFallback)
	// Recover sits inside Middleware so the access log and status-class
	// counters record the synthesized 500.
	s.h = obs.Middleware(reg, cfg.Logger, obs.Recover(reg, cfg.Logger, s.mux))
	return s
}

// Registry exposes the server's metrics registry (for embedding into a
// wider process registry or asserting in tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Traces exposes the server's trace ring (the buffer behind GET
// /debug/traces).
func (s *Server) Traces() *obs.TraceBuffer { return s.traces }

// Manager exposes the dynamic session manager backing the stateful
// API, nil for stateless servers. It is fixed at construction: the
// admission queue reaches the manager through it, and the process
// drains and checkpoints it at shutdown.
func (s *Server) Manager() *dynamic.Manager { return s.mgr }

// Queue exposes the admission queue, nil for stateless servers. Its
// solvers run until it is closed: the process's shutdown sequence
// closes it between the HTTP drain and Manager.Drain.
func (s *Server) Queue() *queue.Queue { return s.q }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	s.h.ServeHTTP(w, r)
}

var _ http.Handler = (*Server)(nil)

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	Instance nfv.InstanceDoc `json:"instance"`
	// Algorithm is msa (the default: stage one, then OPA) or msa1
	// (stage one only); anything else answers 422.
	Algorithm string `json:"algorithm,omitempty"`
	// TimeoutMS asks for a solve deadline in milliseconds. The solver
	// stops optimizing at the deadline and returns its best feasible
	// embedding so far (EarlyStop in the response). Capped by the
	// server's Config.SolveTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SolveResponse is the body of a successful solve.
type SolveResponse struct {
	Algorithm string            `json:"algorithm"`
	Embedding *nfv.Embedding    `json:"embedding"`
	Cost      nfv.CostBreakdown `json:"cost"`
	Stage1    float64           `json:"stage1_cost"`
	Moves     int               `json:"moves_accepted"`
	// EarlyStop reports that the deadline expired mid-solve; the
	// embedding is the best feasible one found by then.
	EarlyStop bool `json:"early_stop,omitempty"`
}

// ValidateRequest is the body of POST /v1/validate.
type ValidateRequest struct {
	Instance  nfv.InstanceDoc `json:"instance"`
	Embedding *nfv.Embedding  `json:"embedding"`
}

// ValidateResponse reports the verdict of POST /v1/validate.
type ValidateResponse struct {
	Valid     bool              `json:"valid"`
	Reason    string            `json:"reason,omitempty"`
	Cost      nfv.CostBreakdown `json:"cost"`
	Delivered int               `json:"delivered"`
}

// AdmitResponse is the body of a successful admission.
type AdmitResponse struct {
	ID   dynamic.SessionID `json:"id"`
	Cost float64           `json:"cost"`
	// EarlyStop reports that the admission deadline expired mid-solve;
	// the session holds the best feasible embedding found by then.
	EarlyStop bool `json:"early_stop,omitempty"`
	// WaitMS is the time the request spent queued before its solve
	// started. SolveMS runs from there to its commit, which for a ticket
	// solved ahead of its turn includes waiting for that turn — clients
	// can split saturation-born queueing delay from what the request's
	// own batch cost.
	WaitMS  float64 `json:"wait_ms"`
	SolveMS float64 `json:"solve_ms"`
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // headers are sent; nothing left to do on error
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// The two response bodies that never vary, as writeJSON encodes them.
var (
	healthBody   = []byte(`{"status":"ok"}` + "\n")
	releasedBody = []byte(`{"status":"released"}` + "\n")
)

// writeConstant answers 200 with a precomputed JSON body.
func writeConstant(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // headers are sent; nothing left to do on error
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeConstant(w, healthBody)
}

// handleReady reports readiness, distinct from liveness: whether the
// stateful session API is backed by a network and how many sessions
// are live. A stateless server is ready by construction. Durability
// trouble — WAL append failures, or a divergence a snapshot has not
// yet healed — degrades the reported status (still HTTP 200: the
// instance keeps serving, but operators and probes see it).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"status": "ready", "sessions_api": s.mgr != nil}
	if s.mgr != nil {
		resp["active_sessions"] = s.mgr.Active()
		if st := s.mgr.Stats(); st.WALAppendErrors > 0 || st.CheckpointDirty {
			resp["status"] = "degraded"
			resp["wal_append_errors"] = st.WALAppendErrors
			resp["wal_checkpoint_dirty"] = st.CheckpointDirty
		}
	}
	if s.q != nil {
		qs := s.q.Stats()
		resp["queue_depth"] = qs.Depth
		resp["queue_capacity"] = qs.Capacity
		if qs.Saturated {
			// A full queue answers 429 until a free solver drains it:
			// surface it to probes so load balancers shift traffic away.
			resp["status"] = "degraded"
			resp["queue_saturated"] = true
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFallback turns unmatched routes into the same JSON error
// envelope the API handlers use, instead of net/http's text 404.
func (s *Server) handleFallback(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, fmt.Errorf("no route for %s %s", r.Method, r.URL.Path))
}

// maxTimeoutMS is the largest timeout_ms that still converts to a
// time.Duration without overflowing.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// checkTimeoutMS rejects timeout_ms values solveContext could not
// honor: negatives and values whose millisecond conversion overflows.
func checkTimeoutMS(ms int64) error {
	if ms < 0 {
		return fmt.Errorf("negative timeout_ms %d", ms)
	}
	if ms > maxTimeoutMS {
		return fmt.Errorf("timeout_ms %d overflows (max %d)", ms, maxTimeoutMS)
	}
	return nil
}

// solveLimit resolves the effective deadline budget for one solve:
// the request's timeout_ms (if any) capped by the server-wide
// SolveTimeout ceiling. Zero means unbounded.
func (s *Server) solveLimit(timeoutMS int64) time.Duration {
	limit := s.timeout
	if timeoutMS > 0 {
		asked := time.Duration(timeoutMS) * time.Millisecond
		if limit <= 0 || asked < limit {
			limit = asked
		}
	}
	return limit
}

// solveContext derives the deadline for one solve: the request's
// timeout_ms (if any) capped by the server-wide SolveTimeout ceiling.
// The returned cancel must always be called.
func (s *Server) solveContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	limit := s.solveLimit(timeoutMS)
	if limit <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, limit)
}

// runAlgorithm dispatches one stateless solve under the server's base
// options (observer included, so every solve feeds /metrics). ctx
// bounds the solve; the solver stops at the deadline with its best
// feasible embedding. extra, when non-nil, additionally observes this
// request's solver events (the per-request trace recorder).
func (s *Server) runAlgorithm(ctx context.Context, req *SolveRequest, extra core.Observer) (*core.Result, error) {
	net, task := req.Instance.Network, req.Instance.Task
	if net == nil {
		return nil, errors.New("request carries no network")
	}
	opts := s.opts
	opts.Ctx = ctx
	opts.Observer = obs.Tee(opts.Observer, extra)
	switch req.Algorithm {
	case "", "msa":
		return core.Solve(net, task, opts)
	case "msa1":
		return core.SolveStageOne(net, task, opts)
	default:
		return nil, fmt.Errorf("unknown algorithm %q", req.Algorithm)
	}
}

// decodeBody reads the whole body into a pooled buffer and decodes it
// as one JSON document into dst: anything but whitespace after the
// document is a 400, like any other malformed body, and a body past
// MaxBodyBytes or an instance past nfv's size bounds (nfv.ErrTooLarge)
// a 413. It answers the error itself and reports whether
// the handler may go on. Decoding copies everything it keeps, so the
// buffer is free again on return.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, dst *T) bool {
	buf := bodies.get()
	_, err := buf.ReadFrom(r.Body)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), dst)
	}
	bodies.put(buf)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) || errors.Is(err, nfv.ErrTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// bodies recycles the buffers request bodies, and the response bodies
// Client decodes, are read into.
var bodies bufferPool

// maxPooledBody is the largest buffer bodies keeps: an instance document
// can run to MaxBodyBytes, and one such request must not pin that much
// for the life of the process.
const maxPooledBody = 64 << 10

// bufferPool is a sync.Pool of bytes.Buffers.
type bufferPool struct{ pool sync.Pool }

func (p *bufferPool) get() *bytes.Buffer {
	if b, _ := p.pool.Get().(*bytes.Buffer); b != nil {
		return b
	}
	return new(bytes.Buffer)
}

func (p *bufferPool) put(b *bytes.Buffer) {
	if b.Cap() > maxPooledBody {
		return
	}
	b.Reset()
	p.pool.Put(b)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkTimeoutMS(req.TimeoutMS); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.solveContext(r, req.TimeoutMS)
	defer cancel()
	rec, finish := s.traces.StartTrace(obs.Trace{Op: "solve", RequestID: obs.RequestID(r.Context()), Session: -1})
	res, err := s.runAlgorithm(ctx, &req, rec)
	finish(res, err)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, nfv.ErrInvalidTask) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	algo := req.Algorithm
	if algo == "" {
		algo = "msa"
	}
	writeJSON(w, http.StatusOK, SolveResponse{
		Algorithm: algo,
		Embedding: res.Embedding,
		Cost:      req.Instance.Network.Cost(res.Embedding),
		Stage1:    res.Stage1Cost,
		Moves:     res.MovesAccepted,
		EarlyStop: res.EarlyStop,
	})
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	var req ValidateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Instance.Network == nil || req.Embedding == nil {
		writeError(w, http.StatusBadRequest, errors.New("need both instance and embedding"))
		return
	}
	resp := ValidateResponse{Valid: true}
	if err := conformance.Check(req.Instance.Network, req.Embedding); err != nil {
		resp.Valid = false
		resp.Reason = err.Error()
	} else {
		resp.Cost = req.Instance.Network.Cost(req.Embedding)
		resp.Delivered = len(req.Embedding.Task.Destinations)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAdmit enqueues the task with its deadline (timeout_ms capped
// by the server ceiling, converted to an absolute instant) and blocks
// on the ticket. Overflow and in-queue expiry answer 429 with
// Retry-After; a closed queue or a refused WAL append answer 503
// (drain in progress / dead disk). The request context rides the
// ticket, so a client that leaves is never left holding a session: the
// queue drops its ticket unsolved, or releases the session if the
// commit had already landed.
func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if s.mgr == nil {
		writeError(w, http.StatusNotImplemented, errors.New("server started without a network"))
		return
	}
	var task nfv.Task
	if !decodeBody(w, r, &task) {
		return
	}
	// Admissions carry the deadline as ?timeout_ms= (the body is the
	// bare task); the server ceiling applies either way.
	var timeoutMS int64
	if q := queryParam(r, "timeout_ms"); q != "" {
		ms, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad timeout_ms %q", q))
			return
		}
		if err := checkTimeoutMS(ms); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		timeoutMS = ms
	}
	var deadline time.Time
	if limit := s.solveLimit(timeoutMS); limit > 0 {
		deadline = time.Now().Add(limit)
	}
	tk, err := s.q.Enqueue(r.Context(), task, deadline)
	var sess *dynamic.Session
	if err == nil {
		sess, err = tk.Wait(r.Context())
	}
	switch {
	case err == nil:
	case errors.Is(err, queue.ErrQueueFull), errors.Is(err, queue.ErrExpired):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, queue.ErrClosed), errors.Is(err, queue.ErrUnavailable):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, dynamic.ErrRejected), errors.Is(err, nfv.ErrInvalidTask):
		writeError(w, admitStatus(err), err)
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away; the queue cancels the admission.
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, admitStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, AdmitResponse{
		ID:        sess.ID,
		Cost:      sess.Result.FinalCost,
		EarlyStop: sess.Result.EarlyStop,
		WaitMS:    float64(tk.WaitDuration()) / float64(time.Millisecond),
		SolveMS:   float64(tk.SolveDuration()) / float64(time.Millisecond),
	})
}

// queryParam is r.URL.Query().Get(key) without parsing a query string
// that is not there, which most requests do not carry.
func queryParam(r *http.Request, key string) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return r.URL.Query().Get(key)
}

// admitStatus maps an admission error to its HTTP status: malformed
// tasks 400, a write-ahead log that refused the commit 503 (the disk,
// not the network, is out of room — retrying elsewhere can help),
// capacity rejections 409.
func admitStatus(err error) int {
	switch {
	case errors.Is(err, nfv.ErrInvalidTask):
		return http.StatusBadRequest
	case errors.Is(err, dynamic.ErrWAL):
		return http.StatusServiceUnavailable
	}
	return http.StatusConflict
}

// retryAfter is the back-off hint attached to 429 responses (queue
// overflow or a deadline that expired before a solve slot opened):
// both mean a backlog stands behind the solver, and a full queue of
// sub-millisecond solves drains well inside one second, so that is a
// conservative "the queue has turned over" bound.
const retryAfter = "1"

func (s *Server) handleSessionStats(w http.ResponseWriter, _ *http.Request) {
	if s.mgr == nil {
		writeError(w, http.StatusNotImplemented, errors.New("server started without a network"))
		return
	}
	writeJSON(w, http.StatusOK, s.mgr.Stats())
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	if s.mgr == nil {
		writeError(w, http.StatusNotImplemented, errors.New("server started without a network"))
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad session id: %w", err))
		return
	}
	if err := s.mgr.Release(dynamic.SessionID(id)); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, dynamic.ErrUnknownSession):
			status = http.StatusNotFound
		case errors.Is(err, dynamic.ErrWAL):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeConstant(w, releasedBody)
}
