package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"privtree/internal/conformance"
	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/obs/export"
	"privtree/internal/pipeline"
	"privtree/internal/transform"
	"privtree/internal/tree"
)

// Config assembles a Server. Keys is required; everything else has a
// serving default.
type Config struct {
	// Keys is the multi-tenant key vault (NewMemStore or NewFileStore).
	Keys KeyStore
	// Registry is the obs registry behind /metrics and /snapshot; nil
	// gets a fresh private one (the daemon passes the process registry
	// so pipeline spans and server counters land on the same page).
	Registry *obs.Registry
	// Rate is the sustained per-tenant request rate in requests/sec;
	// <= 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket capacity per tenant (default
	// ceil(Rate), at least 1).
	Burst int
	// MaxBody caps request-body bytes; bigger requests get 413.
	// Default 32 MiB.
	MaxBody int64
	// Chunk is the tuples-per-block size of streamed responses
	// (0 = the stream layer's default).
	Chunk int
	// Workers bounds the per-request fan-out of encoding and of CSV
	// parsing and formatting (0 = resolve from PRIVTREE_WORKERS /
	// GOMAXPROCS).
	Workers int
}

// defaultMaxBody caps request bodies when Config.MaxBody is unset.
const defaultMaxBody = 32 << 20

// defaultTenant is the tenant requests without an X-Privtree-Tenant
// header act as.
const defaultTenant = "default"

// tenantHeader names the header carrying the calling tenant on the
// encode/decode/verify endpoints (the key-management routes carry the
// tenant in the path).
const tenantHeader = "X-Privtree-Tenant"

// Server is privtreed's HTTP handler: the /v1 API plus the obs/export
// telemetry endpoints, over one KeyStore and one rate limiter.
type Server struct {
	cfg     Config
	limiter *Limiter
	mux     *http.ServeMux
}

// New assembles the handler. The obs endpoints (/healthz, /metrics,
// /snapshot, /debug/pprof/) are mounted from internal/obs/export —
// the same handler `privtree encode -obs-listen` serves — not
// re-implemented here.
func New(cfg Config) (*Server, error) {
	if cfg.Keys == nil {
		return nil, fmt.Errorf("server: Config.Keys is required")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = defaultMaxBody
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := &Server{cfg: cfg, limiter: NewLimiter(cfg.Rate, cfg.Burst), mux: http.NewServeMux()}

	// Telemetry plane: reuse the export handler wholesale.
	eh := export.NewHandler(cfg.Registry)
	for _, p := range []string{"/healthz", "/metrics", "/snapshot", "/debug/pprof/"} {
		s.mux.Handle(p, eh)
	}

	// Service plane. Method-qualified patterns make the mux answer 405
	// (with an Allow header) for wrong methods on known routes.
	s.mux.HandleFunc("POST /v1/encode", s.api(s.handleEncode))
	s.mux.HandleFunc("POST /v1/decode", s.api(s.handleDecode))
	s.mux.HandleFunc("POST /v1/verify", s.api(s.handleVerify))
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}/keys/{name}", s.api(s.handleKeyPut))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/keys/{name}", s.api(s.handleKeyGet))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}/keys/{name}", s.api(s.handleKeyDelete))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/keys", s.api(s.handleKeyList))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// tenantOf resolves the acting tenant: the {tenant} path segment on
// key-management routes, the X-Privtree-Tenant header elsewhere.
func tenantOf(r *http.Request) string {
	if t := r.PathValue("tenant"); t != "" {
		return t
	}
	if t := r.Header.Get(tenantHeader); t != "" {
		return t
	}
	return defaultTenant
}

// api wraps every /v1 handler with the service middleware: tenant
// resolution and name validation, the per-tenant token bucket (429 +
// Retry-After), the request-body cap, and request metrics.
func (s *Server) api(h func(w http.ResponseWriter, r *http.Request, tenant string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var start time.Time
		if obs.Enabled() {
			start = time.Now()
			obs.Add("server.requests", 1)
		}
		tenant := tenantOf(r)
		err := checkName("tenant", tenant)
		if err == nil {
			if ok, retry := s.limiter.Allow(tenant); !ok {
				secs := int(math.Ceil(retry.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				obs.Add("server.rate_limited", 1)
				err = fmt.Errorf("tenant %q: retry in %ds: %w", tenant, secs, ErrRateLimited)
			}
		}
		if err == nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
			err = h(w, r, tenant)
		}
		if err != nil {
			writeError(w, err)
		}
		if obs.Enabled() {
			obs.Since("server.request_ns", start)
		}
	}
}

// --- encode ---------------------------------------------------------

// encodeParams parses the encoder knobs from the query string, with the
// same defaults as `privtree encode`.
func encodeParams(r *http.Request) (opts pipeline.Options, seed int64, err error) {
	q := r.URL.Query()
	switch strat := q.Get("strategy"); strat {
	case "", "maxmp":
		opts.Strategy = pipeline.StrategyMaxMP
	case "bp":
		opts.Strategy = pipeline.StrategyBP
	case "none":
		opts.Strategy = pipeline.StrategyNone
	default:
		return opts, 0, fmt.Errorf("strategy %q (none, bp, maxmp): %w", strat, pipeline.ErrUnknownStrategy)
	}
	intParam := func(name string, def int) (int, error) {
		v := q.Get(name)
		if v == "" {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, badRequestf("query %s=%q: not an integer", name, v)
		}
		return n, nil
	}
	if opts.Breakpoints, err = intParam("w", 20); err != nil {
		return opts, 0, err
	}
	if opts.MinPieceWidth, err = intParam("minwidth", 5); err != nil {
		return opts, 0, err
	}
	seed = 1
	if v := q.Get("seed"); v != "" {
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			return opts, 0, badRequestf("query seed=%q: not an integer", v)
		}
	}
	return opts, seed, nil
}

// encodeResponse is the JSON envelope of POST /v1/encode with
// Accept: application/json.
type encodeResponse struct {
	Tenant string `json:"tenant"`
	// Key is the stored key name, when ?key= asked for storage.
	Key   string `json:"key,omitempty"`
	Rows  int    `json:"rows"`
	Attrs int    `json:"attrs"`
	// KeyJSON is the versioned key wire format — the custodian's
	// secret. Only the JSON mode returns it inline.
	KeyJSON json.RawMessage `json:"key_json"`
	CSV     string          `json:"csv"`
}

// handleEncode serves POST /v1/encode: body = CSV (last column the
// class), query = encoder knobs. It builds a fresh key from the body
// (exactly what `privtree encode` does at the same seed/options),
// optionally stores it under ?key=<name> in the tenant's vault
// (409 unless ?overwrite=1 when the name is taken), and answers
//
//   - streaming CSV of the transformed rows (default; requires ?key=,
//     otherwise the key would be lost), or
//   - an application/json envelope carrying both the encoded CSV and
//     the key wire bytes, when the client sends Accept:
//     application/json.
//
// The response stream is produced by pipeline.ApplyStream under the
// request context, so a disconnecting client cancels the encode
// mid-stream instead of burning the worker pool on a dead socket.
func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request, tenant string) error {
	opts, seed, err := encodeParams(r)
	if err != nil {
		return err
	}
	opts.Workers = s.cfg.Workers
	keyName := r.URL.Query().Get("key")
	wantJSON := strings.Contains(r.Header.Get("Accept"), "application/json")
	if keyName == "" && !wantJSON {
		return badRequestf("encode needs ?key=<name> to store the key (or Accept: application/json to receive it inline)")
	}
	if keyName != "" {
		if err := checkName("key", keyName); err != nil {
			return err
		}
		if _, err := s.cfg.Keys.Get(tenant, keyName); err == nil && r.URL.Query().Get("overwrite") != "1" {
			return fmt.Errorf("tenant %q key %q (pass overwrite=1 to replace): %w", tenant, keyName, ErrKeyExists)
		}
	}
	d, err := dataset.ReadCSVWorkers(r.Body, s.cfg.Workers)
	if err != nil {
		return err
	}
	key, err := pipeline.BuildKey(d, opts, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	wire, err := transform.MarshalKey(key)
	if err != nil {
		return err
	}
	if keyName != "" {
		if _, err := s.cfg.Keys.Put(tenant, keyName, wire); err != nil {
			return err
		}
	}
	outSchema, err := pipeline.OutputSchema(key, d.Schema())
	if err != nil {
		return err
	}
	obs.Add("server.encode_rows", int64(d.NumTuples()))
	if wantJSON {
		var buf bytes.Buffer
		if err := pipeline.ApplyStream(r.Context(), key, dataset.NewDatasetSource(d), s.csvSink(&buf, outSchema), s.cfg.Chunk, s.cfg.Workers); err != nil {
			return err
		}
		return writeJSON(w, http.StatusOK, &encodeResponse{
			Tenant: tenant, Key: keyName,
			Rows: d.NumTuples(), Attrs: d.NumAttrs(),
			KeyJSON: wire, CSV: buf.String(),
		})
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("X-Privtree-Rows", strconv.Itoa(d.NumTuples()))
	if keyName != "" {
		w.Header().Set("X-Privtree-Key", keyName)
	}
	// From here on bytes are on the wire; an apply failure can only be
	// a dead client (the transform itself is pure), so the error is
	// counted and logged, not re-written as a status.
	if err := pipeline.ApplyStream(r.Context(), key, dataset.NewDatasetSource(d), s.csvSink(w, outSchema), s.cfg.Chunk, s.cfg.Workers); err != nil {
		obs.Add("server.stream_aborted", 1)
		obs.Logger().Warn("encode: response stream aborted", "tenant", tenant, "err", err.Error())
		return nil
	}
	return nil
}

// csvSink returns a CSV sink formatting on the server's worker count.
func (s *Server) csvSink(w io.Writer, schema *dataset.Schema) *dataset.CSVSink {
	sink := dataset.NewCSVSink(w, schema)
	sink.Workers = s.cfg.Workers
	return sink
}

// --- decode ---------------------------------------------------------

// decodeRequest is the JSON body of POST /v1/decode. Exactly one of
// Tree (the mined tree the service shipped back) or EncodedCSV (re-mine
// here) must be set; OrigCSV is the custodian's original rows — decode
// needs them, exactly as `privtree decode -orig` does.
type decodeRequest struct {
	Tree       json.RawMessage `json:"tree,omitempty"`
	EncodedCSV string          `json:"encoded_csv,omitempty"`
	OrigCSV    string          `json:"orig_csv"`
	Criterion  string          `json:"criterion,omitempty"`
	MinLeaf    int             `json:"minleaf,omitempty"`
	MaxDepth   int             `json:"maxdepth,omitempty"`
}

// decodeResponse is the JSON answer of POST /v1/decode.
type decodeResponse struct {
	Tree json.RawMessage `json:"tree"`
	// Nodes/Leaves/Depth summarize the decoded tree.
	Nodes  int `json:"nodes"`
	Leaves int `json:"leaves"`
	Depth  int `json:"depth"`
	// SameOutcome reports whether the decoded tree classifies the
	// original rows identically to direct mining — the paper's
	// no-outcome-change guarantee, checked live.
	SameOutcome bool `json:"same_outcome"`
}

// treeConfigOf maps the request's mining knobs onto a tree.Config with
// the CLI's defaults.
func treeConfigOf(criterion string, minLeaf, maxDepth int) (tree.Config, error) {
	cfg := tree.Config{MinLeaf: minLeaf, MaxDepth: maxDepth}
	switch criterion {
	case "", "gini":
		cfg.Criterion = tree.Gini
	case "entropy":
		cfg.Criterion = tree.Entropy
	default:
		return cfg, badRequestf("criterion %q (gini, entropy)", criterion)
	}
	return cfg, nil
}

// loadKey fetches ?key=<name> from the tenant's vault and decodes the
// wire bytes.
func (s *Server) loadKey(r *http.Request, tenant string) (*transform.Key, error) {
	name := r.URL.Query().Get("key")
	if name == "" {
		return nil, badRequestf("missing ?key=<name> (a key stored under tenant %q)", tenant)
	}
	wire, err := s.cfg.Keys.Get(tenant, name)
	if err != nil {
		return nil, err
	}
	return transform.UnmarshalKey(wire)
}

// handleDecode serves POST /v1/decode: translate a tree mined from
// encoded data back into the original attribute space under a stored
// key, and report whether it matches direct mining.
func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request, tenant string) error {
	key, err := s.loadKey(r, tenant)
	if err != nil {
		return err
	}
	var req decodeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return badRequestf("request body: %v", err)
	}
	if (req.Tree == nil) == (req.EncodedCSV == "") {
		return badRequestf("exactly one of tree or encoded_csv must be set")
	}
	if req.OrigCSV == "" {
		return badRequestf("orig_csv is required (decode runs at the custodian, who holds the original rows)")
	}
	cfg, err := treeConfigOf(req.Criterion, req.MinLeaf, req.MaxDepth)
	if err != nil {
		return err
	}
	orig, err := dataset.ReadCSVWorkers(strings.NewReader(req.OrigCSV), s.cfg.Workers)
	if err != nil {
		return fmt.Errorf("orig_csv: %w", err)
	}
	if len(key.Attrs) != orig.NumAttrs() {
		return fmt.Errorf("key has %d attributes, orig_csv %d: %w", len(key.Attrs), orig.NumAttrs(), transform.ErrKeyMismatch)
	}
	var mined *tree.Tree
	if req.Tree != nil {
		if mined, err = tree.Unmarshal(req.Tree); err != nil {
			return err
		}
	} else {
		enc, err := dataset.ReadCSVWorkers(strings.NewReader(req.EncodedCSV), s.cfg.Workers)
		if err != nil {
			return fmt.Errorf("encoded_csv: %w", err)
		}
		if mined, err = tree.Build(enc, cfg); err != nil {
			return err
		}
	}
	decoded, err := tree.DecodeWithData(mined, key, orig)
	if err != nil {
		return err
	}
	direct, err := tree.Build(orig, cfg)
	if err != nil {
		return err
	}
	blob, err := tree.Marshal(decoded)
	if err != nil {
		return err
	}
	obs.Add("server.decoded_trees", 1)
	return writeJSON(w, http.StatusOK, &decodeResponse{
		Tree:  blob,
		Nodes: decoded.NumNodes(), Leaves: decoded.NumLeaves(), Depth: decoded.Depth(),
		SameOutcome: tree.EquivalentOn(direct, decoded, orig),
	})
}

// --- verify ---------------------------------------------------------

// verifyResponse is the JSON answer of POST /v1/verify: the
// conformance battery's report, flattened for API clients.
type verifyResponse struct {
	OK     bool     `json:"ok"`
	Checks []string `json:"checks"`
	// Violations lists every broken invariant; empty when OK.
	Violations []verifyViolation `json:"violations"`
}

type verifyViolation struct {
	Check  string `json:"check"`
	Attr   string `json:"attr,omitempty"`
	Piece  int    `json:"piece,omitempty"`
	Detail string `json:"detail"`
}

// handleVerify serves POST /v1/verify: run the conformance battery — the
// structural key invariants and, unless ?guarantee=0, the differential
// encode→mine→decode guarantee — for a stored key against the CSV body.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request, tenant string) error {
	key, err := s.loadKey(r, tenant)
	if err != nil {
		return err
	}
	d, err := dataset.ReadCSVWorkers(r.Body, s.cfg.Workers)
	if err != nil {
		return err
	}
	if len(key.Attrs) != d.NumAttrs() {
		return fmt.Errorf("key has %d attributes, data %d: %w", len(key.Attrs), d.NumAttrs(), transform.ErrKeyMismatch)
	}
	rep := conformance.CheckKey(d, key)
	if r.URL.Query().Get("guarantee") != "0" {
		rep.Merge(conformance.CheckGuarantee(d, key, tree.Config{}))
	}
	resp := &verifyResponse{OK: rep.Ok(), Checks: rep.Checks, Violations: []verifyViolation{}}
	for _, v := range rep.Violations {
		resp.Violations = append(resp.Violations, verifyViolation{
			Check: v.Check, Attr: v.Attr, Piece: v.Piece, Detail: v.Detail,
		})
	}
	obs.Add("server.verifies", 1)
	return writeJSON(w, http.StatusOK, resp)
}

// --- key management -------------------------------------------------

// keyPutResponse is the JSON answer of PUT .../keys/{name}.
type keyPutResponse struct {
	Tenant  string `json:"tenant"`
	Key     string `json:"key"`
	Attrs   int    `json:"attrs"`
	Created bool   `json:"created"`
}

// handleKeyPut stores a key under the tenant: the body must be the
// versioned key wire format (the CLI's key.json); it is validated
// before a byte is stored, so the vault never holds a key the library
// would reject. 201 on create, 200 on replace.
func (s *Server) handleKeyPut(w http.ResponseWriter, r *http.Request, tenant string) error {
	name := r.PathValue("name")
	var body bytes.Buffer
	if _, err := body.ReadFrom(r.Body); err != nil {
		return fmt.Errorf("reading key body: %w", err)
	}
	key, err := transform.UnmarshalKey(body.Bytes())
	if err != nil {
		return err
	}
	created, err := s.cfg.Keys.Put(tenant, name, body.Bytes())
	if err != nil {
		return err
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	return writeJSON(w, code, &keyPutResponse{Tenant: tenant, Key: name, Attrs: len(key.Attrs), Created: created})
}

// handleKeyGet returns the stored wire bytes, bit-for-bit.
func (s *Server) handleKeyGet(w http.ResponseWriter, r *http.Request, tenant string) error {
	wire, err := s.cfg.Keys.Get(tenant, r.PathValue("name"))
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	_, err = w.Write(wire)
	return err
}

// handleKeyDelete removes a stored key. 204 on success.
func (s *Server) handleKeyDelete(w http.ResponseWriter, r *http.Request, tenant string) error {
	if err := s.cfg.Keys.Delete(tenant, r.PathValue("name")); err != nil {
		return err
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// handleKeyList returns the tenant's key names, sorted.
func (s *Server) handleKeyList(w http.ResponseWriter, r *http.Request, tenant string) error {
	names, err := s.cfg.Keys.List(tenant)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "keys": names})
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return json.NewEncoder(w).Encode(v)
}
