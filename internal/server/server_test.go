package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privtree/internal/dataset"
	"privtree/internal/pipeline"
	"privtree/internal/synth"
	"privtree/internal/transform"
	"privtree/internal/tree"
)

// testOptions mirrors the handler's encode defaults exactly; the
// byte-identity assertions lean on both sides using the same options.
func testOptions() pipeline.Options {
	return pipeline.Options{Strategy: pipeline.StrategyMaxMP, Breakpoints: 20, MinPieceWidth: 5}
}

// testData generates a deterministic workload and its CSV text.
func testData(t testing.TB, rows int, seed int64) (*dataset.Dataset, string) {
	t.Helper()
	d, err := synth.Covertype(rand.New(rand.NewSource(seed)), rows)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return d, buf.String()
}

// refEncode is the serial reference path — the exact computation
// `privtree encode` runs: BuildKey at the seed, then the streaming
// apply. Every HTTP encode must match it byte for byte.
func refEncode(t testing.TB, d *dataset.Dataset, seed int64) (wire, encCSV []byte) {
	t.Helper()
	key, err := pipeline.BuildKey(d, testOptions(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if wire, err = transform.MarshalKey(key); err != nil {
		t.Fatal(err)
	}
	outSchema, err := pipeline.OutputSchema(key, d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipeline.ApplyStream(context.Background(), key, dataset.NewDatasetSource(d), dataset.NewCSVSink(&buf, outSchema), 0, 1); err != nil {
		t.Fatal(err)
	}
	return wire, buf.Bytes()
}

func mustServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Keys == nil {
		cfg.Keys = NewMemStore()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do runs one request against the handler and returns the recorder.
func do(s *Server, method, target, tenant, accept, body string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestHandlerBattery is the table-driven server matrix: every endpoint
// × method/route/status/content-type, the error-taxonomy→HTTP mapping,
// and malformed-body cases. Rows run in order against one server, so
// later rows may depend on state earlier rows created (PUT → GET →
// DELETE, encode → 409).
func TestHandlerBattery(t *testing.T) {
	const seed = 3
	d1, csv1 := testData(t, 300, seed)
	wire1, enc1 := refEncode(t, d1, seed)
	_, csvOther := testData(t, 300, 99) // same schema, different rows
	wireOther, _ := refEncode(t, mustDataset(t, csvOther), seed)

	// A tree mined from the encoded rows — what the untrusted service
	// would ship back.
	minedTree, err := tree.Build(mustDataset(t, string(enc1)), tree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	minedJSON, err := tree.Marshal(minedTree)
	if err != nil {
		t.Fatal(err)
	}
	// A structurally valid key over a different schema (1 attribute) —
	// the key-mismatch case.
	fig1CSV := datasetCSV(t, synth.Figure1())

	decodeBody := func(m map[string]any) string {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	s := mustServer(t, Config{})

	cases := []struct {
		name       string
		method     string
		target     string
		tenant     string
		accept     string
		body       string
		wantStatus int
		wantCT     string // Content-Type prefix; "" = don't care
		wantInBody string // substring; "" = don't care
		check      func(t *testing.T, rec *httptest.ResponseRecorder)
	}{
		// --- telemetry plane (mounted from obs/export) --------------
		{name: "healthz ok", method: "GET", target: "/healthz", wantStatus: 200, wantCT: "text/plain", wantInBody: "ok"},
		{name: "healthz wrong method", method: "POST", target: "/healthz", wantStatus: 405},
		{name: "metrics ok", method: "GET", target: "/metrics", wantStatus: 200, wantCT: "text/plain", wantInBody: "privtree_build_info"},
		{name: "snapshot json", method: "GET", target: "/snapshot?format=json", wantStatus: 200, wantCT: "application/json"},
		{name: "snapshot bad format", method: "GET", target: "/snapshot?format=bogus", wantStatus: 400},

		// --- routing ------------------------------------------------
		{name: "unknown path", method: "GET", target: "/v1/nope", wantStatus: 404},
		{name: "encode wrong method", method: "GET", target: "/v1/encode", wantStatus: 405},
		{name: "decode wrong method", method: "GET", target: "/v1/decode", wantStatus: 405},
		{name: "verify wrong method", method: "DELETE", target: "/v1/verify", wantStatus: 405},
		{name: "keys wrong method", method: "POST", target: "/v1/tenants/acme/keys/k", wantStatus: 405},

		// --- encode -------------------------------------------------
		{
			name: "encode happy streaming csv", method: "POST",
			target: "/v1/encode?key=k1&seed=3", body: csv1,
			wantStatus: 200, wantCT: "text/csv",
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				if !bytes.Equal(rec.Body.Bytes(), enc1) {
					t.Error("HTTP encode is not byte-identical to the serial reference encode")
				}
				if got := rec.Header().Get("X-Privtree-Rows"); got != "300" {
					t.Errorf("X-Privtree-Rows = %q, want 300", got)
				}
				if got := rec.Header().Get("X-Privtree-Key"); got != "k1" {
					t.Errorf("X-Privtree-Key = %q, want k1", got)
				}
			},
		},
		{
			name: "encode existing key conflicts", method: "POST",
			target: "/v1/encode?key=k1&seed=3", body: csv1,
			wantStatus: 409, wantCT: "application/json", wantInBody: "overwrite=1",
		},
		{
			name: "encode overwrite allowed", method: "POST",
			target: "/v1/encode?key=k1&seed=3&overwrite=1", body: csv1,
			wantStatus: 200, wantCT: "text/csv",
		},
		{
			name: "encode json envelope returns key inline", method: "POST",
			target: "/v1/encode?seed=3", accept: "application/json", body: csv1,
			wantStatus: 200, wantCT: "application/json",
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var resp encodeResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				// json.Marshal compacts the embedded RawMessage, so
				// compare compacted forms.
				if compactJSON(t, resp.KeyJSON) != compactJSON(t, wire1) {
					t.Error("JSON-mode key_json differs from the CLI's key wire bytes")
				}
				if resp.CSV != string(enc1) {
					t.Error("JSON-mode csv differs from the serial reference encode")
				}
				if resp.Rows != 300 || resp.Attrs != d1.NumAttrs() {
					t.Errorf("rows/attrs = %d/%d, want 300/%d", resp.Rows, resp.Attrs, d1.NumAttrs())
				}
			},
		},
		{
			name: "encode csv mode without key name", method: "POST",
			target: "/v1/encode?seed=3", body: csv1,
			wantStatus: 400, wantInBody: "key",
		},
		{name: "encode bad strategy", method: "POST", target: "/v1/encode?key=x&strategy=bogus", body: csv1, wantStatus: 400, wantInBody: "strategy"},
		{name: "encode bad seed", method: "POST", target: "/v1/encode?key=x&seed=abc", body: csv1, wantStatus: 400, wantInBody: "seed"},
		{name: "encode bad w", method: "POST", target: "/v1/encode?key=x&w=many", body: csv1, wantStatus: 400, wantInBody: "w="},
		{name: "encode bad key name", method: "POST", target: "/v1/encode?key=.dot", body: csv1, wantStatus: 400, wantInBody: "letter or digit"},
		{name: "encode malformed csv", method: "POST", target: "/v1/encode?key=x2", body: "a,b,class\nnot-a-number,2,yes\n", wantStatus: 400, wantInBody: "malformed"},
		{name: "encode empty body", method: "POST", target: "/v1/encode?key=x2", body: "", wantStatus: 400},
		{name: "encode ragged csv", method: "POST", target: "/v1/encode?key=x2", body: "a,b,class\n1,2\n", wantStatus: 400},
		{name: "encode bad tenant header", method: "POST", target: "/v1/encode?key=x2", tenant: "..", body: csv1, wantStatus: 400, wantInBody: "tenant"},

		// --- key management ----------------------------------------
		{
			name: "put key creates", method: "PUT",
			target: "/v1/tenants/acme/keys/alpha", body: string(wire1),
			wantStatus: 201, wantCT: "application/json",
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var resp keyPutResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if !resp.Created || resp.Tenant != "acme" || resp.Key != "alpha" || resp.Attrs != d1.NumAttrs() {
					t.Errorf("put response %+v", resp)
				}
			},
		},
		{name: "put key replaces", method: "PUT", target: "/v1/tenants/acme/keys/alpha", body: string(wire1), wantStatus: 200, wantInBody: `"created":false`},
		{name: "put key wrong wire version", method: "PUT", target: "/v1/tenants/acme/keys/beta", body: `{"version":99,"attrs":[]}`, wantStatus: 400, wantInBody: "version"},
		{name: "put key garbage body", method: "PUT", target: "/v1/tenants/acme/keys/beta", body: "not json", wantStatus: 400},
		{name: "put key bad name", method: "PUT", target: "/v1/tenants/acme/keys/.dot", body: string(wire1), wantStatus: 400},
		{name: "put key bad tenant", method: "PUT", target: "/v1/tenants/.acme/keys/ok", body: string(wire1), wantStatus: 400},
		{
			name: "get key returns exact wire bytes", method: "GET",
			target:     "/v1/tenants/acme/keys/alpha",
			wantStatus: 200, wantCT: "application/json",
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				if !bytes.Equal(rec.Body.Bytes(), wire1) {
					t.Error("GET key is not bit-identical to what PUT stored")
				}
			},
		},
		{name: "get key missing", method: "GET", target: "/v1/tenants/acme/keys/ghost", wantStatus: 404, wantCT: "application/json"},
		{name: "get key cross tenant isolated", method: "GET", target: "/v1/tenants/other/keys/alpha", wantStatus: 404},
		{name: "list keys", method: "GET", target: "/v1/tenants/acme/keys", wantStatus: 200, wantCT: "application/json", wantInBody: `"alpha"`},
		{name: "delete key", method: "DELETE", target: "/v1/tenants/acme/keys/alpha", wantStatus: 204},
		{name: "delete key again", method: "DELETE", target: "/v1/tenants/acme/keys/alpha", wantStatus: 404},

		// --- decode -------------------------------------------------
		{name: "seed decode key", method: "PUT", target: "/v1/tenants/acme/keys/dkey", body: string(wire1), wantStatus: 201},
		{
			name: "decode mined tree", method: "POST",
			target: "/v1/decode?key=dkey", tenant: "acme",
			body:       decodeBody(map[string]any{"tree": json.RawMessage(minedJSON), "orig_csv": csv1}),
			wantStatus: 200, wantCT: "application/json",
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var resp decodeResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if !resp.SameOutcome {
					t.Error("decoded tree does not match direct mining — the paper's guarantee broke over HTTP")
				}
				if resp.Nodes == 0 || resp.Tree == nil {
					t.Errorf("decode response missing tree: %+v", resp)
				}
			},
		},
		{
			name: "decode by re-mining encoded csv", method: "POST",
			target: "/v1/decode?key=dkey", tenant: "acme",
			body:       decodeBody(map[string]any{"encoded_csv": string(enc1), "orig_csv": csv1}),
			wantStatus: 200, wantInBody: `"same_outcome":true`,
		},
		{name: "decode missing key param", method: "POST", target: "/v1/decode", tenant: "acme", body: "{}", wantStatus: 400, wantInBody: "key"},
		{name: "decode unknown key", method: "POST", target: "/v1/decode?key=ghost", tenant: "acme", body: "{}", wantStatus: 404},
		{name: "decode key invisible to other tenant", method: "POST", target: "/v1/decode?key=dkey", tenant: "other", body: "{}", wantStatus: 404},
		{name: "decode bad json", method: "POST", target: "/v1/decode?key=dkey", tenant: "acme", body: "{nope", wantStatus: 400},
		{
			name: "decode both tree and encoded_csv", method: "POST",
			target: "/v1/decode?key=dkey", tenant: "acme",
			body:       decodeBody(map[string]any{"tree": json.RawMessage(minedJSON), "encoded_csv": string(enc1), "orig_csv": csv1}),
			wantStatus: 400, wantInBody: "exactly one",
		},
		{
			name: "decode neither tree nor encoded_csv", method: "POST",
			target: "/v1/decode?key=dkey", tenant: "acme",
			body:       decodeBody(map[string]any{"orig_csv": csv1}),
			wantStatus: 400, wantInBody: "exactly one",
		},
		{
			name: "decode missing orig_csv", method: "POST",
			target: "/v1/decode?key=dkey", tenant: "acme",
			body:       decodeBody(map[string]any{"tree": json.RawMessage(minedJSON)}),
			wantStatus: 400, wantInBody: "orig_csv",
		},
		{
			name: "decode malformed tree", method: "POST",
			target: "/v1/decode?key=dkey", tenant: "acme",
			body:       decodeBody(map[string]any{"tree": json.RawMessage(`{"root":null}`), "orig_csv": csv1}),
			wantStatus: 400,
		},
		{
			name: "decode key mismatch", method: "POST",
			target: "/v1/decode?key=dkey", tenant: "acme",
			body:       decodeBody(map[string]any{"tree": json.RawMessage(minedJSON), "orig_csv": fig1CSV}),
			wantStatus: 422, wantInBody: "attributes",
		},
		{
			name: "decode bad criterion", method: "POST",
			target: "/v1/decode?key=dkey", tenant: "acme",
			body:       decodeBody(map[string]any{"tree": json.RawMessage(minedJSON), "orig_csv": csv1, "criterion": "chi2"}),
			wantStatus: 400, wantInBody: "criterion",
		},

		// --- verify -------------------------------------------------
		{
			name: "verify key against its data", method: "POST",
			target: "/v1/verify?key=dkey", tenant: "acme", body: csv1,
			wantStatus: 200, wantCT: "application/json",
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var resp verifyResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if !resp.OK || len(resp.Violations) != 0 {
					t.Errorf("conformance battery failed on the key's own data: %+v", resp.Violations)
				}
				if len(resp.Checks) == 0 {
					t.Error("verify response lists no checks")
				}
			},
		},
		{name: "seed foreign key", method: "PUT", target: "/v1/tenants/acme/keys/foreign", body: string(wireOther), wantStatus: 201},
		{
			name: "verify foreign key reports violations", method: "POST",
			target: "/v1/verify?key=foreign&guarantee=0", tenant: "acme", body: csv1,
			wantStatus: 200,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var resp verifyResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.OK || len(resp.Violations) == 0 {
					t.Error("verify accepted a key built from different data")
				}
			},
		},
		{name: "verify attr mismatch", method: "POST", target: "/v1/verify?key=dkey", tenant: "acme", body: fig1CSV, wantStatus: 422},
		{name: "verify missing key param", method: "POST", target: "/v1/verify", tenant: "acme", body: csv1, wantStatus: 400},
		{name: "verify unknown key", method: "POST", target: "/v1/verify?key=ghost", tenant: "acme", body: csv1, wantStatus: 404},
		{name: "verify malformed body", method: "POST", target: "/v1/verify?key=dkey", tenant: "acme", body: "x", wantStatus: 400},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(s, tc.method, tc.target, tc.tenant, tc.accept, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("%s %s: status %d, want %d (body: %s)", tc.method, tc.target, rec.Code, tc.wantStatus, rec.Body.String())
			}
			if tc.wantCT != "" && !strings.HasPrefix(rec.Header().Get("Content-Type"), tc.wantCT) {
				t.Errorf("Content-Type %q, want prefix %q", rec.Header().Get("Content-Type"), tc.wantCT)
			}
			if tc.wantInBody != "" && !strings.Contains(rec.Body.String(), tc.wantInBody) {
				t.Errorf("body %q does not contain %q", rec.Body.String(), tc.wantInBody)
			}
			if tc.check != nil {
				tc.check(t, rec)
			}
		})
	}
}

func compactJSON(t testing.TB, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func mustDataset(t testing.TB, csv string) *dataset.Dataset {
	t.Helper()
	d, err := dataset.ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func datasetCSV(t testing.TB, d *dataset.Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDecodeRejectsNonFinite is the regression for a NaN or ±Inf in a
// decode body: mining over one once spun forever, so one request could
// pin a core. Both mining paths of /v1/decode — the original rows, and
// encoded rows to re-mine — must answer 400 promptly. A split between
// huge finite values, whose sum overflows, must be answered promptly
// too.
func TestDecodeRejectsNonFinite(t *testing.T) {
	const seed = 3
	d, orig := testData(t, 300, seed)
	wire, enc := refEncode(t, d, seed)
	mined, err := tree.Build(mustDataset(t, string(enc)), tree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	minedJSON, err := tree.Marshal(mined)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the first attribute value of the first two data rows.
	with := func(csv, v1, v2 string) string {
		var b strings.Builder
		for i, line := range strings.SplitAfter(csv, "\n") {
			if v := [3]string{"", v1, v2}; i == 1 || i == 2 {
				line = v[i] + line[strings.IndexByte(line, ','):]
			}
			b.WriteString(line)
		}
		return b.String()
	}
	s := mustServer(t, Config{})
	if rec := do(s, "PUT", "/v1/tenants/acme/keys/k", "", "", string(wire)); rec.Code != http.StatusCreated {
		t.Fatalf("seeding key: status %d", rec.Code)
	}
	decode := func(name string, body map[string]any) *httptest.ResponseRecorder {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- do(s, "POST", "/v1/decode?key=k", "acme", "", string(b)) }()
		select {
		case rec := <-done:
			return rec
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: decode still running after 10s", name)
			return nil
		}
	}
	for _, bad := range []string{"NaN", "+Inf", "-Inf"} {
		for path, body := range map[string]map[string]any{
			"orig_csv":    {"tree": json.RawMessage(minedJSON), "orig_csv": with(orig, bad, "1")},
			"encoded_csv": {"encoded_csv": with(string(enc), bad, "1"), "orig_csv": orig},
		} {
			name := bad + " in " + path
			rec := decode(name, body)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "non-finite") {
				t.Errorf("%s: status %d body %s, want 400 naming the non-finite value", name, rec.Code, rec.Body.String())
			}
		}
	}
	// The first attribute becomes 1.5e308 or 1.7e308 by class, so mining
	// splits between two values whose sum overflows.
	extreme := func(csv string) string {
		lines := strings.SplitAfter(csv, "\n")
		class := func(line string) string { return line[strings.LastIndexByte(line, ','):] }
		for i := 1; i < len(lines) && lines[i] != ""; i++ {
			v := "1.5e308"
			if class(lines[i]) != class(lines[1]) {
				v = "1.7e308"
			}
			lines[i] = v + lines[i][strings.IndexByte(lines[i], ','):]
		}
		return strings.Join(lines, "")
	}
	for path, body := range map[string]map[string]any{
		"orig_csv":    {"tree": json.RawMessage(minedJSON), "orig_csv": extreme(orig)},
		"encoded_csv": {"encoded_csv": extreme(string(enc)), "orig_csv": orig},
	} {
		name := "1.5e308/1.7e308 in " + path
		if rec := decode(name, body); rec.Code >= 500 {
			t.Errorf("%s: status %d body %s", name, rec.Code, rec.Body.String())
		}
	}
}

// TestOversizedRequest asserts the body cap maps to 413 — not to the
// 400 the CSV reader would report for the truncated read.
func TestOversizedRequest(t *testing.T) {
	_, csv1 := testData(t, 300, 1)
	s := mustServer(t, Config{MaxBody: 64})
	rec := do(s, "POST", "/v1/encode?key=k", "", "", csv1)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (body: %s)", rec.Code, rec.Body.String())
	}
	// The cap applies to key PUTs too.
	rec = do(s, "PUT", "/v1/tenants/a/keys/k", "", "", strings.Repeat("x", 1000))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized key PUT: status %d, want 413", rec.Code)
	}
}

// TestOversizedRequestPastFirstWindow caps the body past the CSV
// reader's first 256 KiB window, so the cap strikes while later windows
// are read in parallel: the *http.MaxBytesError must still surface and
// map to 413.
func TestOversizedRequestPastFirstWindow(t *testing.T) {
	_, csv1 := testData(t, 20000, 1)
	if len(csv1) < 600<<10 {
		t.Fatalf("body of %d bytes is too small", len(csv1))
	}
	s := mustServer(t, Config{MaxBody: 512 << 10})
	rec := do(s, "POST", "/v1/encode?key=k", "", "", csv1)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (body: %s)", rec.Code, rec.Body.String())
	}
}

// TestRateLimit asserts the per-tenant token bucket: a burst past
// capacity gets 429 + Retry-After, and one tenant's burst does not
// throttle another.
func TestRateLimit(t *testing.T) {
	s := mustServer(t, Config{Rate: 0.001, Burst: 2})
	target := "/v1/tenants/acme/keys" // cheap GET, still /v1-limited
	for i := 0; i < 2; i++ {
		if rec := do(s, "GET", target, "", "", ""); rec.Code != 200 {
			t.Fatalf("request %d inside burst: status %d", i, rec.Code)
		}
	}
	rec := do(s, "GET", target, "", "", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("burst request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "rate limit") {
		t.Errorf("429 body %q does not name the rate limit", rec.Body.String())
	}
	// A different tenant (different path tenant) is unaffected.
	if rec := do(s, "GET", "/v1/tenants/beta/keys", "", "", ""); rec.Code != 200 {
		t.Fatalf("other tenant throttled: status %d", rec.Code)
	}
	// The telemetry plane is never rate-limited.
	if rec := do(s, "GET", "/healthz", "", "", ""); rec.Code != 200 {
		t.Fatalf("healthz rate-limited: status %d", rec.Code)
	}
}

// TestStatusTable pins the error→status mapping, including errors
// arriving wrapped in a pipeline.StageError (the form the encode path
// produces).
func TestStatusTable(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrNoSuchKey, 404},
		{ErrKeyExists, 409},
		{ErrBadName, 400},
		{ErrRateLimited, 429},
		{dataset.ErrMalformedCSV, 400},
		{dataset.ErrBadManifest, 400},
		{dataset.ErrNonFiniteValue, 400},
		{transform.ErrKeyVersion, 400},
		{transform.ErrKeyMismatch, 422},
		{transform.ErrAppendUnsafe, 422},
		{pipeline.ErrUnknownStrategy, 400},
		{pipeline.ErrNoValues, 422},
		{tree.ErrMalformedTree, 400},
		{tree.ErrEmptyData, 422},
		{context.Canceled, statusClientClosedRequest},
		{context.DeadlineExceeded, 504},
		{badRequestf("x"), 400},
		{&http.MaxBytesError{Limit: 1}, 413},
		{errors.New("novel failure"), 500},
		// Wrapped forms: the table must see through StageError and fmt
		// wrapping.
		{&pipeline.StageError{Stage: pipeline.StageApply, Err: transform.ErrKeyMismatch}, 422},
		{&pipeline.StageError{Stage: pipeline.StageApply, Err: fmt.Errorf("stream aborted: %w", context.Canceled)}, statusClientClosedRequest},
		{fmt.Errorf("tenant x: %w", ErrNoSuchKey), 404},
	}
	for _, tc := range cases {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestWriteErrorStageAttribution asserts the JSON envelope carries the
// pipeline stage/attr attribution API clients debug by.
func TestWriteErrorStageAttribution(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, &pipeline.StageError{Stage: pipeline.StageProfile, Attr: "age", Err: pipeline.ErrNoValues})
	if rec.Code != 422 {
		t.Fatalf("status %d, want 422", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Stage != "profile" || body.Attr != "age" || body.Status != 422 {
		t.Errorf("error envelope %+v", body)
	}
}

// TestNewRequiresKeys pins the only construction-time invariant.
func TestNewRequiresKeys(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a Config without a KeyStore")
	}
}
