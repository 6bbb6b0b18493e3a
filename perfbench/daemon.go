package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"privtree"
	"privtree/internal/obs"
	"privtree/internal/server"
	"privtree/internal/synth"
)

const (
	// bodyRows is the rows of every daemon-mix request body: small, so
	// that per-call costs (key drawing, JSON, HTTP, allocation) show.
	bodyRows = 1000
	// poolSize is how many distinct bodies, each with a stored key and
	// a mined tree for decode, the clients draw from.
	poolSize = 32
	// clients is the closed loop's client count, one keep-alive
	// connection each: one per core of the 2-core reference host.
	clients = 2
	// minPerRoute is the fewest requests per route a run measures, so
	// that p99 has at least 10 samples beyond it.
	minPerRoute = 1000
	// idHeader carries a request's number, so the traced server can
	// report its handler time for that request.
	idHeader = "X-Bench-Id"
)

// Routes of the mix, in the order each client alternates them.
const (
	routeEncode = iota
	routeDecode
)

var routeNames = [...]string{"encode", "decode"}

// serveMain is the daemon child: privtreed's default setup
// (process-wide obs registry with event capture, in-memory key store,
// server.New over a loopback listener) with the benchmark's wrappers
// around the KeyStore and http.Handler when -trace is set. It prints
// its address, then obeys lines on stdin: "start 0|1" begins a
// measured phase (1: record handler and key-store times), "stop" ends
// it and prints the phase's server-side figures as JSON. EOF shuts it
// down.
func serveMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	traced := fs.Bool("trace", false, "wrap the KeyStore and the handler to time them")
	failStore := fs.Bool("fail-keystore", false, "fail every key-store call once a phase has started (failure-accounting tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := serve(*traced, *failStore, stdin, stdout); err != nil {
		fmt.Fprintln(stderr, "serve:", err)
		return 1
	}
	return 0
}

func serve(traced, failStore bool, stdin io.Reader, stdout io.Writer) error {
	reg := obs.NewRegistry()
	reg.CaptureEvents(obs.DefaultEventCap)
	obs.Enable(reg)
	rec := &serverRecorder{}
	var store server.KeyStore = server.NewMemStore()
	if failStore {
		store = &failingStore{KeyStore: store, rec: rec}
	}
	if traced {
		store = &timedStore{KeyStore: store, rec: rec}
	}
	srv, err := server.New(server.Config{Keys: store, Registry: reg})
	if err != nil {
		return err
	}
	var h http.Handler = srv
	if traced {
		h = &timedHandler{next: srv, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "addr %s\n", ln.Addr())

	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		switch line := sc.Text(); line {
		case "start 0", "start 1":
			rec.start(line == "start 1")
			fmt.Fprintln(stdout, "ok")
		case "stop":
			blob, err := json.Marshal(rec.stop())
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", blob)
		default:
			return fmt.Errorf("unknown command %q", line)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
		return err
	}
	<-serveErr
	return nil
}

// serverStats are the server process's figures for one phase.
type serverStats struct {
	WallNs     int64        `json:"wall_ns"`
	CPUNs      int64        `json:"cpu_ns"`
	AllocBytes uint64       `json:"alloc_bytes"`
	GCCycles   uint32       `json:"gc_cycles"`
	KeyStoreNs int64        `json:"keystore_ns"`
	Handler    []handlerRec `json:"handler"`
}

// handlerRec is one request's time inside Server.ServeHTTP.
type handlerRec struct {
	ID int64 `json:"id"`
	Ns int64 `json:"ns"`
}

// serverRecorder collects a phase's server-side figures.
type serverRecorder struct {
	started atomic.Bool // a phase is running
	on      atomic.Bool // record handler and key-store times
	storeNs atomic.Int64

	mu      sync.Mutex
	handler []handlerRec

	t0  time.Time
	cpu time.Duration
	ms  runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *serverRecorder) start(record bool) {
	r.mu.Lock()
	r.handler = r.handler[:0]
	r.mu.Unlock()
	r.storeNs.Store(0)
	runtime.ReadMemStats(&r.ms)
	r.t0, r.cpu = time.Now(), cpuTime()
	r.on.Store(record)
	r.started.Store(true)
}

func (r *serverRecorder) stop() *serverStats {
	r.on.Store(false)
	r.started.Store(false)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	defer r.mu.Unlock()
	return &serverStats{
		WallNs:     time.Since(r.t0).Nanoseconds(),
		CPUNs:      (cpuTime() - r.cpu).Nanoseconds(),
		AllocBytes: ms.TotalAlloc - r.ms.TotalAlloc,
		GCCycles:   ms.NumGC - r.ms.NumGC,
		KeyStoreNs: r.storeNs.Load(),
		Handler:    append([]handlerRec(nil), r.handler...),
	}
}

// timedHandler times Server.ServeHTTP per request.
type timedHandler struct {
	next http.Handler
	rec  *serverRecorder
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	ns := time.Since(start).Nanoseconds()
	id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
	if err != nil {
		return
	}
	h.rec.mu.Lock()
	h.rec.handler = append(h.rec.handler, handlerRec{ID: id, Ns: ns})
	h.rec.mu.Unlock()
}

// timedStore adds the time of every KeyStore call to the phase total.
type timedStore struct {
	server.KeyStore
	rec *serverRecorder
}

func (s *timedStore) timed(start time.Time) {
	if s.rec.on.Load() {
		s.rec.storeNs.Add(time.Since(start).Nanoseconds())
	}
}

func (s *timedStore) Put(tenant, name string, wire []byte) (bool, error) {
	defer s.timed(time.Now())
	return s.KeyStore.Put(tenant, name, wire)
}

func (s *timedStore) Get(tenant, name string) ([]byte, error) {
	defer s.timed(time.Now())
	return s.KeyStore.Get(tenant, name)
}

func (s *timedStore) Delete(tenant, name string) error {
	defer s.timed(time.Now())
	return s.KeyStore.Delete(tenant, name)
}

func (s *timedStore) List(tenant string) ([]string, error) {
	defer s.timed(time.Now())
	return s.KeyStore.List(tenant)
}

// errInjected is the failing store's answer.
var errInjected = errors.New("injected key-store failure")

// failingStore fails every call made during a phase, so the server
// answers 5xx; set-up, which stores the decode keys, still succeeds.
type failingStore struct {
	server.KeyStore
	rec *serverRecorder
}

func (s *failingStore) Put(tenant, name string, wire []byte) (bool, error) {
	if s.rec.started.Load() {
		return false, errInjected
	}
	return s.KeyStore.Put(tenant, name, wire)
}

func (s *failingStore) Get(tenant, name string) ([]byte, error) {
	if s.rec.started.Load() {
		return nil, errInjected
	}
	return s.KeyStore.Get(tenant, name)
}

// serverProc is a running daemon child.
type serverProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	stderr bytes.Buffer
	addr   string
}

func startServer(ctx context.Context, cfg *config, traced bool) (*serverProc, error) {
	args := []string{"serve"}
	if traced {
		args = append(args, "-trace")
	}
	if cfg.faults.failKeyStore {
		args = append(args, "-fail-keystore")
	}
	sp := &serverProc{cmd: exec.CommandContext(ctx, cfg.exe, args...)}
	sp.cmd.Env = append(os.Environ(), childEnv+"=1")
	sp.cmd.Stderr = &sp.stderr
	var err error
	if sp.stdin, err = sp.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := sp.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	sp.stdout = bufio.NewReader(out)
	if err := sp.cmd.Start(); err != nil {
		return nil, err
	}
	line, err := sp.readLine()
	if err == nil {
		_, err = fmt.Sscanf(line, "addr %s", &sp.addr)
	}
	if err != nil {
		sp.stop()
		return nil, fmt.Errorf("server did not start: %v: %s", err, sp.stderr.String())
	}
	return sp, nil
}

func (sp *serverProc) readLine() (string, error) {
	line, err := sp.stdout.ReadString('\n')
	if err != nil {
		return "", err
	}
	return line[:len(line)-1], nil
}

// command sends one control line and returns the reply.
func (sp *serverProc) command(cmd string) (string, error) {
	if _, err := fmt.Fprintln(sp.stdin, cmd); err != nil {
		return "", err
	}
	return sp.readLine()
}

// stop closes the control pipe, so the server shuts down, and waits
// for it to exit; it returns the process's peak RSS.
func (sp *serverProc) stop() (rssKiB int64, err error) {
	sp.stdin.Close()
	err = sp.cmd.Wait()
	if ps := sp.cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rssKiB = ru.Maxrss
		}
	}
	if err != nil {
		err = fmt.Errorf("server: %v: %s", err, sp.stderr.String())
	}
	return rssKiB, err
}

// pool holds the request bodies.
type pool struct {
	csv    [][]byte // encode bodies
	decode [][]byte // decode bodies, decode[j] for stored key dec-j
	keys   [][]byte // key wire bytes, stored as dec-j
	treeB  int64    // total tree JSON bytes
}

// buildPool generates the bodies and, for each, the custodian's key
// and the tree the service mines from the encoded body. With tamper
// the tree is mined only two levels deep, so it cannot decode to the
// direct-mining tree.
func buildPool(seed int64, tamper bool) (*pool, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &pool{}
	cfg := treeConfig()
	if tamper {
		cfg.MaxDepth = 2
	}
	for j := 0; j < poolSize; j++ {
		gen, err := synth.Covertype(rng, bodyRows)
		if err != nil {
			return nil, err
		}
		var csv bytes.Buffer
		if err := gen.WriteCSV(&csv); err != nil {
			return nil, err
		}
		// Encode what the server will parse: reading the CSV numbers the
		// classes in order of first appearance, as it does for orig_csv.
		d, err := privtree.ReadCSV(bytes.NewReader(csv.Bytes()))
		if err != nil {
			return nil, err
		}
		enc, key, err := privtree.Encode(d, encodeOptions(), seed+int64(j))
		if err != nil {
			return nil, err
		}
		t, err := privtree.Mine(enc, cfg)
		if err != nil {
			return nil, err
		}
		treeJSON, err := privtree.MarshalTree(t)
		if err != nil {
			return nil, err
		}
		wire, err := privtree.MarshalKey(key)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{"tree": json.RawMessage(treeJSON), "orig_csv": csv.String()})
		if err != nil {
			return nil, err
		}
		p.csv = append(p.csv, csv.Bytes())
		p.decode = append(p.decode, body)
		p.keys = append(p.keys, wire)
		p.treeB += int64(len(treeJSON))
	}
	return p, nil
}

// storeKeys stores the pool's decode keys through the key API.
func storeKeys(ctx context.Context, addr string, p *pool) error {
	c := &http.Client{Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	for j, wire := range p.keys {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut,
			fmt.Sprintf("http://%s/v1/tenants/default/keys/dec-%d", addr, j), bytes.NewReader(wire))
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("storing key dec-%d: %s", j, resp.Status)
		}
	}
	return nil
}

// reqRec is one request as its client saw it.
type reqRec struct {
	route    int
	id       int64
	ok       bool
	why      string
	lat      time.Duration
	end      time.Duration // completion, from the start of the phase
	in, out  int64
	csvBytes int64
}

// calEvery is how often the closed loop pauses to calibrate the host.
const calEvery = time.Second

// load runs the closed loop: each client sends its next request only
// after the reply to the previous one has been read, alternating
// encode and decode. It stops once d has passed and each route has
// minPerRoute requests, or at hardStop. Before the loop and then every
// calEvery it calibrates the host alone: it lets the requests in flight
// finish, holds new ones back, and runs calibrate. The pauses are taken
// out of the loop's clock, so they count in neither wall nor any end.
func load(ctx context.Context, addr string, p *pool, seed int64, d time.Duration, perRoute int) ([]reqRec, time.Duration, []time.Duration) {
	var counts [2]atomic.Int64
	var gate sync.RWMutex // held shared per request, alone to calibrate
	var paused atomic.Int64
	cal := []time.Duration{calibrate()}
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) - time.Duration(paused.Load()) }
	stop, calDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(calDone)
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			gate.Lock()
			t := time.Now()
			cal = append(cal, calibrate())
			paused.Add(int64(time.Since(t)))
			gate.Unlock()
		}
	}()
	recs := make([][]reqRec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			for k := 0; ctx.Err() == nil; k++ {
				gate.RLock()
				el := clock()
				if el >= hardStop || (el >= d && counts[0].Load() >= int64(perRoute) && counts[1].Load() >= int64(perRoute)) {
					gate.RUnlock()
					return
				}
				n := int64(k*clients + c)
				route := (k + c) % 2
				var r reqRec
				if route == routeEncode {
					r = encodeReq(ctx, hc, addr, p, c, n, seed)
				} else {
					r = decodeReq(ctx, hc, addr, p, n)
				}
				r.end = clock()
				gate.RUnlock()
				counts[route].Add(1)
				recs[c] = append(recs[c], r)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-calDone
	wall := clock()
	var all []reqRec
	for _, rs := range recs {
		all = append(all, rs...)
	}
	return all, wall, cal
}

// encodeReq stores a fresh key in the client's slot and streams back
// the encoded body; the seed differs per request, so no two encode
// requests are alike.
func encodeReq(ctx context.Context, hc *http.Client, addr string, p *pool, c int, n, seed int64) reqRec {
	body := p.csv[n%int64(len(p.csv))]
	url := fmt.Sprintf("http://%s/v1/encode?key=enc-%d&overwrite=1&seed=%d", addr, c, seed*1_000_000+n)
	r := reqRec{route: routeEncode, id: n, in: int64(len(body)), csvBytes: int64(len(body))}
	resp, lat, blob, err := do(ctx, hc, url, body, n)
	r.lat = lat
	if err != nil {
		r.why = err.Error()
		return r
	}
	r.out = int64(len(blob))
	lines := bytes.Count(blob, []byte("\n"))
	switch {
	case resp.StatusCode != http.StatusOK:
		r.why = fmt.Sprintf("encode: %s: %s", resp.Status, firstLine(blob))
	case lines != bodyRows+1 || resp.Header.Get("X-Privtree-Rows") != strconv.Itoa(bodyRows):
		r.why = fmt.Sprintf("encode: %d lines (rows header %q) for a %d-row body", lines, resp.Header.Get("X-Privtree-Rows"), bodyRows)
	default:
		r.ok = true
	}
	return r
}

// decodeReq decodes a stored key's mined tree against its original
// rows; the server re-mines them directly and compares.
func decodeReq(ctx context.Context, hc *http.Client, addr string, p *pool, n int64) reqRec {
	j := n % int64(len(p.decode))
	body := p.decode[j]
	r := reqRec{route: routeDecode, id: n, in: int64(len(body)), csvBytes: int64(len(p.csv[j]))}
	resp, lat, blob, err := do(ctx, hc, fmt.Sprintf("http://%s/v1/decode?key=dec-%d", addr, j), body, n)
	r.lat = lat
	if err != nil {
		r.why = err.Error()
		return r
	}
	r.out = int64(len(blob))
	var verdict struct {
		SameOutcome bool `json:"same_outcome"`
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		r.why = fmt.Sprintf("decode: %s: %s", resp.Status, firstLine(blob))
	case json.Unmarshal(blob, &verdict) != nil:
		r.why = "decode: unreadable response"
	case !verdict.SameOutcome:
		r.why = "decode: same_outcome false"
	default:
		r.ok = true
	}
	return r
}

// do POSTs body and reads the whole reply, timing both.
func do(ctx context.Context, hc *http.Client, url string, body []byte, id int64) (*http.Response, time.Duration, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, time.Since(start), nil, err
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, time.Since(start), blob, err
}

// daemonSetup is one set-up of daemon-mix: the pool, a started server
// and the stored decode keys.
func daemonSetup(ctx context.Context, cfg *config, traced bool) (*pool, *serverProc, error) {
	p, err := buildPool(cfg.seed, cfg.faults.tamperTree)
	if err != nil {
		return nil, nil, err
	}
	sp, err := startServer(ctx, cfg, traced)
	if err != nil {
		return nil, nil, err
	}
	if err := storeKeys(ctx, sp.addr, p); err != nil {
		sp.stop()
		return nil, nil, err
	}
	return p, sp, nil
}

// runDaemon sets daemon-mix up setupReps times, keeping the last
// server, then runs the closed loop: untraced, or with -trace 1 first
// untraced and then traced, half the time each.
func runDaemon(ctx context.Context, cfg *config) (_ *outcome, err error) {
	out := &outcome{}
	var p *pool
	var sp *serverProc
	for i := 0; i < setupReps; i++ {
		if sp != nil {
			if _, err := sp.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if p, sp, err = daemonSetup(ctx, cfg, cfg.trace); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setup = append(out.setup, time.Since(start))
	}
	defer func() {
		rss, e := sp.stop()
		if err == nil && e != nil {
			err = e
		}
		for _, m := range []metrics{out.plain, out.traced} {
			if m != nil {
				m.put("server.rss_mb", kibToMiB(rss), "MB")
			}
		}
	}()
	phase := func(d time.Duration, traced bool) (metrics, error) {
		on := "start 0"
		if traced {
			on = "start 1"
		}
		if reply, err := sp.command(on); err != nil || reply != "ok" {
			return nil, fmt.Errorf("starting a phase: %q %v", reply, err)
		}
		recs, wall, cal := load(ctx, sp.addr, p, cfg.seed, d, cfg.minPerRoute)
		reply, err := sp.command("stop")
		if err != nil {
			return nil, fmt.Errorf("ending a phase: %v", err)
		}
		var st serverStats
		if err := json.Unmarshal([]byte(reply), &st); err != nil {
			return nil, fmt.Errorf("server figures: %v", err)
		}
		for _, r := range recs {
			out.count(routeNames[r.route], r.ok, r.why)
		}
		m := daemonMetrics(recs, wall, &st, p, traced)
		adjust(m, cal)
		return m, nil
	}
	if !cfg.trace {
		out.plain, err = phase(cfg.seconds, false)
		return out, err
	}
	if out.plain, err = phase(cfg.seconds/2, false); err != nil {
		return out, err
	}
	out.traced, err = phase(cfg.seconds/2, true)
	return out, err
}

// hardStop bounds a daemon phase however slowly requests complete.
const hardStop = 75 * time.Second

// rateBatch is the size of the request batches req/s is the median
// rate of.
const rateBatch = 200

// daemonMetrics reduces one phase's requests to metrics.
func daemonMetrics(recs []reqRec, wall time.Duration, st *serverStats, p *pool, traced bool) metrics {
	m := metrics{}
	handler := map[int64]int64{}
	for _, h := range st.Handler {
		handler[h.ID] = h.Ns
	}
	var lat, transport, handlerMs [2][]float64
	var okReqs int
	var ends []time.Duration
	var in, out, csvIn, csvOut int64
	for _, r := range recs {
		in += r.in
		out += r.out
		csvIn += r.csvBytes
		if r.route == routeEncode {
			csvOut += r.out
		}
		if !r.ok {
			continue
		}
		okReqs++
		ends = append(ends, r.end)
		ms := float64(r.lat) / float64(time.Millisecond)
		lat[r.route] = append(lat[r.route], ms)
		if ns, ok := handler[r.id]; ok {
			handlerMs[r.route] = append(handlerMs[r.route], float64(ns)/1e6)
			transport[r.route] = append(transport[r.route], ms-float64(ns)/1e6)
		}
	}
	for route, name := range routeNames {
		p50 := percentile(lat[route], 50)
		m.put(name+"_rows_per_s", rowsPerSec(bodyRows, p50/1000), "rows/s")
		m.put(name+"_p50_ms", p50, "ms")
		m.put(name+"_p99_ms", percentile(lat[route], 99), "ms")
		m.put(name+"_samples", float64(len(lat[route])), "count")
		if traced {
			m.put("server."+name+"_handler_p50_ms", percentile(handlerMs[route], 50), "ms")
			m.put("http."+name+"_transport_p50_ms", percentile(transport[route], 50), "ms")
		}
	}
	// A stall of the shared host for part of the phase moves a median
	// of batch rates less than the phase's mean rate.
	reqRate := batchRate(ends, wall, rateBatch)
	m.put("rows_per_s", reqRate*bodyRows, "rows/s")
	m.put("req_per_s", reqRate, "req/s")
	if traced {
		m.put("server.keystore_s", float64(st.KeyStoreNs)/1e9, "s")
		m.put("server.bytes_in_mb", mib(in), "MB")
		m.put("server.bytes_out_mb", mib(out), "MB")
		m.put("server.cpu_util", ratio(float64(st.CPUNs), float64(st.WallNs)), "ratio")
		m.put("runtime.alloc_mb_per_req", ratio(mib(int64(st.AllocBytes)), float64(len(recs))), "MB")
		m.put("runtime.gc_cycles", float64(st.GCCycles), "count")
		m.put("dataset.csv_in_mb", mib(csvIn), "MB")
		m.put("dataset.csv_out_mb", mib(csvOut), "MB")
		var keyB int
		for _, k := range p.keys {
			keyB += len(k)
		}
		m.put("transform.key_kb", float64(keyB)/poolSize/(1<<10), "KB")
		m.put("tree.json_mb", mib(p.treeB)/poolSize, "MB")
	}
	return m
}
