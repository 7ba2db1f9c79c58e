package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/recovery"
	"secpb/internal/service"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

const (
	// serveSegs segments of trace.DefaultSegOps ops make one session's
	// trace, about 3M ops.
	serveSegs = 750
	// serveCkptEvery is the checkpoint interval: three checkpoints per
	// session before the kill and three after. Every checkpoint costs
	// three fsyncs, whose latency on a shared disk swings with other
	// tenants' writes: with a checkpoint every 16 segments, a
	// neighbouring fsync loop slowed a pass by 34-47%, with every 125
	// by 10%. The kill point is a multiple of it, so durable_segs
	// reaches it exactly.
	serveCkptEvery = 125
	serveKillAt    = serveSegs / 2 / serveCkptEvery * serveCkptEvery
	// A client checks its session's queue every serveCheckEvery uploads
	// and waits while more than serveWindow segments are queued, so the
	// server holds a bounded backlog instead of whatever the scheduler
	// lets the uploads race ahead by.
	serveCheckEvery = 8
	serveWindow     = 32
	pollEvery       = time.Millisecond
	pollTimeout     = time.Minute
)

// serveSpecs are the two sessions: an eager scheme on a SPEC proxy and
// a lazy scheme on the write-heavy key-value generator.
var serveSpecs = []struct{ name, scheme, bench string }{
	{"gcc-nogap", "nogap", "gcc"},
	{"kvheavy-cobcm", "cobcm", "kvheavy"},
}

// serveSession is one session's pre-encoded upload stream and the
// result it must produce.
type serveSession struct {
	spec   service.Spec
	cfg    config.Config
	prof   workload.Profile
	bodies [][]byte // SPB2 header + one sealed segment each
	ops    uint64
	expect []byte // service.EncodeResult(engine.RunBenchmark(...))
}

type serveBench struct {
	sessions   []*serveSession
	encodeMBps float64
	bytesPerOp float64
	logChecked bool
}

// prepare encodes each session's trace into SPB2 upload bodies and
// computes the result the session must reproduce. The encode is timed
// for trace.encode_mb_per_s.
func (b *serveBench) prepare(e *env) error {
	var encodeTime time.Duration
	var totalOps uint64
	var encoded int
	for _, s := range serveSpecs {
		spec := service.Spec{Name: s.name, Scheme: s.scheme, Bench: s.bench, Seed: e.cfgSeed}
		cfg, prof, err := spec.Build()
		if err != nil {
			return err
		}
		ops := uint64(serveSegs * trace.DefaultSegOps)
		gen, err := workload.NewGenerator(prof, cfg.Seed, ops)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		batch := trace.NewBatch(trace.DefaultBatchCap)
		t0 := time.Now()
		sw := trace.NewSegWriter(&buf, trace.DefaultSegOps)
		for gen.NextBatch(batch) {
			if err := sw.WriteBatch(batch); err != nil {
				return err
			}
		}
		if err := sw.Flush(); err != nil {
			return err
		}
		encodeTime += time.Since(t0)
		encoded += buf.Len()
		totalOps += ops
		ss := &serveSession{spec: spec, cfg: cfg, prof: prof, ops: ops}
		if _, err := trace.ScanSegments(bytes.NewReader(buf.Bytes()), func(_ int, frame []byte) error {
			ss.bodies = append(ss.bodies, append(trace.SPB2Header(), frame...))
			return nil
		}); err != nil {
			return err
		}
		if len(ss.bodies) != serveSegs {
			return fmt.Errorf("serve: %s encoded %d segments, want %d", s.name, len(ss.bodies), serveSegs)
		}
		ref, err := engine.RunBenchmark(cfg, prof, ops)
		if err != nil {
			return err
		}
		ss.expect = service.EncodeResult(ref)
		b.sessions = append(b.sessions, ss)
	}
	b.encodeMBps = float64(encoded) / 1e6 / encodeTime.Seconds()
	b.bytesPerOp = float64(encoded) / float64(totalOps)
	return nil
}

func serviceOptions(dir string) service.Options {
	return service.Options{
		DataDir:   dir,
		QueueCap:  serveSegs + 1, // never 429 by design: a 429 is a failure
		CkptEvery: serveCkptEvery,
	}
}

// serveRig is a running server, its loopback listener, and one client
// (one connection) per session.
type serveRig struct {
	sv      *service.Server
	ts      *httptest.Server
	clients []*http.Client
}

// kill cuts the server's power (service.Server.Kill), then closes the
// listener and the clients' connections.
func (r *serveRig) kill() {
	r.sv.Kill()
	r.ts.Close()
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
}

// startRig opens the server over dir behind a new listener.
func startRig(dir string, sessions int) (*serveRig, error) {
	sv, err := service.Open(serviceOptions(dir))
	if err != nil {
		return nil, err
	}
	r := &serveRig{sv: sv, ts: httptest.NewServer(sv)}
	for i := 0; i < sessions; i++ {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return r, nil
}

// do sends one request and returns the status and body.
func (r *serveRig) do(client int, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, r.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := r.clients[client].Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// setup opens the service over a fresh data directory behind a
// loopback listener: the point at which the service can take its first
// request. Creating the sessions is the clients' first request, part of
// the measured phase.
func (b *serveBench) setup(e *env) (*serveRig, string, time.Duration, error) {
	dir, err := e.freshDir("serve")
	if err != nil {
		return nil, "", 0, err
	}
	t0 := time.Now()
	r, err := startRig(dir, len(b.sessions))
	if err != nil {
		return nil, "", 0, err
	}
	return r, dir, time.Since(t0), nil
}

func (b *serveBench) setupOnly(e *env) (time.Duration, error) {
	r, dir, d, err := b.setup(e)
	if err != nil {
		return 0, err
	}
	r.kill()
	return d, os.RemoveAll(dir)
}

// create creates session i.
func (b *serveBench) create(e *env, r *serveRig, i int, log *sessionLog) error {
	s := b.sessions[i]
	js, err := json.Marshal(s.spec)
	if err != nil {
		return err
	}
	sp := e.rec.Begin("service.create", 0, uint64(i+1))
	code, body, err := r.do(i, http.MethodPost, "/v1/sessions", js)
	e.rec.End(sp)
	log.attempts++
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("serve: create %s: HTTP %d: %s", s.spec.Name, code, body)
	}
	if err != nil {
		log.failed++
	}
	return err
}

// sessionLog is what one session's client saw in one phase.
type sessionLog struct {
	latMS    []float64
	failed   int
	attempts int
	result   []byte
}

// upload sends segments [from, to) of session i back to back, one
// request at a time on the session's connection.
func (b *serveBench) upload(e *env, r *serveRig, i, from, to int, log *sessionLog) error {
	s := b.sessions[i]
	for seg := from; seg < to; seg++ {
		path := "/v1/sessions/" + s.spec.Name + "/segments/" + strconv.Itoa(seg)
		sp := e.rec.Begin("service.upload", 0, uint64(i+1))
		t0 := time.Now()
		code, body, err := r.do(i, http.MethodPut, path, s.bodies[seg])
		lat := time.Since(t0)
		e.rec.End(sp)
		log.attempts++
		log.latMS = append(log.latMS, float64(lat)/float64(time.Millisecond))
		if err != nil {
			log.failed++
			return err
		}
		if code != http.StatusAccepted {
			log.failed++
			return fmt.Errorf("serve: upload %s seg %d: HTTP %d: %s", s.spec.Name, seg, code, body)
		}
		if (seg+1-from)%serveCheckEvery == 0 {
			if _, err := b.waitStatus(e, r, i, "queue_depth <= window", func(st service.Status) bool {
				return st.QueueDepth <= serveWindow
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// waitStatus polls session i's status until cond holds and returns
// the status that satisfied it.
func (b *serveBench) waitStatus(e *env, r *serveRig, i int, what string, cond func(service.Status) bool) (service.Status, error) {
	name := b.sessions[i].spec.Name
	deadline := time.Now().Add(pollTimeout)
	for {
		sp := e.rec.Begin("service.status", 0, uint64(i+1))
		code, body, err := r.do(i, http.MethodGet, "/v1/sessions/"+name, nil)
		e.rec.End(sp)
		var st service.Status
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("serve: status %s: HTTP %d: %s", name, code, body)
		}
		if err == nil {
			err = json.Unmarshal(body, &st)
		}
		if err != nil || cond(st) {
			return st, err
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("serve: %s: %s never held", name, what)
		}
		time.Sleep(pollEvery)
	}
}

// eachSession runs fn for every session concurrently, one goroutine
// (and one connection) per session, and waits for all of them.
func (b *serveBench) eachSession(fn func(i int) error) []error {
	errs := make([]error, len(b.sessions))
	var wg sync.WaitGroup
	for i := range b.sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

func (b *serveBench) pass(e *env) (passResult, error) {
	rig, dir, setup, err := b.setup(e)
	if err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(dir)
	live := rig
	defer func() { live.kill() }()
	logs := make([]sessionLog, len(b.sessions))
	var resume, restart time.Duration
	var before, after map[string]float64
	p := passResult{Setup: setup}
	err = e.measured(&p, func() error {
		// Phase 1: create the sessions, upload to the kill point and
		// wait until it is durable.
		if err := errors.Join(b.eachSession(func(i int) error {
			if err := b.create(e, live, i, &logs[i]); err != nil {
				return err
			}
			if err := b.upload(e, live, i, 0, serveKillAt, &logs[i]); err != nil {
				return err
			}
			_, err := b.waitStatus(e, live, i, "durable_segs at the kill point", func(st service.Status) bool {
				return st.DurableSegs >= serveKillAt
			})
			return err
		})...); err != nil {
			return err
		}
		if e.rec != nil {
			before = scrapeMetrics(live)
		}
		// Phase 2: power loss, then a timed resume-by-replay.
		t0 := time.Now()
		sp := e.rec.Begin("service.Kill", 0, 0)
		live.kill()
		e.rec.End(sp)
		sp = e.rec.Begin("service.Open", 0, 0)
		t1 := time.Now()
		rig2, err := startRig(dir, len(b.sessions))
		resume = time.Since(t1)
		e.rec.End(sp)
		restart = time.Since(t0)
		if err != nil {
			return err
		}
		live = rig2
		// Phase 3: re-upload from the durable cursor and finalize.
		return errors.Join(b.eachSession(func(i int) error {
			name := b.sessions[i].spec.Name
			st, err := b.waitStatus(e, live, i, "status", func(service.Status) bool { return true })
			if err != nil {
				return err
			}
			d := st.DurableSegs
			if d != serveKillAt {
				return fmt.Errorf("serve: %s resumed at %d durable segments, want %d", name, d, serveKillAt)
			}
			if err := b.upload(e, live, i, int(d), serveSegs, &logs[i]); err != nil {
				return err
			}
			sp := e.rec.Begin("service.finalize", 0, uint64(i+1))
			code, body, err := live.do(i, http.MethodPost, "/v1/sessions/"+name+"/finalize", nil)
			e.rec.End(sp)
			logs[i].attempts++
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("serve: finalize %s: HTTP %d: %s", name, code, body)
			}
			if err != nil {
				logs[i].failed++
				return err
			}
			logs[i].result = body
			return nil
		})...)
	})
	if live != rig && e.rec != nil {
		after = scrapeMetrics(live)
	}
	p.Excluded = restart
	for i := range logs {
		p.Attempted += logs[i].attempts
		p.Failed += logs[i].failed
		p.Latencies = append(p.Latencies, logs[i].latMS...)
	}
	if err != nil {
		return p, err
	}
	p.Detail = map[string]float64{"resume_s": resume.Seconds()}
	// Output checks: the finalized result, and a replay of the durable
	// log, must both equal the batch simulation of the same trace. The
	// log replay costs half a pass, so it runs on the first pass and on
	// traced passes (which time its decode).
	checkLog := !b.logChecked || e.rec != nil
	b.logChecked = true
	var all []byte
	var decode time.Duration
	var logBytes int64
	for i, s := range b.sessions {
		p.SimOps += s.ops
		all = append(all, logs[i].result...)
		p.Attempted++
		if rerr := checkSession(s, logs[i].result); rerr != nil {
			p.Failed++
			err = errors.Join(err, rerr)
		}
		if !checkLog {
			continue
		}
		p.Attempted++
		got, n, d, rerr := replayLog(e, filepath.Join(dir, "sessions", s.spec.Name, "trace.spb2"), s, i)
		decode += d
		logBytes += n
		if rerr == nil {
			rerr = checkSession(s, got)
		}
		if rerr != nil {
			p.Failed++
			err = errors.Join(err, fmt.Errorf("serve: replaying the durable log: %w", rerr))
		}
	}
	p.Digest = sha256Hex(all)
	if err != nil || e.rec == nil {
		return p, err
	}
	counter := func(name string) float64 { return before[name] + after[name] }
	p.Layer = map[string]float64{
		"trace.encode_mb_per_s":    b.encodeMBps,
		"trace.decode_mb_per_s":    float64(logBytes) / 1e6 / decode.Seconds(),
		"trace.bytes_per_op":       b.bytesPerOp,
		"service.checkpoints":      counter("checkpoints_total"),
		"service.checkpoint_bytes": counter("checkpoint_bytes_total"),
		"service.queue_full":       counter("segments_rejected_queue_full_total"),
		"service.ops_streamed":     counter("ops_streamed_total"),
	}
	var counts simCounts
	for i, s := range b.sessions {
		if err := stepLog(e, filepath.Join(dir, "sessions", s.spec.Name, "trace.spb2"), s, i, &counts, &p); err != nil {
			return p, err
		}
	}
	counts.fill(p.Layer)
	return p, nil
}

// stepLog replays a session's durable log through stepEngine, then
// through the calls finalize makes (Engine.CrashDrain and
// recovery.AuditImage), for the engine's times and the simulated and
// recovery counts. The result must equal the session's and the drained
// image must audit clean.
func stepLog(e *env, path string, s *serveSession, session int, c *simCounts, p *passResult) error {
	src, err := trace.OpenFile(path)
	if err != nil {
		return err
	}
	defer src.Close()
	group := uint64(session + 1)
	root := e.rec.Begin("cell", 0, group)
	defer e.rec.End(root)
	eng, res, step, err := stepEngine(e.rec, root.ID(), group, s.cfg, s.prof, src, "trace.NextBatch", nil)
	if err == nil {
		err = src.Err()
	}
	if err != nil {
		return err
	}
	p.Attempted++
	if err := checkSession(s, service.EncodeResult(res)); err != nil {
		p.Failed++
		return fmt.Errorf("serve: stepping the durable log: %w", err)
	}
	if eng.Kernelized() {
		c.kernelized++
	}
	c.add(eng, res)
	c.ops += s.ops
	c.step += step

	sp := e.rec.Begin("engine.CrashDrain", root.ID(), group)
	drained, err := eng.CrashDrain()
	e.rec.End(sp)
	if err != nil {
		return err
	}
	sp = e.rec.Begin("recovery.AuditImage", root.ID(), group)
	audit, err := recovery.AuditImage(eng.Controller())
	e.rec.End(sp)
	if err != nil {
		return err
	}
	p.Attempted++
	if !audit.Clean() {
		p.Failed++
		return fmt.Errorf("serve: %s: drained image: %v", s.spec.Name, audit)
	}
	p.Layer["recovery.entries_drained"] += float64(drained)
	p.Layer["recovery.blocks_checked"] += float64(audit.Blocks)
	return nil
}

// checkSession checks a session's result bytes against the batch
// simulation of the same trace.
func checkSession(s *serveSession, got []byte) error {
	if !bytes.Equal(got, s.expect) {
		return fmt.Errorf("serve: %s result differs from engine.RunBenchmark:\n got %s\nwant %s", s.spec.Name, got, s.expect)
	}
	return nil
}

// timedSource forwards a batched trace source, summing the time spent
// decoding in NextBatch.
type timedSource struct {
	src *trace.FileBatchSource
	d   time.Duration
}

func (t *timedSource) NextBatch(b *trace.Batch) bool {
	t0 := time.Now()
	ok := t.src.NextBatch(b)
	t.d += time.Since(t0)
	return ok
}

func (t *timedSource) Next() (trace.Op, bool) { return t.src.Next() }
func (t *timedSource) Err() error             { return t.src.Err() }

// replayLog decodes a session's durable log with trace.OpenFile and
// replays it through engine.RunRecorded, returning the encoded result,
// the log size and the time spent decoding.
func replayLog(e *env, path string, s *serveSession, group int) ([]byte, int64, time.Duration, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, 0, err
	}
	src, err := trace.OpenFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer src.Close()
	ts := &timedSource{src: src}
	sp := e.rec.Begin("engine.RunRecorded", 0, uint64(group+1))
	res, err := engine.RunRecorded(s.cfg, s.prof, ts)
	e.rec.End(sp)
	if err != nil {
		return nil, fi.Size(), ts.d, err
	}
	return service.EncodeResult(res), fi.Size(), ts.d, nil
}

// scrapeMetrics reads the service's /metrics counters, keyed without
// the secpb_ prefix. A failed scrape yields no counters.
func scrapeMetrics(r *serveRig) map[string]float64 {
	out := map[string]float64{}
	code, body, err := r.do(0, http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "secpb_")] = v
		}
	}
	return out
}
