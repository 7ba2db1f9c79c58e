package secpb

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"secpb/internal/config"
	"secpb/internal/crashsim"
	"secpb/internal/harness"
	"secpb/internal/recovery"
	"secpb/internal/service"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Byte-identity pins: sha256 digests of five artifacts at fixed small
// sizes — the Table IV + Figure 6 render, the multicore battery grid
// at 1, 2 and 4 cores, a two-scheme crash matrix, the 2-core crash
// cells and the degraded-mode heal grid — plus the service's durable
// files (checkpoint manifests and result.json). They hold every change
// to the step path, the caches, the crypto, the BMT, the crash and heal
// drivers and the record layer to the exact bytes the simulator
// produced before it. A deliberate model change (one that also bumps
// engine.ResultsVersion) updates them.
const (
	goldenTable4Fig6 = "fdc5f3e7bdfd35cd6c547712bf31d5c07c0eece08dd6fc8002b8570c818499f0" // Table IV + Figure 6 render, -ops 4000
	goldenMulticore  = "7d48ef78c3a70d720023ecca541a4f98a2bf1add07375f64383eb1445e5f5e74" // multicore grid, -ops 1500 -cores 1,2,4
	goldenCrash      = "f1b561690a3cd6d8c6cbcb3d7bbf28478865f45f0c825df0ceabad7c16f4d51a" // crash matrix, nogap+cobcm, gcc, 1200 ops, 30 points, seed 42
	goldenSystem     = "8f7d4ce04f47cb0f5b5018ca26bf4d5c59ae707f37c8c4d4ddbee60bd2ba8621" // 2-core crash cells, cm+obcm+cobcm, gcc, 300 ops/core, exhaustive, seed 0x5EC9
	goldenHeal       = "a2682d24f1d3a97038ac924480d29071249e5d800585dbea22e86fe0b9f49b39" // heal grid, all schemes, gcc, 1500 ops, fault rate 0.05, budget 3, seed 42

	// Service durable bytes: cobcm, gcc, seed 7, 1500 ops in 256-op segments, CkptEvery 2.
	goldenServiceCkpt      = "4276a27ef95ba1157ef1c8dbabd661b0ecfd551a52b99485367b13fcdcfbe49b" // ckpt.spbk after a graceful close
	goldenServiceFinalCkpt = "d16d6d839677adfed3d6fc79b581f1520106c08b71d18978b287e3df5cf62a9a" // ckpt.spbk after restart + finalize
	goldenServiceResult    = "8a4b888a97de2e42d5e8a6aa311f5c304958997408b231ad5df27da217e4bd1a" // result.json after restart + finalize
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func checkGolden(t *testing.T, name, want string, artifact []byte) {
	t.Helper()
	if got := digest(artifact); got != want {
		t.Errorf("%s artifact changed: sha256 %s, pinned %s\n%s", name, got, want, artifact)
	}
}

func TestGoldenTable4Fig6(t *testing.T) {
	o := harness.DefaultOptions()
	o.Ops = 4000
	_, tab, err := harness.Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	_, bars, err := harness.Figure6(o)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4+fig6", goldenTable4Fig6, []byte(fmt.Sprintln(tab)+fmt.Sprintln(bars)))
}

func TestGoldenMulticore(t *testing.T) {
	o := harness.DefaultOptions()
	o.Ops = 1500
	_, tab, err := harness.MulticoreBattery(o, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "multicore", goldenMulticore, []byte(fmt.Sprintln(tab)))
}

func TestGoldenCrashMatrix(t *testing.T) {
	m, err := crashsim.Explore(context.Background(), crashsim.Options{
		Schemes:   []config.Scheme{config.SchemeNoGap, config.SchemeCOBCM},
		Workloads: []string{"gcc"},
		Ops:       1200,
		Seed:      42,
		Points:    30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Clean() {
		t.Fatal("crash matrix not clean")
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "crash matrix", goldenCrash, buf.Bytes())
}

func TestGoldenSystemCrashCells(t *testing.T) {
	var cells []crashsim.SystemCellResult
	for _, scheme := range []config.Scheme{config.SchemeCM, config.SchemeOBCM, config.SchemeCOBCM} {
		cell, err := crashsim.RunSystemCell(scheme, "gcc", 2, crashsim.Options{Ops: 300, Seed: 0x5EC9})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell)
	}
	out, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "2-core crash cells", goldenSystem, out)
}

func TestGoldenHealGrid(t *testing.T) {
	m, err := recovery.ExploreHeal(context.Background(), recovery.HealOptions{
		Workloads:     []string{"gcc"},
		Ops:           1500,
		Seed:          42,
		WriteFailRate: 0.05,
		TornRate:      0.05,
		RotRate:       0.05,
		BudgetEntries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "heal grid", goldenHeal, buf.Bytes())
}

// serviceSegments encodes a spec's op stream as SPB2 and splits it into
// one-segment upload bodies (header + sealed frame each).
func serviceSegments(t *testing.T, spec service.Spec, ops uint64, segOps int) [][]byte {
	t.Helper()
	cfg, prof, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, cfg.Seed, ops)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := trace.NewSegWriter(&buf, segOps)
	for op, ok := gen.Next(); ok; op, ok = gen.Next() {
		if err := sw.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	if _, err := trace.ScanSegments(bytes.NewReader(buf.Bytes()), func(_ int, frame []byte) error {
		bodies = append(bodies, append(trace.SPB2Header(), frame...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return bodies
}

func serveDo(t *testing.T, sv *service.Server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	sv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func checkGoldenFile(t *testing.T, name, want, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(raw); got != want {
		t.Errorf("%s changed: sha256 %s, pinned %s\n%q", name, got, want, raw)
	}
}

// TestGoldenServiceCheckpoint pins the service's durable bytes: the
// sealed manifest a graceful close leaves, then the finalized manifest
// and result artifact after a restart and finalize.
func TestGoldenServiceCheckpoint(t *testing.T) {
	spec := service.Spec{Name: "golden", Scheme: "cobcm", Bench: "gcc", Seed: 7}
	bodies := serviceSegments(t, spec, 1500, 256)
	dataDir := t.TempDir()
	sessDir := filepath.Join(dataDir, "sessions", spec.Name)

	sv, err := service.Open(service.Options{DataDir: dataDir, CkptEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sv.CreateSession(spec); err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies {
		for {
			rec := serveDo(t, sv, "PUT", fmt.Sprintf("/v1/sessions/%s/segments/%d", spec.Name, i), body)
			if rec.Code == http.StatusAccepted || rec.Code == http.StatusOK {
				break
			}
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("upload seg %d: %d %s", i, rec.Code, rec.Body)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoldenFile(t, "service checkpoint", goldenServiceCkpt, filepath.Join(sessDir, "ckpt.spbk"))

	sv, err = service.Open(service.Options{DataDir: dataDir, CkptEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec := serveDo(t, sv, "POST", "/v1/sessions/"+spec.Name+"/finalize", nil); rec.Code != http.StatusOK {
		t.Fatalf("finalize: %d %s", rec.Code, rec.Body)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoldenFile(t, "finalized service checkpoint", goldenServiceFinalCkpt, filepath.Join(sessDir, "ckpt.spbk"))
	checkGoldenFile(t, "service result", goldenServiceResult, filepath.Join(sessDir, "result.json"))
}
