package secpb

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"secpb/internal/config"
	"secpb/internal/crashsim"
	"secpb/internal/harness"
	"secpb/internal/recovery"
)

// Byte-identity pins: sha256 digests of five artifacts at fixed small
// sizes — the Table IV + Figure 6 render, the multicore battery grid
// at 1, 2 and 4 cores, a two-scheme crash matrix, the 2-core crash
// cells and the degraded-mode heal grid. They hold every change to the
// step path, the caches, the crypto, the BMT and the crash and heal
// drivers to the exact bytes the simulator produced before it. A deliberate model
// change (one that also bumps engine.ResultsVersion) updates them.
const (
	goldenTable4Fig6 = "fdc5f3e7bdfd35cd6c547712bf31d5c07c0eece08dd6fc8002b8570c818499f0" // Table IV + Figure 6 render, -ops 4000
	goldenMulticore  = "7d48ef78c3a70d720023ecca541a4f98a2bf1add07375f64383eb1445e5f5e74" // multicore grid, -ops 1500 -cores 1,2,4
	goldenCrash      = "f1b561690a3cd6d8c6cbcb3d7bbf28478865f45f0c825df0ceabad7c16f4d51a" // crash matrix, nogap+cobcm, gcc, 1200 ops, 30 points, seed 42
	goldenSystem     = "8f7d4ce04f47cb0f5b5018ca26bf4d5c59ae707f37c8c4d4ddbee60bd2ba8621" // 2-core crash cells, cm+obcm+cobcm, gcc, 300 ops/core, exhaustive, seed 0x5EC9
	goldenHeal       = "a2682d24f1d3a97038ac924480d29071249e5d800585dbea22e86fe0b9f49b39" // heal grid, all schemes, gcc, 1500 ops, fault rate 0.05, budget 3, seed 42
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
