// Command secpb-heal exercises degraded-mode recovery over a scheme ×
// workload grid: each cell runs a seeded workload on faulty NVM media
// (transient write failures, torn writes, latent bit rot), crashes,
// drains the battery-backed late work through budget-bounded recovery
// boots, lets the resting image decay, and triages every persisted
// block — clean, recoverable, or quarantined. The differential check
// requires every surviving block byte-identical to the committed memory
// model and every rotted block quarantined.
//
// Usage:
//
//	secpb-heal -schemes all -bench gcc -ops 4000 -faultrate 0.05
//	secpb-heal -writefail 0.1 -torn 0.1 -rot 0.02 -budget 4
//	secpb-heal -out heal-matrix.json
//
// -faultrate is shorthand that sets all three fault classes at once;
// the individual flags override it. The exit status is nonzero if any
// cell breaks the degraded-mode contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"secpb/internal/config"
	"secpb/internal/recovery"
)

func main() {
	var (
		schemesStr = flag.String("schemes", "all", "comma-separated schemes, or 'all' for the six SecPB schemes")
		benchStr   = flag.String("bench", "gcc", "comma-separated benchmark profiles")
		ops        = flag.Uint64("ops", 4000, "trace length per grid cell")
		seed       = flag.Uint64("seed", 0x5ec9b, "base seed (each cell derives its own)")
		faultRate  = flag.Float64("faultrate", 0, "set write-fail, torn and rot rates at once")
		writeFail  = flag.Float64("writefail", -1, "transient write-fail rate (overrides -faultrate)")
		torn       = flag.Float64("torn", -1, "torn-write rate (overrides -faultrate)")
		rot        = flag.Float64("rot", -1, "latent bit-rot rate (overrides -faultrate)")
		budget     = flag.Float64("budget", 0, "battery reserve per recovery boot, in entries (0 = wall power)")
		workers    = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		out        = flag.String("out", "", "write the JSON heal-matrix artifact to this file")
	)
	flag.Parse()

	var schemes []config.Scheme
	if *schemesStr != "all" {
		for _, name := range strings.Split(*schemesStr, ",") {
			s, err := config.SchemeByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "secpb-heal: %v\n", err)
				os.Exit(2)
			}
			schemes = append(schemes, s)
		}
	}
	rate := func(specific float64) float64 {
		if specific >= 0 {
			return specific
		}
		return *faultRate
	}

	opts := recovery.HealOptions{
		Schemes:       schemes,
		Workloads:     splitNonEmpty(*benchStr),
		Ops:           *ops,
		Seed:          *seed,
		Workers:       *workers,
		WriteFailRate: rate(*writeFail),
		TornRate:      rate(*torn),
		RotRate:       rate(*rot),
		BudgetEntries: *budget,
	}
	m, err := recovery.ExploreHeal(context.Background(), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secpb-heal: %v\n", err)
		os.Exit(1)
	}

	if err := m.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "secpb-heal: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-heal: %v\n", err)
			os.Exit(1)
		}
		if err := m.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "secpb-heal: writing artifact: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "secpb-heal: %v\n", err)
			os.Exit(1)
		}
	}
	if !m.Healthy() {
		fmt.Fprintln(os.Stderr, "secpb-heal: FAILED — degraded-mode recovery broke its contract")
		os.Exit(1)
	}
	fmt.Println("heal matrix healthy")
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
