// Command secpb-crash explores the crash matrix: it injects power
// failures at instrumented points of the persistence pipeline across a
// scheme × workload grid, runs each scheme's post-crash late work on
// the surviving state, and differentially verifies every recovered
// memory tuple against a golden replay of the committed-store prefix.
//
// With -service it instead runs the service-level kill matrix: each
// sampled kill point streams a trace prefix into a live streaming
// server, kills it mid-flight (torn log tails included), restarts it,
// and byte-diffs the resumed session against a golden committed-prefix
// replay and an uninterrupted batch run — plus a tampered-checkpoint
// negative control per cell that must be refused with a typed error.
//
// Usage:
//
//	secpb-crash -schemes all -bench gcc,povray -ops 6000 -points 300
//	secpb-crash -schemes cobcm -ops 300 -points 0          # exhaustive
//	secpb-crash -out crash-matrix.json
//	secpb-crash -service -schemes sp,cobcm -points 50 -out service-matrix.json
//
// The exit status is nonzero if any crash point fails verification.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"secpb/internal/config"
	"secpb/internal/crashsim"
)

func main() {
	var (
		schemesStr = flag.String("schemes", "all", "comma-separated schemes, or 'all' for the six SecPB schemes")
		benchStr   = flag.String("bench", "gcc", "comma-separated benchmark profiles")
		ops        = flag.Int("ops", 4000, "trace length per grid cell")
		seed       = flag.Uint64("seed", 0x5ec9b, "base seed (each cell derives its own)")
		points     = flag.Int("points", 200, "crash points sampled per cell (0 = exhaustive)")
		entries    = flag.Int("secpb", 0, "SecPB entries (0 = config default)")
		workers    = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		out        = flag.String("out", "", "write the JSON crash-matrix artifact to this file")
		svc        = flag.Bool("service", false, "run the service-level kill matrix instead of the in-process crash matrix")
		segOps     = flag.Int("segops", 128, "service mode: SPB2 ops per uploaded segment")
		ckptEvery  = flag.Int("ckptevery", 2, "service mode: checkpoint cadence in segments")
		queueCap   = flag.Int("queue", 4, "service mode: per-session ingest queue depth")
		dir        = flag.String("dir", "", "service mode: scratch directory (empty = temp)")
	)
	flag.Parse()

	var schemes []config.Scheme
	if *schemesStr != "all" {
		for _, name := range strings.Split(*schemesStr, ",") {
			s, err := config.SchemeByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "secpb-crash: %v\n", err)
				os.Exit(2)
			}
			schemes = append(schemes, s)
		}
	}

	if *svc {
		runService(crashsim.ServiceOptions{
			Schemes:   schemes,
			Workloads: splitNonEmpty(*benchStr),
			Ops:       *ops,
			SegOps:    *segOps,
			Seed:      *seed,
			Points:    *points,
			Workers:   *workers,
			CkptEvery: *ckptEvery,
			QueueCap:  *queueCap,
			Dir:       *dir,
		}, *out)
		return
	}

	opts := crashsim.Options{
		Schemes:   schemes,
		Workloads: splitNonEmpty(*benchStr),
		Ops:       *ops,
		Seed:      *seed,
		Points:    *points,
		Workers:   *workers,
		Entries:   *entries,
	}
	m, err := crashsim.Explore(context.Background(), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secpb-crash: %v\n", err)
		os.Exit(1)
	}

	if err := m.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "secpb-crash: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-crash: %v\n", err)
			os.Exit(1)
		}
		if err := m.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "secpb-crash: writing artifact: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "secpb-crash: %v\n", err)
			os.Exit(1)
		}
	}
	if !m.Clean() {
		fmt.Fprintln(os.Stderr, "secpb-crash: FAILED — recovered state diverged from the golden model")
		os.Exit(1)
	}
	fmt.Println("crash matrix clean")
}

// runService drives the service-level kill matrix and exits the
// process with the same artifact/exit-status discipline as the
// in-process matrix: render a table, optionally write JSON, nonzero
// exit unless every kill point verified and every tamper was refused.
func runService(opts crashsim.ServiceOptions, out string) {
	m, err := crashsim.ExploreService(context.Background(), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secpb-crash: %v\n", err)
		os.Exit(1)
	}
	if err := m.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "secpb-crash: %v\n", err)
		os.Exit(1)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-crash: %v\n", err)
			os.Exit(1)
		}
		if err := m.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "secpb-crash: writing artifact: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "secpb-crash: %v\n", err)
			os.Exit(1)
		}
	}
	if !m.Clean() {
		fmt.Fprintln(os.Stderr, "secpb-crash: FAILED — a killed session resumed divergent or a tampered checkpoint was accepted")
		os.Exit(1)
	}
	fmt.Println("service kill matrix clean")
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
