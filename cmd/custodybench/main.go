// Command custodybench regenerates the paper's tables and figures
// (Figures 7–10 of the evaluation) and the ablation studies listed in
// DESIGN.md.
//
// Examples:
//
//	custodybench -fig all            # the full §VI evaluation grid
//	custodybench -fig 7 -quick       # fast, shrunken workload
//	custodybench -fig approx         # ablation A1 (2-approx vs optimal)
//
// It is also the entry point of the benchmark-regression harness
// (internal/benchreg):
//
//	custodybench -emit-json BENCH_PR8.json                       # bless a baseline
//	custodybench -emit-json /tmp/b.json -baseline BENCH_PR8.json  # gate
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/benchreg"
	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		fig      = flag.String("fig", "all", "what to reproduce: 7 | 8 | 9 | 10 | all | approx | intra | scarlett | offer | wait | spec | managers | schedulers | failures | selectors | hetero | hints | chaos | cache")
		quick    = flag.Bool("quick", false, "shrink the workload (6 jobs/app) for fast runs")
		seed     = flag.Uint64("seed", 1, "random seed")
		repeats  = flag.Int("repeats", 1, "pool results over this many seeds (figures 7-10 only)")
		bars     = flag.Bool("bars", false, "render figures as ASCII bar charts")
		mdOut    = flag.String("md", "", "also write a Markdown report of the figure sweep to this file")
		emitJSON = flag.String("emit-json", "", "run the benchmark-regression harness and write BENCH_*.json to this path (skips -fig)")
		baseline = flag.String("baseline", "", "with -emit-json: compare the fresh run against this committed baseline and exit nonzero on >15% regression")
		pprofDir = flag.String("pprof", "", "with -emit-json: write per-case CPU and heap profiles (<case>.cpu.pprof, <case>.heap.pprof) into this directory")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, *fig, *repeats, *emitJSON, *baseline, *pprofDir); err != nil {
		log.Printf("custodybench: %v (run 'custodybench -h' for usage)", err)
		os.Exit(2)
	}

	if *emitJSON != "" {
		runBenchHarness(*emitJSON, *baseline, *pprofDir, *seed)
		return
	}

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.Quick = *quick
	opts.Repeats = *repeats

	needSweep := map[string]bool{"7": true, "8": true, "9": true, "10": true, "all": true}
	if needSweep[*fig] {
		sw, err := experiments.RunSweep(experiments.PaperSizes, workload.Kinds(),
			[]experiments.ManagerKind{experiments.Standalone, experiments.Custody}, opts)
		if err != nil {
			fail(err)
		}
		if *mdOut != "" {
			f, ferr := os.Create(*mdOut)
			if ferr != nil {
				fail(ferr)
			}
			werr := experiments.WriteMarkdownReport(f, sw)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fail(werr)
			}
			fmt.Printf("markdown report written to %s\n", *mdOut)
		}
		render := func(t experiments.Table) string {
			if *bars {
				return t.RenderBars()
			}
			return t.Render()
		}
		switch *fig {
		case "7":
			fmt.Println(render(sw.Fig7()))
		case "8":
			fmt.Println(render(sw.Fig8()))
		case "9":
			fmt.Println(render(sw.Fig9()))
		case "10":
			fmt.Println(render(sw.Fig10()))
		default:
			fmt.Println(render(sw.Fig7()))
			fmt.Println(render(sw.Fig8()))
			fmt.Println(render(sw.Fig9()))
			fmt.Println(render(sw.Fig10()))
			fmt.Printf("headline: avg locality gain %.2f%% (paper: +36.9%%), avg JCT gain %.2f%% (paper: −4.9%% JCT)\n",
				sw.Fig7().AverageGain(), sw.Fig8().AverageGain())
		}
		return
	}

	switch *fig {
	case "approx":
		n := 200
		if *quick {
			n = 40
		}
		fmt.Println(experiments.RunApprox(n, *seed).Render())
	case "intra":
		res, err := experiments.RunIntra(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "scarlett":
		res, err := experiments.RunScarlett(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "offer":
		res, err := experiments.RunOffer(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "wait":
		res, err := experiments.RunWait(opts, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "spec":
		res, err := experiments.RunSpeculation(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "managers":
		res, err := experiments.RunManagers(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "schedulers":
		res, err := experiments.RunSchedulers(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "failures":
		res, err := experiments.RunFailures(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "selectors":
		res, err := experiments.RunSelectors(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "hetero":
		res, err := experiments.RunHetero(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "hints":
		res, err := experiments.RunHints(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "chaos":
		res, err := experiments.RunChaos(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "cache":
		res, err := experiments.RunCache(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	case "tournament":
		res, err := experiments.RunTournament(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	default:
		fail(fmt.Errorf("unknown -fig %q", *fig))
	}
}

// benchTolerance is the regression gate's band: a case failing its baseline
// by more than this fraction (in normalized time or allocs/op) fails CI.
const benchTolerance = 0.15

// runBenchHarness runs the internal/benchreg cases, writes the JSON report,
// and optionally enforces the regression gate against a committed baseline.
// A non-empty profDir additionally captures per-case pprof profiles.
func runBenchHarness(outPath, basePath, profDir string, seed uint64) {
	rep, err := benchreg.RunProfiled(seed, profDir)
	if err != nil {
		fail(err)
	}
	if err := benchreg.WriteFile(outPath, rep); err != nil {
		fail(err)
	}
	fmt.Printf("benchmark report written to %s (speedup_1000=%.1fx)\n", outPath, rep.Speedup1000)
	if profDir != "" {
		fmt.Printf("pprof profiles written to %s/ (one .cpu.pprof and .heap.pprof per case)\n", profDir)
	}
	for _, c := range rep.Cases {
		fmt.Printf("  %-24s %12.0f ns/op  %8d allocs/op  %9d peak-heap-B  (norm %.3f)\n",
			c.Name, c.NsPerOp, c.AllocsPerOp, c.PeakLiveHeapBytes, c.NsNorm)
	}
	if basePath == "" {
		return
	}
	base, err := benchreg.ReadFile(basePath)
	if err != nil {
		fail(err)
	}
	violations := benchreg.Compare(rep, base, benchTolerance)
	if len(violations) == 0 {
		fmt.Printf("regression gate: PASS against %s (tolerance %.0f%%)\n", basePath, benchTolerance*100)
		return
	}
	for _, v := range violations {
		log.Printf("custodybench: regression: %s", v)
	}
	os.Exit(1)
}

func fail(err error) {
	log.Printf("custodybench: %v", err)
	os.Exit(1)
}
