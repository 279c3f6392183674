// Command perfbench is CAFA's benchmark. One run sets up one workload
// from a seed, measures it for a number of seconds, checks every op's
// output, and prints its metrics as the last line of standard output:
//
//	go run . --workload suite --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run is the traced per-layer pass instead, and it
// also writes its spans as Chrome trace events under .bench_build/traces
// (or $CARGO_TARGET_DIR/traces).
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// buildDir is where run.py keeps the build, and where traced runs write
// their Chrome trace-event files: $CARGO_TARGET_DIR, or .bench_build in
// the working directory.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: suite or serve")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "seconds to measure for")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload != "suite" && *workload != "serve" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1, log: stderr}
	specs := endToEnd
	var traceFile *os.File
	if cfg.traced {
		specs = perLayer
		dir := filepath.Join(buildDir(), "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		var err error
		traceFile, err = os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", *workload, *seed)))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer traceFile.Close() // error paths only; the success path checks Close
		cfg.traceOut = traceFile
	}

	before := hostProbe()
	var o *outcome
	var err error
	if *workload == "suite" {
		o, err = runSuite(cfg)
	} else {
		o, err = runServe(cfg)
	}
	after := hostProbe()
	if err == nil && traceFile != nil {
		err = traceFile.Close()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	missing := 0
	for _, s := range specs {
		v, ok := o.metrics[s.name]
		if !ok && !cfg.traced {
			missing++
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	res.Correct = o.failed == 0 && o.attempted > 0 && missing == 0
	o.diag["error_rate"] = float64(o.failed) / float64(max(o.attempted, 1))
	before.record(o.diag, "before")
	after.record(o.diag, "after")
	o.diag["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.diag["go"] = runtime.Version()
	diag, _ := json.Marshal(map[string]any{"diagnostics": o.diag}) // plain values only
	fmt.Fprintln(stdout, string(diag))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed their output check\n", *workload, o.failed, o.attempted)
		return 1
	}
	return 0
}

// probeSink keeps the probe loops' results live.
var probeSink uint64

// probe is how long the host took for three fixed loops, best of three
// each.
type probe struct {
	// compute is an integer loop that stays in registers.
	compute time.Duration
	// memory is a pointer chase through a 32 MiB cycle that misses the
	// caches on every step.
	memory time.Duration
	// bandwidth copies and clears 64 MiB four times over.
	bandwidth time.Duration
}

// hostProbe is taken before and after each run and recorded with the
// diagnostics: a run on a host whose cores or memory system slowed down
// shows longer probes, which tells it apart from a regression.
func hostProbe() probe {
	var p probe
	next := probeCycle()
	p.compute = bestOf3(func() {
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		probeSink += x
	})
	p.memory = bestOf3(func() {
		at := uint32(0)
		for i := 0; i < 500_000; i++ {
			at = next[at]
		}
		probeSink += uint64(at)
	})
	dst, src := make([]byte, 64<<20), make([]byte, 64<<20)
	p.bandwidth = bestOf3(func() {
		for r := 0; r < 4; r++ {
			copy(dst, src)
			clear(src)
		}
		probeSink += uint64(dst[len(dst)/2])
	})
	return p
}

func (p probe) record(diag map[string]any, when string) {
	diag["host_compute_ms_"+when] = ms(p.compute)
	diag["host_memory_ms_"+when] = ms(p.memory)
	diag["host_bandwidth_ms_"+when] = ms(p.bandwidth)
}

// probeCycle returns a random single cycle through 8M slots (Sattolo's
// algorithm, fixed seed), so a walk along it has no pattern to prefetch.
func probeCycle() []uint32 {
	next := make([]uint32, 8<<20)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := newRand(0, 0)
	for i := len(next) - 1; i > 0; i-- {
		j := rng.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

func bestOf3(fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 3; r++ {
		start := time.Now()
		fn()
		best = min(best, time.Since(start))
	}
	return best
}
