// Command perf is the repository's wall-clock benchmark: seven
// workloads built from the evaluation programs in internal/apps, every
// run verified against the sequential reference, end-to-end metrics from
// timed runs and per-layer metrics from a separate traced run. It
// claims no gain; it is the yardstick later changes are judged against.
// See README.md beside this file.
//
//	bash perf/run.sh                                   every workload, timed runs
//	bash perf/run.sh -trace 1                          every workload, traced run
//	bash perf/run.sh -workload sor.mux -seed 7         one workload
//	bash perf/run.sh -trace both -out perf/out/a.json  a full ledger point
//	bash perf/run.sh -compare a.json b.json            judge b against a (files or directories of them)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// outDir is where a traced run leaves spans.json and the Chrome traces,
// relative to the root of the checkout run.sh runs from.
var outDir = filepath.Join("perf", "out")

// loopbackNote is printed and recorded with every result: the socket
// transports' numbers are not network numbers.
const loopbackNote = "all socket traffic (mux, tcp) crosses host loopback, not a real link; 8 nodes (16 on sim) run as goroutines on fewer cores, so no scaling-vs-procs number is reported"

// environment is what a result can only be compared under.
type environment struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	Note       string  `json:"note"`
}

// workloadReport is one workload's part of a report file.
type workloadReport struct {
	tally
	// FailShare is failed ÷ attempted over every run made: warm-up,
	// timed and traced.
	FailShare float64            `json:"fail_share"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]summary `json:"per_layer,omitempty"`
}

// report is the file -out writes and -compare reads.
type report struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// driverLine is the result object printed last on standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all, in an order the seed picks)")
	seed := fs.Int64("seed", 1, "seed for workload order, replay order and generated payloads")
	seconds := fs.Float64("seconds", 10, "how long the timed runs of one workload measure")
	trace := fs.String("trace", "0", "0: timed runs, end-to-end metrics; 1: traced run, per-layer metrics; both")
	outFile := fs.String("out", "", "write the full report (medians, quartiles, sample counts, environment) to this file")
	quick := fs.Bool("quick", false, "tiny sizes, for the tests; numbers mean nothing")
	compare := fs.Bool("compare", false, "compare two reports, or two directories of reports: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perf: -compare needs two report files or directories")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	timed := *trace == "0" || *trace == "both"
	traced := *trace == "1" || *trace == "both"
	if !timed && !traced {
		fmt.Fprintf(os.Stderr, "perf: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}

	// Numbers compare only at equal GOMAXPROCS, so it is pinned and
	// recorded.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	rep := &report{
		Env: environment{
			Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			Kernel: kernelRelease(), Commit: "unknown", Seed: *seed, Seconds: *seconds, Quick: *quick,
			Note: loopbackNote,
		},
		Workloads: make(map[string]*workloadReport),
	}
	if *outFile != "" {
		// Only a ledger point needs the commit; the driver's checkout
		// is not a git repository and the benchmark starts nothing there.
		rep.Env.Commit = commitHash()
	}
	fmt.Printf("# munin perf: %s GOMAXPROCS=%d nproc=%d seed=%d\n# %s\n",
		rep.Env.Go, rep.Env.GOMAXPROCS, rep.Env.NProc, *seed, loopbackNote)

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 2
		}
		selected = []workload{*w}
	} else {
		selected = append([]workload(nil), workloads...)
		rand.New(rand.NewSource(*seed)).Shuffle(len(selected), func(i, j int) {
			selected[i], selected[j] = selected[j], selected[i]
		})
	}

	var tr *tracer
	if traced {
		tr = newTracer()
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fail(err)
		}
	}
	for i := range selected {
		w := &selected[i]
		wr := &workloadReport{}
		rep.Workloads[w.name] = wr
		if timed {
			r, err := w.measureEndToEnd(*quick, *seconds)
			if err != nil {
				return fail(err)
			}
			wr.add(r.tally)
			wr.EndToEnd = r.metrics
		}
		if traced {
			r, err := w.measureLayers(*quick, *seconds, *seed, tr, outDir)
			if err != nil {
				return fail(err)
			}
			wr.add(r.tally)
			wr.PerLayer = r.metrics
		}
		wr.print(w.name)
	}
	if tr != nil {
		if err := tr.write(filepath.Join(outDir, "spans.json")); err != nil {
			return fail(err)
		}
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.MkdirAll(filepath.Dir(*outFile), 0o755)
		}
		if err == nil {
			err = os.WriteFile(*outFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}

	// The last line is the machine-readable result: for one workload the
	// object the driver reads, for several one such object per workload.
	lines := make(map[string]driverLine, len(selected))
	for _, w := range selected {
		lines[w.name] = rep.Workloads[w.name].driverLine(timed, traced)
	}
	var last any = lines
	if len(selected) == 1 {
		last = lines[selected[0].name]
	}
	data, err := json.Marshal(last)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(data))
	return 0
}

func (wr *workloadReport) add(t tally) {
	wr.Attempted += t.Attempted
	wr.Failed += t.Failed
	wr.Errors = append(wr.Errors, t.Errors...)
	wr.FailShare = float64(wr.Failed) / float64(wr.Attempted)
}

// print lists every metric by name with its unit.
func (wr *workloadReport) print(workload string) {
	fmt.Printf("%-15s %-36s %14d of %d runs\n", workload, "failed", wr.Failed, wr.Attempted)
	for _, e := range wr.Errors {
		fmt.Printf("%-15s   error: %s\n", workload, e)
	}
	for _, group := range []map[string]summary{wr.EndToEnd, wr.PerLayer} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := group[n]
			fmt.Printf("%-15s %-36s %14.6g %-9s n=%d [%.6g %.6g %.6g %.6g %.6g]\n",
				workload, n, s.Value, s.Unit, s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
	}
}

// driverLine shapes the report for the driver: every declared metric of
// the mode that ran, by name; a per-layer metric that does not apply to
// the workload reads 0. The output counts as correct when every run
// matched the sequential reference and every declared end-to-end metric
// was measured.
func (wr *workloadReport) driverLine(timed, traced bool) driverLine {
	d := driverLine{Attempted: wr.Attempted, Failed: wr.Failed, Metrics: make(map[string]driverValue)}
	d.Correct = wr.Failed == 0 && wr.Attempted > 0
	if timed {
		for _, def := range endToEnd {
			s, ok := wr.EndToEnd[def.name]
			d.Correct = d.Correct && ok
			d.Metrics[def.name] = driverValue{s.Value, def.unit}
		}
	}
	if traced {
		for _, def := range perLayer {
			d.Metrics[def.name] = driverValue{wr.PerLayer[def.name].Value, def.unit}
		}
	}
	return d
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// commitHash names the commit measured, when run inside a git checkout.
func commitHash() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
