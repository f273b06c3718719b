// Command perfbench is banditware's benchmark. It runs one workload in a
// single process, checks the program's outputs against computations of its
// own, and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which builds it
// first:
//
//	bash perfbench/run.sh --workload paper-inproc --seed 1 --seconds 15 --trace 0
//
// --repeat N runs the workload N times with seeds seed..seed+N-1 and prints
// each end-to-end metric's median, quartiles and spread against its bound;
// --registry-sweep prints the registry's create and load cost per stream at
// growing sizes.
// See README.md for the workloads, the checks and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64 // population size factor; tests and probes shrink it
	setups   int     // set-up repetitions
	restarts int     // restart repetitions
	spanDir  string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"paper-inproc":  runInproc,
	"http-mixed":    runHTTPMixed,
	"fleet-tenants": runFleet,
}

// repetitions is each workload's number of set-ups and restarts per run,
// whose medians are reported: fewer where one takes seconds.
var repetitions = map[string][2]int{"paper-inproc": {9, 5}, "http-mixed": {9, 5}, "fleet-tenants": {3, 3}}

// workloadOrder is the order workloads are listed and probed in.
var workloadOrder = []string{"paper-inproc", "http-mixed", "fleet-tenants"}

func main() {
	var cfg config
	var trace, repeat int
	var sweep bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.spanDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.IntVar(&repeat, "repeat", 0, "steadiness mode: run the workload this many times and print the spreads")
	flag.BoolVar(&sweep, "registry-sweep", false, "print per-stream create and load times at 512 to 8192 streams, then exit")
	flag.Parse()
	if sweep {
		os.Exit(registrySweep())
	}
	cfg.trace = trace == 1
	cfg.scale = 1
	r := repetitions[cfg.workload]
	cfg.setups, cfg.restarts = r[0], r[1]
	if workloads[cfg.workload] == nil || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; see -h")
		os.Exit(2)
	}
	if repeat > 0 {
		os.Exit(steadiness(cfg, repeat))
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(report(res, cfg.trace))
}

// run runs one workload; a traced run fills the per-layer metrics its
// workload does not exercise from tiny traced runs of the others.
func run(cfg config) (*result, error) {
	res, err := workloads[cfg.workload](cfg)
	if err != nil || !cfg.trace {
		return res, err
	}
	for _, w := range workloadOrder {
		if w == cfg.workload || !missingLayer(res) {
			continue
		}
		p := config{workload: w, seed: cfg.seed, seconds: 1, trace: true, scale: probeScale, setups: 1, restarts: 1, spanDir: cfg.spanDir}
		pr, err := workloads[w](p)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", w, err)
		}
		for _, d := range perLayer {
			if _, ok := res.layer[d.name]; !ok {
				if v, ok := pr.layer[d.name]; ok {
					res.layer[d.name] = v
					res.notes = append(res.notes, fmt.Sprintf("%s from a probe run of %s", d.name, w))
				}
			}
		}
		for _, c := range pr.checks {
			res.checks = append(res.checks, check{"probe." + w + "." + c.name, c.err})
		}
	}
	return res, nil
}

// probeScale sizes the probe runs.
const probeScale = 0.05

func missingLayer(res *result) bool {
	for _, d := range perLayer {
		if _, ok := res.layer[d.name]; !ok {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run's notes, checks and input digest, then the result
// line, and returns the exit code: non-zero when a check failed or a metric
// is missing.
func report(res *result, traced bool) int {
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	code := 0
	for _, c := range res.checks {
		if c.err != nil {
			fmt.Printf("# CHECK FAILED %s: %v\n", c.name, c.err)
			fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %v\n", c.name, c.err)
			code = 1
		}
	}
	defs, values := endToEnd, res.e2e
	if traced {
		defs, values = perLayer, res.layer
	}
	out := output{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			code = 1
			continue
		}
		out.Metrics[d.name] = metricValue{v, d.unit}
	}
	fmt.Printf("# workload %s, input digest %s\n", res.workload, res.digest)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// steadiness runs the workload n times with consecutive seeds and prints,
// per end-to-end metric, the median, the quartiles and the spread (the
// interquartile distance over the median) against a third of its bound.
func steadiness(cfg config, n int) int {
	vals := map[string][]float64{}
	code := 0
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + uint64(i)
		res, err := run(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if !res.correct() || res.failed != 0 {
			code = 1
		}
		fmt.Printf("# seed %d digest %s correct %t attempted %d failed %d\n", c.seed, res.digest, res.correct(), res.attempted, res.failed)
		for k, v := range res.e2e {
			vals[k] = append(vals[k], v)
		}
	}
	fmt.Printf("%-24s %14s %14s %14s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound/3")
	for _, d := range endToEnd {
		vs := vals[d.name]
		if len(vs) < 2 {
			continue
		}
		q1, med, q3 := pyQuartiles(vs)
		spread := (q3 - q1) / med
		flag := ""
		if d.name != "setup_s" && spread > d.bound/3 {
			flag = "  WIDE"
		}
		fmt.Printf("%-24s %14.6g %14.6g %14.6g %8.4f %8.4f%s\n", d.name, med, q1, q3, spread, d.bound/3, flag)
	}
	return code
}

// pyQuartiles returns the quartiles as Python's statistics.quantiles(vs,
// n=4) computes them (the "exclusive" method).
func pyQuartiles(vs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
