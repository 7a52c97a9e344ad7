// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for a fixed time and prints, as the last line of standard
// output, one JSON object: whether every output check passed, how many
// operations were attempted and failed, and the metrics — the end-to-end
// ones from untraced passes (--trace 0), or the per-layer ones from a
// traced pass (--trace 1). See README.md for the workloads and metrics.
// From the repository root:
//
//	bash perfbench/run.sh --workload table3 --seed 1 --seconds 55 --trace 0
//	bash perfbench/run.sh --smoke
//	bash perfbench/run.sh --check runs/table3 --base parent/table3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type opts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// smoke shrinks the inputs and waives the sample-count rules.
	smoke bool
}

// workloads maps each workload name to its runner. A table3 pass takes
// 45-65 s and a hetero-mem pass 20-35 s on 2 CPUs.
var workloads = map[string]func(opts) (*result, error){
	"table3": func(o opts) (*result, error) {
		return runSim(&simWorkload{streams: 200, jobs: 50, stream: table3Stream}, o)
	},
	"hetero-mem": func(o opts) (*result, error) {
		return runSim(&simWorkload{streams: 240, jobs: 15, stream: heteroMemStream}, o)
	},
	"daemon": runDaemon,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: table3, hetero-mem or daemon")
		seed    = flag.Uint64("seed", 1, "workload seed: the inputs are a function of it")
		seconds = flag.Float64("seconds", 55, "how long to measure")
		traced  = flag.Int("trace", 0, "1 = print the per-layer metrics of a traced pass")
		smoke   = flag.Bool("smoke", false, "run every workload briefly and check its outputs")
		check   = flag.String("check", "", "directory of saved run outputs: print each metric's spread against its bound")
		base    = flag.String("base", "", "with --check: directory of the parent commit's run outputs to compare medians with")
		client  = flag.String("client", "", "internal: act as the daemon workload's load generator against this URL, reading the send plan from standard input")
	)
	flag.Parse()
	if *client != "" {
		os.Exit(runClient(*client))
	}
	if *smoke {
		os.Exit(runSmoke(*seed))
	}
	if *check != "" {
		os.Exit(runCheck(*check, *base))
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1}
	printEnv(*name, o)
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.trace {
		res.fillLayers()
	}
	if !res.emit() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runSmoke runs every workload for a short time, traced and untraced, and
// reports whether each passed its output checks.
func runSmoke(seed uint64) int {
	code := 0
	for _, n := range workloadNames() {
		for _, tr := range []bool{false, true} {
			res, err := workloads[n](opts{seed: seed, seconds: 2 * time.Second, trace: tr, smoke: true})
			if err == nil && tr {
				res.fillLayers()
			}
			switch {
			case err != nil:
				fmt.Printf("smoke %-10s trace=%v: error: %v\n", n, tr, err)
				code = 1
			case !res.correct:
				fmt.Printf("smoke %-10s trace=%v: FAILED %s\n", n, tr, strings.Join(res.problems, "; "))
				code = 1
			default:
				fmt.Printf("smoke %-10s trace=%v: ok, %d metrics, %d attempted\n", n, tr, len(res.metrics), res.attempted)
			}
		}
	}
	return code
}

// result collects one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	order     []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{correct: true, metrics: make(map[string]metric)} }

func (r *result) metric(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail marks the run as failing its output check.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// check prints one add-up check of the traced pass; a failing one fails
// the run.
func (r *result) check(name string, ok bool, format string, args ...any) {
	verdict := "holds"
	if !ok {
		verdict = "FAILS"
		r.fail("add-up check %s: "+format, append([]any{name}, args...)...)
	}
	fmt.Printf("# check %s: "+format+" -> %s\n", append(append([]any{name}, args...), verdict)...)
}

// perLayer lists every per-layer metric with its unit. Each workload
// measures the layers it runs; the rest read 0 there (see README.md).
var perLayer = []struct{ name, unit string }{
	{"resched_p95_ms", "ms"}, {"admit_p99_ms", "ms"},
	{"cp.nodes", "count"}, {"cp.us_per_node", "us"}, {"cp.solve_ms", "ms"},
	{"cp.solve_p50_ms", "ms"}, {"cp.solve_p95_ms", "ms"}, {"cp.limit_hit_frac", "fraction"},
	{"cp.first_ms_p50", "ms"}, {"cp.first_objective_sum", "count"}, {"cp.objective_sum", "count"},
	{"cp.workers_mean", "count"},
	{"core.call_ms", "ms"}, {"core.resched_ms", "ms"}, {"core.self_ms", "ms"},
	{"core.rounds", "count"}, {"core.fallback_frac", "fraction"}, {"core.slips", "count"},
	{"core.model_tasks_p50", "tasks"}, {"core.model_tasks_p95", "tasks"},
	{"sim.self_ms", "ms"},
	{"service.submit_p50_ms", "ms"}, {"service.submit_p99_ms", "ms"}, {"service.shed", "count"},
	{"service.resched_ms", "ms"}, {"service.solve_ms", "ms"},
	{"shard.route_p50_ms", "ms"}, {"shard.route_p99_ms", "ms"}, {"shard.self_ms", "ms"},
	{"wal.append_p50_ms", "ms"}, {"wal.append_p99_ms", "ms"},
	{"http.handler_p50_ms", "ms"}, {"http.handler_p99_ms", "ms"}, {"http.self_ms", "ms"},
	{"client.wait_p99_ms", "ms"}, {"client.gen_lag_p99_ms", "ms"},
	{"trace_overhead_frac", "fraction"},
}

// fillLayers reports 0 for the layers this workload does not run.
func (r *result) fillLayers() {
	var na []string
	for _, l := range perLayer {
		if _, ok := r.metrics[l.name]; !ok {
			r.metric(l.name, 0, l.unit)
			na = append(na, l.name)
		}
	}
	if len(na) > 0 {
		r.note("not run by this workload (reported as 0): %s", strings.Join(na, " "))
	}
}

// emit prints the human-readable metric lines and the final JSON result,
// and reports whether the run passed. A run that failed its checks
// produces no numbers.
func (r *result) emit() bool {
	for _, p := range r.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
	out := map[string]metric{}
	if r.correct {
		for _, n := range r.order {
			m := r.metrics[n]
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				r.fail("metric %s is %v", n, m.Value)
				fmt.Printf("# FAILED: metric %s is %v\n", n, m.Value)
				out = map[string]metric{}
				break
			}
			fmt.Printf("# %-26s %14.6g %s\n", n, m.Value, m.Unit)
			out[n] = m
		}
	}
	if !r.correct {
		r.failed = r.attempted
	}
	if r.attempted < 1 {
		r.attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, out})
	fmt.Println(string(line))
	return r.correct
}

// printEnv stamps the result with what it was measured on.
func printEnv(workload string, o opts) {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	if commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
			dirty = "false"
			if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
				dirty = "true"
			}
		}
	}
	env, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": o.seed, "seconds": o.seconds.Seconds(), "trace": o.trace,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"commit": commit, "dirty": dirty,
	})
	fmt.Printf("# env %s\n", env)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// combineFP folds per-stream fingerprints into one value for the log.
func combineFP(fps []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range fps {
		h ^= f
		h *= 1099511628211
	}
	return h
}
