package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/cp"
	"mrcprm/internal/obs"
	"mrcprm/internal/service"
	"mrcprm/internal/shard"
	"mrcprm/internal/sim"
	"mrcprm/internal/slo"
	"mrcprm/internal/stats"
	"mrcprm/internal/wal"
	"mrcprm/internal/workload"
)

// The daemon workload is the stack `mrcpd -shards 2` serves, run
// in-process: the shard router and its HTTP handler on a loopback
// listener, wall mode with a speed-up, a journal fsynced on every record,
// admission on, a bounded intake, and mrcpd's shipped solver defaults
// (core.DefaultConfig: 200 ms limit, one portfolio worker per CPU).
//
// The offered load is 135 submissions a second, so a pass holds several
// thousand (a p99 needs a thousand, with ten beyond it). It is fixed and
// below the shed point, so what is measured is the program, not which
// jobs a full intake happens to refuse. The simulated cluster, two shards
// of three machines, runs at speed-up 1200, about half its reduce
// capacity: solves stay short, the step loops keep up, and the intake
// drains within a second of closing.
const (
	daemonMachines   = 6
	daemonShards     = 2
	daemonSpeedup    = 1200
	daemonRate       = 135.0 // submissions per wall second
	daemonMaxPending = 200
	// daemonSetups is how many times a run builds the stack; setup_s is
	// their median and the last one serves the load.
	daemonSetups = 21
)

// tightShare of the submissions ask for the tightest SLA admission lets
// through, a deadline at the job's own minimum execution time; they are
// late whenever another job holds the slots they need. The rest get
// Table 3's default d_UL of 5 and are rarely late. Without the tight share
// a pass has a handful of late jobs whose count swings with every seed;
// with it the late count measures the contention the scheduler leaves.
const tightShare = 0.5

// daemonJobs draws the submissions from the Table 3 generator at a small
// job shape (≤5 maps, ≤3 reduces, emax 10 s) sized for one shard's slice,
// with every earliest start at arrival: Table 3's far-future starts would
// keep the intake's drain waiting for simulated hours.
func daemonJobs(seed uint64, n int) ([]json.RawMessage, error) {
	wcfg := workload.DefaultSynthetic()
	wcfg.NumResources = daemonMachines / daemonShards
	wcfg.NumMapHi = 5
	wcfg.NumReduceHi = 3
	wcfg.EmaxSec = 10
	wcfg.P = 0
	jl, err := wcfg.Generate(n, stats.NewStream(seed, 0xdae3))
	if err != nil {
		return nil, err
	}
	tight := stats.NewStream(seed, 0x7167)
	mapSlots := wcfg.MapSlotsPerResource * int64(wcfg.NumResources)
	redSlots := wcfg.ReduceSlotsPerResource * int64(wcfg.NumResources)
	out := make([]json.RawMessage, n)
	for i, j := range jl {
		if tight.Float64() < tightShare {
			j.Deadline = j.EarliestStart + j.MinExecTime(mapSlots, redSlots)
		}
		spec := workload.SpecOf(j)
		// The wall-mode daemon restamps arrivals at receipt and shifts the
		// SLA window with them.
		spec.EarliestStartMS -= spec.ArrivalMS
		spec.DeadlineMS -= spec.ArrivalMS
		spec.ArrivalMS = 0
		if out[i], err = json.Marshal(spec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sendPlan is the open-loop schedule, computed before the first send:
// Poisson due instants at the fixed rate, each with its request body.
// Generating it is part of a run's set-up; the client process reads it
// as JSON on its standard input.
type sendPlan struct {
	Due    []time.Duration
	Bodies []json.RawMessage
}

func plan(seed uint64, d time.Duration) (*sendPlan, error) {
	rng := stats.NewStream(seed, 0x9a7e)
	p := &sendPlan{}
	for t := 0.0; ; {
		t += rng.ExpFloat64() / daemonRate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			break
		}
		p.Due = append(p.Due, at)
	}
	var err error
	p.Bodies, err = daemonJobs(seed, len(p.Due))
	return p, err
}

// stack is one in-process daemon.
type stack struct {
	dir     string
	router  *shard.Router
	tel     *obs.Telemetry
	jsonl   *obs.JSONLWriter // the router's stream, in memory (traced only)
	handler *timedHandler    // nil when untraced
	srv     *http.Server
	served  chan struct{}
	url     string
}

func build(tmp string, traced bool) (*stack, error) {
	dir, err := os.MkdirTemp(tmp, "daemon-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	// Untraced, the router gets mrcpd's default registry-only handle;
	// traced, a JSONL sink in memory.
	st.tel = obs.New(obs.DiscardSink{})
	if traced {
		st.jsonl = obs.NewJSONLWriter(&bytes.Buffer{})
		st.tel = obs.New(st.jsonl)
	}
	base := service.Config{
		Cluster:     sim.Cluster{NumResources: daemonMachines, MapSlots: 2, ReduceSlots: 2},
		Policy:      "mrcp",
		Manager:     core.DefaultConfig(),
		Mode:        service.Wall,
		Speedup:     daemonSpeedup,
		Admission:   true,
		Telemetry:   st.tel,
		JournalPath: filepath.Join(dir, "mrcpd.wal"),
		JournalSync: "always",
		// mrcpd splits a global bound evenly across shards, rounding up.
		MaxPending: (daemonMaxPending + daemonShards - 1) / daemonShards,
		SLO:        slo.Config{MissBudget: 0.1, WindowMS: time.Minute.Milliseconds()},
	}
	st.router, err = shard.New(shard.Config{Base: base, Shards: daemonShards, Seed: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var h http.Handler = shard.NewHandler(st.router)
	if traced {
		st.handler = &timedHandler{next: h, byReq: make(map[int]float64)}
		h = st.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.router.Stop()
		os.RemoveAll(dir)
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	if err := st.router.Start(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close stops the listener and the engines and removes the journal
// directory; it returns once the server goroutine and the engines' loops
// have exited.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx)
	<-st.served
	st.router.Stop()
	_ = st.router.Wait() // ErrServiceStopped after an abort, nil after a drain
	os.RemoveAll(st.dir)
}

// timedHandler times every submission inside the served handler, keyed by
// the request's sequence number.
type timedHandler struct {
	next  http.Handler
	mu    sync.Mutex
	byReq map[int]float64 // request seq -> handler ms
	all   []float64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := ms(time.Since(start))
	if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.all = append(h.all, d)
	if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil {
		h.byReq[seq] = d
	}
}

const seqHeader = "X-Perfbench-Seq"

// outcome is one planned submission's fate.
type outcome struct {
	Latency float64 `json:"ms"`     // from the due instant to the response
	Lag     float64 `json:"lag"`    // ms the generator handed the request off after its due instant
	Status  int     `json:"status"` // HTTP status; 0 on a transport error
	ID      int64   `json:"id"`
}

// admitted reports whether the daemon answered the submission: accepted
// (202) or refused as infeasible (422), both correct answers.
func (oc outcome) admitted() bool {
	return oc.Status == http.StatusAccepted || oc.Status == http.StatusUnprocessableEntity
}

// runClient is the load generator's own process, so that its timing does
// not queue behind the daemon's goroutines: it reads the send plan from
// standard input, drives it against url and prints the outcomes as JSON.
func runClient(url string) int {
	var p sendPlan
	if err := json.NewDecoder(os.Stdin).Decode(&p); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench client:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(drive(url, &p)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench client:", err)
		return 1
	}
	return 0
}

// drive sends the plan open loop from one process over at most nproc
// connections. Each request is timed from its due instant, so a stall
// that delays later sends counts against them.
func drive(url string, p *sendPlan) []outcome {
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
			DisableCompression: true},
	}
	defer client.CloseIdleConnections()
	out := make([]outcome, len(p.Due))
	work := make(chan int, len(p.Due)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i].Status, out[i].ID = post(client, url, i, p.Bodies[i])
				out[i].Latency = ms(time.Since(start) - p.Due[i])
			}
		}()
	}
	for i, due := range p.Due {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].Lag = ms(time.Since(start) - due)
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

func post(client *http.Client, url string, seq int, body []byte) (int, int64) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, 0
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var ack struct {
		ID int64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, 0
	}
	return resp.StatusCode, ack.ID
}

// pass is one build-load-drain-verify cycle.
type pass struct {
	setup                            []float64 // s, every set-up of the run
	outcomes                         []outcome
	accepted, rejected, shed, failed int
	late                             int
	turnMS                           []float64
	prom                             *obs.PromScrape
	st                               *stack
	windows                          []scrape // /metrics readings during the load
	// walP50 and walP99 time direct journal appends (traced only).
	walP50, walP99 float64
}

func runPass(seed uint64, d time.Duration, traced bool) (*pass, error) {
	tmp := os.TempDir()
	ps := &pass{}
	var st *stack
	var p *sendPlan
	setups := daemonSetups
	if traced {
		setups = 1
	}
	// A set-up generates the inputs and builds the stack.
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		pl, err := plan(seed, d)
		if err != nil {
			return nil, err
		}
		s, err := build(tmp, traced)
		if err != nil {
			return nil, err
		}
		ps.setup = append(ps.setup, time.Since(t0).Seconds())
		if i < setups-1 {
			s.close()
			continue
		}
		st, p = s, pl
	}
	defer st.close()
	ps.st = st

	// The client runs as a child process of this binary. While it drives
	// the load, /metrics is scraped every five seconds, as an operator
	// would, for a windowed O.
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	planJSON, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--client", st.url)
	cmd.Stdin = bytes.NewReader(planJSON)
	cmd.Stderr = os.Stderr
	stop := make(chan struct{})
	scraped := make(chan []scrape, 1)
	go func() { scraped <- scrapeEvery(st.url, 5*time.Second, stop) }()
	out, err := cmd.Output() // waits for the client to exit
	close(stop)
	ps.windows = <-scraped
	if err != nil {
		return nil, fmt.Errorf("load client: %w", err)
	}
	if err := json.Unmarshal(out, &ps.outcomes); err != nil {
		return nil, fmt.Errorf("load client output: %w", err)
	}
	for _, oc := range ps.outcomes {
		switch oc.Status {
		case http.StatusAccepted:
			ps.accepted++
		case http.StatusUnprocessableEntity:
			ps.rejected++
		case http.StatusTooManyRequests:
			ps.shed++
		default:
			ps.failed++
		}
	}
	st.router.CloseIntake()
	select {
	case <-st.router.Done():
	case <-time.After(60 * time.Second):
		return nil, errors.New("the daemon did not drain within 60 s of the intake closing")
	}
	if err := st.router.Wait(); err != nil {
		return nil, fmt.Errorf("daemon run: %w", err)
	}

	// Every accepted id resolves, to a finished job.
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for _, oc := range ps.outcomes {
		if oc.Status != http.StatusAccepted {
			continue
		}
		var js service.JobStatus
		if code, err := getJSON(client, fmt.Sprintf("%s/v1/jobs/%d", st.url, oc.ID), &js); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("accepted job %d does not resolve (status %d, %v)", oc.ID, code, err)
		}
		switch js.State {
		case service.StateCompleted:
			ps.turnMS = append(ps.turnMS, float64(js.CompletionMS-js.EarliestStartMS))
			if js.Late {
				ps.late++
			}
		case service.StateAbandoned:
			ps.late++
		default:
			return nil, fmt.Errorf("accepted job %d is %s after the drain", oc.ID, js.State)
		}
	}
	resp, err := client.Get(st.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ps.prom, err = obs.ParsePrometheus(resp.Body); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if traced {
		rec, err := meanSubmitRecord(st.dir, daemonShards)
		if err != nil {
			return nil, err
		}
		if ps.walP50, ps.walP99, err = walAppends(st.dir, rec); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

func getJSON(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

// meanSubmitRecord reads the drained daemon's journal segments back and
// returns the mean payload size of a record.
func meanSubmitRecord(dir string, shards int) (int, error) {
	var n, bytes int
	for i := 0; i < shards; i++ {
		j, recs, err := wal.Open(shard.SegmentPath(filepath.Join(dir, "mrcpd.wal"), i), wal.Options{Sync: wal.SyncNever})
		if err != nil {
			return 0, err
		}
		for _, r := range recs {
			n++
			bytes += len(r)
		}
		if err := j.Close(); err != nil {
			return 0, err
		}
	}
	if n == 0 {
		return 0, errors.New("the daemon journaled nothing")
	}
	return bytes / n, nil
}

// scrape is one reading of /metrics: cumulative reschedule wall ms and
// completed jobs.
type scrape struct{ reschedMS, completed float64 }

// scrapeEvery reads /metrics every period until stop closes.
func scrapeEvery(url string, period time.Duration, stop <-chan struct{}) []scrape {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	t := time.NewTicker(period)
	defer t.Stop()
	var out []scrape
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
		}
		resp, err := client.Get(url + "/metrics")
		if err != nil {
			continue // a missed reading only merges two windows
		}
		s, err := obs.ParsePrometheus(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		if h, ok := s.Hists["mrcp_"+obs.HistWallReschedule]; ok {
			out = append(out, scrape{h.Sum, s.Values["mrcp_jobs_completed_total"]})
		}
	}
}

// windowedO is the median over scrape windows of reschedule wall ms per
// job completed in the window. On the daemon, the reschedules that run
// long are not solver work (no solve reaches the time limit, and the solve
// p95 is about 1 ms) but step loops preempted on CPUs they share with the
// front end, the client and the other shard, so the whole-pass ratio
// follows the host: ten seeds spread it by 0.28. The median over windows
// keeps the per-job cost and drops those stalls.
func windowedO(ws []scrape) float64 {
	var per []float64
	for i := 1; i < len(ws); i++ {
		if dc := ws[i].completed - ws[i-1].completed; dc > 0 {
			per = append(per, (ws[i].reschedMS-ws[i-1].reschedMS)/dc)
		}
	}
	return median(per)
}

// promHist returns a scraped histogram as a snapshot.
func promHist(s *obs.PromScrape, name string) (obs.HistSnapshot, error) {
	ph, ok := s.Hists["mrcp_"+name]
	if !ok {
		return obs.HistSnapshot{}, fmt.Errorf("/metrics has no %s histogram", name)
	}
	return ph.Snapshot(name)
}

func runDaemon(o opts) (*result, error) {
	res := newResult()
	// The load stops short of --seconds to leave time for the drain and
	// the checks; traced, an untraced and a traced pass share the time.
	d := o.seconds - 4*time.Second
	if o.trace {
		d /= 2
	}
	if d <= 0 {
		d = o.seconds / 2
	}
	ps, err := runPass(o.seed, d, false)
	if err != nil {
		return nil, err
	}
	// Four mean gaps between sends: the generator fell several sends
	// behind its plan for more than 1% of them.
	maxLag := 4 * 1000 / daemonRate
	ps.check(res, maxLag)
	admit := latencies(ps.outcomes)
	res.note("admit quantiles ms: p50 %.2f p90 %.2f p95 %.2f p98 %.2f p99 %.2f max %.2f",
		percentile(admit, 0.5), percentile(admit, 0.9), percentile(admit, 0.95),
		percentile(admit, 0.98), percentile(admit, 0.99), percentile(admit, 1))
	if n := len(ps.outcomes); !o.smoke && !o.trace && n < minSamplesFor(0.99) {
		return nil, fmt.Errorf("%d submissions in %v; a p99 needs %d", n, d, minSamplesFor(0.99))
	}
	res.note("submissions=%d accepted=%d rejected=%d shed=%d failed=%d late=%d", len(ps.outcomes),
		ps.accepted, ps.rejected, ps.shed, ps.failed, ps.late)
	resched, err := promHist(ps.prom, obs.HistWallReschedule)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		res.metric("setup_s", median(ps.setup), "s")
		res.metric("o_ms", windowedO(ps.windows), "ms/job")
		res.metric("resched_p50_ms", resched.Quantile(0.50), "ms")
		res.metric("late_jobs", float64(ps.late), "count")
		res.metric("turnaround_s", mean(ps.turnMS)/1000, "s")
		res.metric("admit_p50_ms", percentile(admit, 0.50), "ms")
		res.metric("admit_fail_frac", failFrac(ps.shed+ps.failed, len(ps.outcomes)), "fraction")
		res.note("O over the whole pass %.4g ms/job; tails (not steady enough between seeds to gate on): resched_p95 %.4g ms, admit_p99 %.4g ms",
			resched.Sum/ps.prom.Values["mrcp_jobs_completed_total"], resched.Quantile(0.95), percentile(admit, 0.99))
		return res, nil
	}
	res.metric("resched_p95_ms", resched.Quantile(0.95), "ms")
	res.metric("admit_p99_ms", percentile(admit, 0.99), "ms")

	tr, err := runPass(o.seed, d, true)
	if err != nil {
		return nil, err
	}
	tr.check(res, maxLag)
	if err := daemonLayers(res, tr, percentile(admit, 0.50)); err != nil {
		return nil, err
	}
	return res, nil
}

// check applies the daemon's output check to one pass. A pass whose
// generator ran late, with a p99 send lag above maxLag, is invalid.
func (ps *pass) check(res *result, maxLag float64) {
	var lag []float64
	for _, oc := range ps.outcomes {
		lag = append(lag, oc.Lag)
	}
	if p99 := percentile(lag, 0.99); p99 > maxLag {
		res.fail("invalid run: the generator ran late (send lag p99 %.1f ms > %.1f ms)", p99, maxLag)
	}
	res.attempted += len(ps.outcomes)
	res.failed += ps.shed + ps.failed
	// The client's counts against the server's own: every submission a
	// shard took is accepted or rejected, and a 429 means every shard that
	// was offered the job shed it (a shard's shed can also fall through to
	// another shard that accepts).
	submitted := int(ps.prom.Values["mrcp_jobs_submitted_total"])
	rejected := int(ps.prom.Values["mrcp_jobs_rejected_total"])
	shed := int(ps.prom.Values["mrcp_jobs_shed_total"])
	if submitted-rejected != ps.accepted || rejected != ps.rejected || shed < ps.shed {
		res.fail("client counts 202 %d, 422 %d, 429 %d disagree with the server's submitted %d, rejected %d, shed %d",
			ps.accepted, ps.rejected, ps.shed, submitted, rejected, shed)
	}
	if ps.failed > 0 {
		res.fail("%d submissions got a 5xx, another unexpected status or a transport error", ps.failed)
	}
}

// latencies returns each submission's admission latency, refused and
// failed ones as +Inf.
func latencies(ocs []outcome) []float64 {
	out := make([]float64, len(ocs))
	for i, oc := range ocs {
		out[i] = math.Inf(1)
		if oc.admitted() {
			out[i] = oc.Latency
		}
	}
	return out
}

// failFrac is the add-one (Laplace) estimate of the failure probability,
// (failures+1)/(attempted+2): it is never 0, so a bound relative to the
// parent's value stays meaningful when the parent failed nothing.
func failFrac(failures, attempted int) float64 {
	return float64(failures+1) / float64(attempted+2)
}

// daemonLayers prints the traced pass's per-layer split.
func daemonLayers(res *result, tr *pass, untracedP50 float64) error {
	st := tr.st
	if err := st.jsonl.Flush(); err != nil {
		return err
	}
	route := histsByName(st.tel)[obs.HistWallRoute]
	var merged = map[string]*obs.HistSnapshot{}
	var counters = map[string]int64{}
	for s := 0; s < st.router.Shards(); s++ {
		pd := st.router.Engine(s).PromData()
		for k, v := range pd.Counters {
			counters[k] += v
		}
		for _, h := range pd.Hists {
			h := h
			if m, ok := merged[h.Name]; ok {
				if err := m.Merge(h); err != nil {
					return err
				}
			} else {
				merged[h.Name] = &h
			}
		}
	}
	get := func(name string) *obs.HistSnapshot {
		if h, ok := merged[name]; ok {
			return h
		}
		return &obs.HistSnapshot{}
	}
	submit, solve, resched := get(obs.HistWallAdmission), get(obs.HistWallSolve), get(obs.HistWallReschedule)
	nodes := float64(counters["solver_nodes"])

	// cp and core: the engines keep solve events in private discard
	// registries, so only their counters and histograms are visible.
	res.metric("cp.nodes", nodes, "count")
	res.metric("cp.us_per_node", solve.Sum*1000/math.Max(nodes, 1), "us")
	res.metric("cp.solve_ms", solve.Sum, "ms")
	res.metric("cp.solve_p50_ms", solve.Quantile(0.50), "ms")
	res.metric("cp.solve_p95_ms", solve.Quantile(0.95), "ms")
	res.metric("cp.limit_hit_frac", fracAtLeast(solve, core.DefaultConfig().SolveTimeLimit), "fraction")
	// Solve events stay in the engines' private registries, so the width
	// is the solver's own default; models under 16 tasks solve on one.
	res.metric("cp.workers_mean", float64(cp.DefaultWorkers()), "count")
	rounds := float64(counters["manager_rounds"])
	var slips int
	for _, v := range st.router.Metrics().Shards {
		if v.Manager != nil {
			slips += v.Manager.Slips
		}
	}
	model := get(obs.HistSolveModelTasks)
	res.metric("core.resched_ms", resched.Sum, "ms")
	res.metric("core.self_ms", resched.Sum-solve.Sum, "ms")
	res.metric("core.rounds", rounds, "count")
	res.metric("core.fallback_frac", float64(counters["manager_fallbacks"])/math.Max(rounds, 1), "fraction")
	res.metric("core.slips", float64(slips), "count")
	res.metric("core.model_tasks_p50", model.Quantile(0.50), "tasks")
	res.metric("core.model_tasks_p95", model.Quantile(0.95), "tasks")
	res.metric("service.resched_ms", resched.Sum, "ms")
	res.metric("service.solve_ms", solve.Sum, "ms")
	res.metric("service.submit_p50_ms", submit.Quantile(0.50), "ms")
	res.metric("service.submit_p99_ms", submit.Quantile(0.99), "ms")
	res.metric("service.shed", float64(counters["jobs_shed_total"]), "count")
	res.metric("shard.route_p50_ms", route.Quantile(0.50), "ms")
	res.metric("shard.route_p99_ms", route.Quantile(0.99), "ms")
	res.metric("shard.self_ms", route.Sum-submit.Sum, "ms")

	h := st.handler
	h.mu.Lock()
	handler := append([]float64(nil), h.all...)
	var wait []float64
	for i, oc := range tr.outcomes {
		if d, ok := h.byReq[i]; ok && oc.admitted() {
			wait = append(wait, oc.Latency-d)
		}
	}
	h.mu.Unlock()
	var lag []float64
	for _, oc := range tr.outcomes {
		lag = append(lag, oc.Lag)
	}
	res.metric("http.handler_p50_ms", percentile(handler, 0.50), "ms")
	res.metric("http.handler_p99_ms", percentile(handler, 0.99), "ms")
	res.metric("http.self_ms", sum(handler)-route.Sum, "ms")
	res.metric("client.wait_p99_ms", percentile(wait, 0.99), "ms")
	res.metric("client.gen_lag_p99_ms", percentile(lag, 0.99), "ms")

	res.metric("wal.append_p50_ms", tr.walP50, "ms")
	res.metric("wal.append_p99_ms", tr.walP99, "ms")
	admit := latencies(tr.outcomes)
	res.metric("trace_overhead_frac", percentile(admit, 0.50)/untracedP50-1, "fraction")

	// Add-up checks: each layer's self time is its span minus its child's.
	res.check("http.self_ms >= 0 (handler covers route)", sum(handler)-route.Sum >= 0,
		"%.1f - %.1f", sum(handler), route.Sum)
	res.check("shard.self_ms >= 0 (route covers submit)", route.Sum-submit.Sum >= 0,
		"%.1f - %.1f", route.Sum, submit.Sum)
	res.check("service.solve_ms <= service.resched_ms", solve.Sum <= resched.Sum*1.0001,
		"%.1f <= %.1f", solve.Sum, resched.Sum)
	p99 := percentile(admit, 0.99)
	hp99 := percentile(handler, 0.99)
	where := "outside the handler (client wait, connection queueing, scheduling)"
	if hp99 >= p99/2 {
		where = "inside the handler (shard/service/wal time)"
	}
	res.note("admit p99 %.2f ms vs handler p99 %.2f ms, route p99 %.2f ms, submit p99 %.2f ms, wal append p99 %.2f ms: the tail falls %s",
		p99, hp99, route.Quantile(0.99), submit.Quantile(0.99), tr.walP99, where)
	res.note("samples: handler=%d route=%d submit=%d solves=%d", len(handler), route.Count, submit.Count, solve.Count)
	return nil
}

// fracAtLeast is the share of a histogram's samples in buckets whose lower
// edge is at or above limit: solves that ran into the time limit.
func fracAtLeast(h *obs.HistSnapshot, limit time.Duration) float64 {
	if h.Count == 0 {
		return 0
	}
	bounds := obs.HistBounds()
	lim := ms(limit)
	var n int64
	for i, c := range h.Buckets {
		if i > 0 && bounds[i-1] >= lim || i == len(bounds) {
			n += c
		}
	}
	return float64(n) / float64(h.Count)
}

// walAppends times direct appends with sync=always in the daemon's
// journal directory at the daemon's record size.
func walAppends(dir string, recBytes int) (p50, p99 float64, err error) {
	const n = 200
	j, _, err := wal.Open(filepath.Join(dir, "perfbench-probe.wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, 0, err
	}
	payload := bytes.Repeat([]byte{'x'}, recBytes)
	var d []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := j.Append(payload); err != nil {
			j.Close()
			return 0, 0, err
		}
		d = append(d, ms(time.Since(t0)))
	}
	if err := j.Close(); err != nil {
		return 0, 0, err
	}
	return percentile(d, 0.50), percentile(d, 0.99), nil
}
