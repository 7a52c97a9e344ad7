package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/obs"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/trace"
	"mrcprm/internal/workload"
)

// simWorkload is an in-process open-stream simulation under MRCP-RM with
// core.DeterministicConfig (node budget, one worker, no time limit), so a
// given input replays to a bit-identical schedule and wall time measures
// only the work done.
type simWorkload struct {
	// streams independent job streams of jobs jobs each form one set; a
	// run replays its set as often as the time allows.
	streams, jobs int
	stream        func(seed uint64, k, jobs int) ([]*workload.Job, sim.Cluster, error)
}

// simConfig is core.DeterministicConfig with a 5 000-node budget. At the
// config's own 50 000 nodes one budget-exhausting solve costs 2-5 s, so a
// seed's figures hinge on how many of a handful of such solves it draws
// (three seeds of 600 table3 jobs gave O of 16, 33 and 83 ms/job). At
// 5 000 the same seconds sample ten times the jobs.
func simConfig() core.Config {
	cfg := core.DeterministicConfig()
	cfg.NodeLimit = 5_000
	return cfg
}

// simSetups is how many times a run builds its inputs; setup_s is the
// median.
const simSetups = 3

// table3Stream draws stream k of the paper's Table 3 synthetic workload (m=50, λ=0.01 jobs/s,
// 2+2 slots) at its tightest deadline level, d_UL=2: at the default d_UL=5
// one job in two hundred is late, too few for a late-job count that holds
// still between seeds. Combined matchmaking places tasks in core; cp does
// nearly all the work, with a tail of solves that use up the node budget.
func table3Stream(seed uint64, k, jobs int) ([]*workload.Job, sim.Cluster, error) {
	wcfg := workload.DefaultSynthetic()
	wcfg.DeadlineUL = 2
	jl, err := wcfg.Generate(jobs, stats.NewStream(seed, 0x7ab1e3+uint64(k)))
	cluster := sim.Cluster{NumResources: wcfg.NumResources,
		MapSlots: wcfg.MapSlotsPerResource, ReduceSlots: wcfg.ReduceSlotsPerResource}
	return jl, cluster, err
}

// heteroMemStream draws stream k of the small-job shape of the heterogeneity study (≤20
// maps, ≤10 reduces, emax 30 s, d_UL 2, λ 0.02) on a 20-machine two-class
// cluster (spread 4) whose per-machine memory capacity is below the demand
// of a full machine's slots, so memory binds. core upgrades to direct mode:
// the solver picks machines itself, with per-resource durations and two
// cumulative dimensions, and the combined matchmaker does nothing.
func heteroMemStream(seed uint64, k, jobs int) ([]*workload.Job, sim.Cluster, error) {
	const m = 20
	wcfg := workload.DefaultSynthetic()
	wcfg.NumResources = m
	wcfg.NumMapHi = 20
	wcfg.NumReduceHi = 10
	wcfg.EmaxSec = 30
	wcfg.DeadlineUL = 2
	wcfg.Lambda = 0.02
	wcfg.TaskMemLo, wcfg.TaskMemHi = heteroMemLo, heteroMemHi
	jl, err := wcfg.Generate(jobs, stats.NewStream(seed, 0x4e7e40+uint64(k)))
	if err != nil {
		return nil, sim.Cluster{}, err
	}
	spec := core.TwoClassSpec(m, wcfg.MapSlotsPerResource, wcfg.ReduceSlotsPerResource, 4)
	spec.MemCapacity = heteroMemCap
	cluster, err := spec.Cluster()
	return jl, cluster, err
}

// Memory shape of hetero-mem: four slots per machine at a mean demand of
// 8 units need 32 units, twice the capacity.
const (
	heteroMemCap = 16
	heteroMemLo  = 4
	heteroMemHi  = 12
)

// timedRM wraps the manager at the sim.ResourceManager interface: every
// callback's wall time is core's share of a run (the paper's O), and a
// call during which the reschedule observer fired is one reschedule
// sample.
type timedRM struct {
	rm      sim.ResourceManager
	callDur time.Duration
	fired   bool
	resched []float64 // ms, calls that rescheduled
	admit   []float64 // ms, arrival calls that placed the job at once
}

func newTimedRM(m *core.Manager) *timedRM {
	t := &timedRM{rm: m}
	m.SetRescheduleObserver(func(int64, string, bool) { t.fired = true })
	return t
}

func (t *timedRM) timed(arrival bool, f func() error) error {
	t.fired = false
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.callDur += d
	if t.fired {
		t.resched = append(t.resched, ms(d))
		if arrival {
			t.admit = append(t.admit, ms(d))
		}
	}
	return err
}

func (t *timedRM) Name() string { return t.rm.Name() }
func (t *timedRM) OnJobArrival(ctx sim.Context, j *workload.Job) error {
	return t.timed(true, func() error { return t.rm.OnJobArrival(ctx, j) })
}
func (t *timedRM) OnTaskComplete(ctx sim.Context, tk *workload.Task) error {
	return t.timed(false, func() error { return t.rm.OnTaskComplete(ctx, tk) })
}
func (t *timedRM) OnTimer(ctx sim.Context) error {
	return t.timed(false, func() error { return t.rm.OnTimer(ctx) })
}
func (t *timedRM) OnTaskFailed(ctx sim.Context, tk *workload.Task, res int) error {
	return t.timed(false, func() error { return t.rm.OnTaskFailed(ctx, tk, res) })
}
func (t *timedRM) OnResourceDown(ctx sim.Context, res int, killed, evacuated []*workload.Task) error {
	return t.timed(false, func() error { return t.rm.OnResourceDown(ctx, res, killed, evacuated) })
}
func (t *timedRM) OnResourceUp(ctx sim.Context, res int) error {
	return t.timed(false, func() error { return t.rm.OnResourceUp(ctx, res) })
}
func (t *timedRM) OnTaskSlowdown(ctx sim.Context, tk *workload.Task) error {
	return t.timed(false, func() error { return t.rm.OnTaskSlowdown(ctx, tk) })
}

// prepared is one stream ready to run.
type prepared struct {
	jobs    []*workload.Job
	cluster sim.Cluster
	mgr     *core.Manager
	rm      *timedRM
	rec     *trace.Recorder
	sim     *sim.Simulator
}

// prepare generates stream k of the set and builds its simulator.
func (w *simWorkload) prepare(seed uint64, k int, tel *obs.Telemetry) (*prepared, error) {
	jl, cluster, err := w.stream(seed, k, w.jobs)
	if err != nil {
		return nil, err
	}
	mgr := core.New(cluster, simConfig())
	mgr.SetTelemetry(tel)
	p := &prepared{jobs: jl, cluster: cluster, mgr: mgr, rm: newTimedRM(mgr), rec: trace.NewRecorder()}
	if p.sim, err = sim.New(cluster, p.rm, jl); err != nil {
		return nil, err
	}
	p.sim.SetObserver(p.rec)
	return p, nil
}

// setup builds every stream of the set, as a run's set-up, and returns how
// long that took. The builds are dropped: a pass builds each stream again
// just before playing it, so the heap holds one stream at a time and the
// garbage collector's share of O does not grow with the set.
func (w *simWorkload) setup(seed uint64) (time.Duration, error) {
	start := time.Now()
	for k := 0; k < w.streams; k++ {
		if _, err := w.prepare(seed, k, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// allStreams lists the indices of a set's n streams.
func allStreams(n int) []int {
	ks := make([]int, n)
	for k := range ks {
		ks[k] = k
	}
	return ks
}

// setResult is one pass over every stream of the set.
type setResult struct {
	runWall time.Duration
	callMS  []float64 // per stream: wall ms inside the manager's calls
	resched []float64
	admit   []float64
	jobs    int // arrived
	done    int // completed
	late    int // late + abandoned
	turnMS  float64
	fps     []uint64
	stats   []core.Stats
	audit   error
}

// runSet builds and plays the given streams of the set once each, in
// turn. Only the manager's calls and the simulator's run are timed.
func (w *simWorkload) runSet(seed uint64, ks []int, tel *obs.Telemetry) (*setResult, error) {
	r := &setResult{}
	for _, k := range ks {
		p, err := w.prepare(seed, k, tel)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		m, err := p.sim.Run()
		r.runWall += time.Since(start)
		if err != nil {
			return nil, err
		}
		r.callMS = append(r.callMS, ms(p.rm.callDur))
		r.resched = append(r.resched, p.rm.resched...)
		r.admit = append(r.admit, p.rm.admit...)
		r.jobs += m.JobsArrived
		r.done += m.JobsCompleted
		r.late += m.LateJobs + m.JobsAbandoned
		r.turnMS += m.T() * 1000 * float64(m.JobsCompleted)
		r.fps = append(r.fps, m.Fingerprint())
		r.stats = append(r.stats, p.mgr.Stats())
		if r.audit == nil {
			if m.JobsCompleted != len(p.jobs) || m.JobsArrived != len(p.jobs) {
				r.audit = fmt.Errorf("%d of %d jobs completed (%d arrived)", m.JobsCompleted, len(p.jobs), m.JobsArrived)
			} else {
				r.audit = auditSchedule(p.cluster, p.jobs, p.rec.Events())
			}
		}
	}
	return r, nil
}

// o is the paper's O for the pass: wall time inside the manager's calls,
// over all streams, per completed job. The solves that use up the node
// budget count in full.
func (r *setResult) o() float64 { return sum(r.callMS) / float64(r.done) }

// replaySample is how many streams every untraced run replays a second
// time to check that their fingerprints repeat, whatever the time budget.
const replaySample = 3

// costliest returns the indices of the n streams whose manager calls took
// longest: those hold the budget-exhausting solves, where a replay is most
// likely to differ if anything in the search is not deterministic.
func costliest(callMS []float64, n int) []int {
	ks := allStreams(len(callMS))
	sort.SliceStable(ks, func(a, b int) bool { return callMS[ks[a]] > callMS[ks[b]] })
	return ks[:min(n, len(ks))]
}

func runSim(w *simWorkload, o opts) (*result, error) {
	if o.smoke {
		w.streams = 2
	}
	res := newResult()
	budget := o.seconds
	if o.trace {
		// One untraced pass and one traced pass over half the streams
		// cost what one untraced run does.
		w.streams /= 2
		budget = 0
	}
	var setup []float64
	for i := 0; i < simSetups; i++ {
		d, err := w.setup(o.seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
	}
	// The set-up's garbage is collected before the first timed call.
	runtime.GC()
	started := time.Now()
	var sets []*setResult
	for {
		r, err := w.runSet(o.seed, allStreams(w.streams), nil)
		if err != nil {
			return nil, err
		}
		sets = append(sets, r)
		res.attempted += r.jobs
		res.failed += r.jobs - r.done
		if r.audit != nil {
			res.fail("output check: %v", r.audit)
		}
		if !slices.Equal(r.fps, sets[0].fps) {
			res.fail("fingerprints differ between passes over the same input")
		}
		el := time.Since(started)
		if el+el/time.Duration(len(sets)) > budget {
			break
		}
	}
	first := sets[0]
	res.note("passes=%d streams=%d jobs/stream=%d fingerprint=%016x resched=%d admit=%d",
		len(sets), w.streams, w.jobs, combineFP(first.fps), len(first.resched), len(first.admit))
	if !o.trace {
		// The traced pass below checks determinism on its own, against the
		// untraced pass; an untraced run replays a sample of its streams.
		ks := costliest(first.callMS, replaySample)
		rr, err := w.runSet(o.seed, ks, nil)
		if err != nil {
			return nil, err
		}
		res.attempted += rr.jobs
		res.failed += rr.jobs - rr.done
		if rr.audit != nil {
			res.fail("output check (replay): %v", rr.audit)
		}
		for i, k := range ks {
			if rr.fps[i] != first.fps[k] {
				res.fail("stream %d replayed to fingerprint %016x, first pass %016x", k, rr.fps[i], first.fps[k])
			}
		}
		res.note("replayed streams %v a second time", ks)
	}
	if !o.smoke && !o.trace {
		if n := len(first.resched); n < minSamplesFor(0.95) {
			return nil, fmt.Errorf("only %d reschedule samples; a p95 needs %d", n, minSamplesFor(0.95))
		}
		if n := len(first.admit); n < minSamplesFor(0.99) {
			return nil, fmt.Errorf("only %d admission samples; a p99 needs %d", n, minSamplesFor(0.99))
		}
	}
	var oMS, p50, p95, a50, a99, wall []float64
	for _, s := range sets {
		oMS = append(oMS, s.o())
		p50 = append(p50, percentile(s.resched, 0.50))
		p95 = append(p95, percentile(s.resched, 0.95))
		a50 = append(a50, percentile(s.admit, 0.50))
		a99 = append(a99, percentile(s.admit, 0.99))
		wall = append(wall, ms(s.runWall))
	}
	if !o.trace {
		res.metric("setup_s", median(setup), "s")
		res.metric("o_ms", median(oMS), "ms/job")
		res.metric("resched_p50_ms", median(p50), "ms")
		res.metric("late_jobs", float64(first.late), "count")
		res.metric("turnaround_s", first.turnMS/float64(first.done)/1000, "s")
		res.metric("admit_p50_ms", median(a50), "ms")
		res.metric("admit_fail_frac", failFrac(first.jobs-first.done, first.jobs), "fraction")
		res.note("tails (not steady enough between seeds to gate on): resched_p95 %.4g ms, admit_p99 %.4g ms",
			median(p95), median(a99))
		return res, nil
	}
	res.metric("resched_p95_ms", median(p95), "ms")
	res.metric("admit_p99_ms", median(a99), "ms")

	// Traced pass: telemetry with a JSONL sink in memory.
	var buf bytes.Buffer
	sink := obs.NewJSONLWriter(&buf)
	tel := obs.New(sink)
	runtime.GC()
	tr, err := w.runSet(o.seed, allStreams(w.streams), tel)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	res.attempted += tr.jobs
	res.failed += tr.jobs - tr.done
	if tr.audit != nil {
		res.fail("output check (traced pass): %v", tr.audit)
	}
	if !slices.Equal(tr.fps, first.fps) {
		res.fail("tracing changed the schedule")
	}
	solves, err := solveEvents(buf.Bytes())
	if err != nil {
		return nil, err
	}
	hist := histsByName(tel)
	layerCP(res, solves, hist)
	solveMS := hist[obs.HistWallSolve].Sum
	reschedMS := hist[obs.HistWallReschedule].Sum
	callMS := sum(tr.callMS)
	var rounds, fallbacks, slips int
	for _, st := range tr.stats {
		rounds += st.Rounds
		fallbacks += st.FallbackRounds
		slips += st.Slips
	}
	runMS := ms(tr.runWall)
	var modelTasks []float64
	for _, s := range solves {
		modelTasks = append(modelTasks, s.ModelTasks)
	}
	res.metric("core.call_ms", callMS, "ms")
	res.metric("core.resched_ms", reschedMS, "ms")
	res.metric("core.self_ms", reschedMS-solveMS, "ms")
	res.metric("core.rounds", float64(rounds), "count")
	res.metric("core.fallback_frac", float64(fallbacks)/float64(rounds), "fraction")
	res.metric("core.slips", float64(slips), "count")
	res.metric("core.model_tasks_p50", percentile(modelTasks, 0.50), "tasks")
	res.metric("core.model_tasks_p95", percentile(modelTasks, 0.95), "tasks")
	res.metric("sim.self_ms", runMS-callMS, "ms")
	res.metric("trace_overhead_frac", runMS/median(wall)-1, "fraction")

	// Add-up checks: a layer's self time is its span less its child's, so
	// none may be negative.
	res.check("core.self_ms + cp.solve_ms = core.resched_ms", reschedMS-solveMS >= 0,
		"%.1f + %.1f = %.1f", reschedMS-solveMS, solveMS, reschedMS)
	res.check("core.resched_ms <= core.call_ms", reschedMS <= callMS,
		"%.1f <= %.1f", reschedMS, callMS)
	res.check("sim.self_ms + core.call_ms = run wall", runMS-callMS >= 0,
		"%.1f + %.1f = %.1f", runMS-callMS, callMS, runMS)
	res.note("sim.self is %.2f%% of run wall; core.self is %.2f%% of reschedule time",
		100*(runMS-callMS)/runMS, 100*(reschedMS-solveMS)/reschedMS)
	return res, nil
}

// solveEvent is the part of one JSONL "solve" event the benchmark reads.
type solveEvent struct {
	Layer          string  `json:"layer"`
	Kind           string  `json:"kind"`
	Nodes          float64 `json:"nodes"`
	Objective      float64 `json:"objective"`
	FirstObjective float64 `json:"first_objective"`
	NodeLimitHit   bool    `json:"node_limit_hit"`
	TimeLimitHit   bool    `json:"time_limit_hit"`
	Workers        float64 `json:"workers"`
	ModelTasks     float64 `json:"model_tasks"`
	SolveMS        float64 `json:"wall_solve"`
	FirstMS        float64 `json:"wall_first_solution"`
}

func solveEvents(jsonl []byte) ([]solveEvent, error) {
	var out []solveEvent
	for _, line := range bytes.Split(jsonl, []byte{'\n'}) {
		if len(line) == 0 || !bytes.Contains(line, []byte(`"kind":"solve"`)) {
			continue
		}
		var ev solveEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("telemetry line %q: %w", line, err)
		}
		if ev.Layer == obs.LayerSolver && ev.Kind == "solve" {
			out = append(out, ev)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("telemetry stream holds no solve events")
	}
	return out, nil
}

// histsByName indexes the telemetry's histogram snapshots by name.
func histsByName(tel *obs.Telemetry) map[string]obs.HistSnapshot {
	out := make(map[string]obs.HistSnapshot)
	for _, h := range tel.HistSnapshots() {
		out[h.Name] = h
	}
	return out
}

// layerCP prints the solver layer from the solve events and histograms.
func layerCP(res *result, solves []solveEvent, hist map[string]obs.HistSnapshot) {
	var nodes, objSum, firstObjSum, hits float64
	var solveMS, firstMS, workers []float64
	for _, s := range solves {
		nodes += s.Nodes
		objSum += s.Objective
		firstObjSum += s.FirstObjective
		if s.NodeLimitHit || s.TimeLimitHit {
			hits++
		}
		solveMS = append(solveMS, s.SolveMS)
		firstMS = append(firstMS, s.FirstMS)
		workers = append(workers, s.Workers)
	}
	total := hist[obs.HistWallSolve].Sum
	res.metric("cp.nodes", nodes, "count")
	res.metric("cp.solve_ms", total, "ms")
	res.metric("cp.us_per_node", total*1000/nodes, "us")
	res.metric("cp.solve_p50_ms", percentile(solveMS, 0.50), "ms")
	res.metric("cp.solve_p95_ms", percentile(solveMS, 0.95), "ms")
	res.metric("cp.limit_hit_frac", hits/float64(len(solves)), "fraction")
	res.metric("cp.first_ms_p50", percentile(firstMS, 0.50), "ms")
	res.metric("cp.first_objective_sum", firstObjSum, "count")
	res.metric("cp.objective_sum", objSum, "count")
	res.metric("cp.workers_mean", mean(workers), "count")
	res.note("cp solves=%d", len(solves))
}

// auditSchedule sweeps the executed schedule, independently of the
// simulator's own ledger: no machine runs more map or reduce tasks than it
// has slots, or more memory than its capacity; no task starts before its
// job's earliest start; every reduce starts after its job's last map ends;
// every task runs exactly once.
func auditSchedule(c sim.Cluster, jobs []*workload.Job, evs []trace.Event) error {
	type info struct {
		job  *workload.Job
		task *workload.Task
	}
	tasks := make(map[string]info)
	lastMap := make(map[int]int64) // job ID -> latest map finish
	mapsDone := make(map[int]int)
	for _, j := range jobs {
		for _, t := range j.Tasks() {
			tasks[t.ID] = info{j, t}
		}
	}
	starts := make(map[string]int)
	sortedEvs := append([]trace.Event(nil), evs...)
	// At one instant finishes free capacity before starts take it.
	sort.SliceStable(sortedEvs, func(a, b int) bool {
		ea, eb := sortedEvs[a], sortedEvs[b]
		if ea.TimeMS != eb.TimeMS {
			return ea.TimeMS < eb.TimeMS
		}
		return ea.Kind == trace.TaskFinish && eb.Kind != trace.TaskFinish
	})
	mapUse := make([]int64, c.NumResources)
	redUse := make([]int64, c.NumResources)
	memUse := make([]int64, c.NumResources)
	for _, e := range sortedEvs {
		in, ok := tasks[e.TaskID]
		if !ok {
			return fmt.Errorf("event for unknown task %q", e.TaskID)
		}
		use := mapUse
		limit := c.MapSlots
		if in.task.Type == workload.ReduceTask {
			use, limit = redUse, c.ReduceSlots
		}
		switch e.Kind {
		case trace.TaskStart:
			starts[e.TaskID]++
			if e.TimeMS < in.job.EarliestStart {
				return fmt.Errorf("task %s starts at %d before its job's earliest start %d", e.TaskID, e.TimeMS, in.job.EarliestStart)
			}
			if in.task.Type == workload.ReduceTask {
				if mapsDone[in.job.ID] < len(in.job.MapTasks) || e.TimeMS < lastMap[in.job.ID] {
					return fmt.Errorf("reduce %s starts at %d before its job's maps end", e.TaskID, e.TimeMS)
				}
			}
			use[e.Resource] += in.task.Req
			memUse[e.Resource] += in.task.Mem
			if use[e.Resource] > limit {
				return fmt.Errorf("machine %d runs %d %s tasks at %d, over its %d slots", e.Resource, use[e.Resource], in.task.Type, e.TimeMS, limit)
			}
			if c.MemCapacity > 0 && memUse[e.Resource] > c.MemCapacity {
				return fmt.Errorf("machine %d uses %d memory at %d, over its capacity %d", e.Resource, memUse[e.Resource], e.TimeMS, c.MemCapacity)
			}
		case trace.TaskFinish:
			use[e.Resource] -= in.task.Req
			memUse[e.Resource] -= in.task.Mem
			if in.task.Type == workload.MapTask {
				mapsDone[in.job.ID]++
				if e.TimeMS > lastMap[in.job.ID] {
					lastMap[in.job.ID] = e.TimeMS
				}
			}
		default:
			return fmt.Errorf("unexpected %s event on a fault-free run", e.Kind)
		}
	}
	for id, in := range tasks {
		if starts[id] != 1 {
			return fmt.Errorf("task %s of job %d started %d times", id, in.job.ID, starts[id])
		}
	}
	return nil
}
