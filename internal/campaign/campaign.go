// Package campaign fans independent seeded simulation runs out across a
// bounded worker pool and merges their results in deterministic seed
// order. The paper's evaluation (§6) averages every figure over 30
// independent runs; those runs share nothing, so they are embarrassingly
// parallel — but the aggregates must not depend on scheduling. The
// engine therefore keeps a hard split:
//
//   - Each scenario runs start-to-finish on one worker goroutine. The
//     simulation kernel stays single-threaded and bit-reproducible; the
//     pool only decides *when* a run happens, never how it unfolds.
//   - Results are handed to the caller's collect function strictly in
//     ascending job order (the order the seeds were laid out), never in
//     completion order. A reorder buffer releases the completed prefix
//     as it fills, so aggregation streams instead of waiting for a
//     barrier.
//
// Consequently a campaign's aggregates are bitwise identical for any
// worker count, which the tests assert and the determinism lint keeps
// honest: the directive below declares this package to the
// no-raw-goroutine analyzer (see internal/lint), because concurrency here
// lives strictly above the simulation kernel boundary — and in exchange
// the kernel-ownership analyzer checks that no goroutine the pool spawns
// ever shares a run's kernel, wheel, or scenario state.
//
// The runtime is supervised (see supervise.go for the failure model): a
// panicking job becomes a structured JobError instead of killing the
// process, failed jobs are retried on a deterministic capped-exponential
// schedule, jobs that blow a real-time or simulated-time budget are
// cancelled via their attempt context and recorded as timeouts, a
// cancelled Options.Context drains in-flight jobs into the checkpoint
// and returns ErrInterrupted with resumable state, and a stall watchdog
// reports per-worker liveness when progress halts.
//
// An optional JSON-lines checkpoint persists every completed run — and,
// under SkipFailed, every permanent failure — so an interrupted
// Paper-scale campaign resumes from its completed seeds and never
// re-runs a job that is known to fail deterministically.
//
//lint:concurrency-layer supervised worker pool fanning out independent seeded runs; each scenario stays single-threaded, panics/retries/deadlines are handled per worker, and results merge in seed order
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"liteworp"
)

// Job is one independent seeded simulation run. Params fully determines
// the run (Params.Seed carries the seed), so equal jobs always produce
// equal results.
type Job struct {
	// Key labels the job for checkpoints, progress and error messages
	// (e.g. "F8/M=2/lw=true/run=1"). Keys should be stable across
	// processes: checkpoint entries are matched by index, key and seed.
	Key string
	// Params configures the scenario.
	Params liteworp.Params
}

// Options configures a campaign run.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS, 1 runs the jobs
	// sequentially. The worker count never affects the aggregates, only
	// the wall-clock time.
	Workers int
	// Checkpoint, when non-empty, is a JSON-lines file recording every
	// completed run. A rerun over the same job list resumes from it; a
	// checkpoint written for a different job list is discarded, and an
	// unreadably corrupt one is quarantined to *.corrupt.
	Checkpoint string
	// OnProgress, when non-nil, observes completions: once per freshly
	// executed job (with the cumulative done count, in completion
	// order), and once up front with fromCheckpoint=true if any results
	// were restored. Progress is cosmetic — it never influences the
	// order results are collected in.
	OnProgress func(done, total int, fromCheckpoint bool)

	// Retries is how many times a permanently failing job is
	// re-attempted after its first failure (0 = one attempt, no
	// retries). Every attempt re-runs the same Params, so a retry can
	// only help with non-deterministic failures (real-time budget under
	// machine load, injected chaos); deterministic failures exhaust the
	// schedule and surface per OnError.
	Retries int
	// Backoff schedules the pause before each retry; the zero value
	// retries immediately. Delays only take effect when Sleep is wired.
	Backoff Backoff
	// JobBudget bounds every attempt; see Budget. Exceeding a budget
	// cancels the attempt via its context and records a timeout.
	JobBudget Budget
	// OnError selects FailFast (default) or SkipFailed handling of
	// permanently failed jobs.
	OnError ErrorPolicy
	// Context, when non-nil, requests graceful shutdown once cancelled:
	// no further jobs or retries are dispatched, in-flight attempts
	// drain to completion and are checkpointed, and Run returns an
	// error wrapping ErrInterrupted. Completed work stays resumable.
	Context context.Context
	// Sleep paces backoff delays and the stall watchdog; nil means no
	// waiting (immediate retries, watchdog off). The engine itself
	// never touches the wall clock — drivers inject it here.
	Sleep SleepFunc
	// Elapsed returns monotonically increasing real elapsed time; it
	// enables JobBudget.Real and timestamps for stall reports. Nil
	// disables real-time budgets. Like Sleep, this keeps wall-clock
	// reads in the caller, outside the determinism boundary.
	Elapsed func() time.Duration
	// StallAfter, when > 0 (and Sleep is wired), arms a watchdog that
	// emits a NoticeStall with per-worker liveness whenever no job
	// completes for a full interval.
	StallAfter time.Duration
	// OnNotice, when non-nil, receives supervision events (retries,
	// permanent failures, checkpoint quarantines, stall reports). It
	// may be called concurrently from worker goroutines and must be
	// safe for concurrent use.
	OnNotice func(Notice)
	// Chaos, when non-nil, injects faults into the runtime for
	// robustness testing; see Chaos.
	Chaos *Chaos
}

// outcome carries one finished job from a worker to the merge loop.
type outcome struct {
	i       int
	res     *liteworp.Results
	err     error
	retries int
}

// workerState is one worker's liveness snapshot for the stall watchdog.
type workerState struct {
	busy    bool
	key     string
	attempt int
	started time.Duration // Elapsed() at attempt start (0 if unwired)
	simNow  time.Duration // kernel clock, updated once per drive slice
}

// engine is the per-Run supervision state shared between the dispatcher,
// the workers, the merge loop, and the watchdog.
type engine struct {
	jobs []Job
	opt  Options

	mu      sync.Mutex
	states  []workerState
	done    int // completed outcomes (successes + permanent failures)
	retried int
}

func (e *engine) notice(n Notice) {
	if e.opt.OnNotice != nil {
		e.opt.OnNotice(n)
	}
}

// interrupted reports whether graceful shutdown was requested.
func (e *engine) interrupted() bool {
	return e.opt.Context != nil && e.opt.Context.Err() != nil
}

func (e *engine) sleep(ctx context.Context, d time.Duration) {
	if e.opt.Sleep != nil && d > 0 {
		e.opt.Sleep(ctx, d)
	}
}

func (e *engine) elapsed() time.Duration {
	if e.opt.Elapsed == nil {
		return 0
	}
	return e.opt.Elapsed()
}

func (e *engine) setState(w int, st workerState) {
	e.mu.Lock()
	e.states[w] = st
	e.mu.Unlock()
}

func (e *engine) setSimNow(w int, now time.Duration) {
	e.mu.Lock()
	e.states[w].simNow = now
	e.mu.Unlock()
}

// Run executes every job and calls collect exactly once per surviving
// job in ascending job index order — never completion order — streaming
// the completed prefix as it fills. Under FailFast the error of the
// lowest-indexed permanently failed job is returned (after every job
// preceding it was collected), so error behavior is as deterministic as
// success behavior.
func Run(jobs []Job, opt Options, collect func(i int, job Job, res *liteworp.Results) error) error {
	_, err := RunReport(jobs, opt, collect)
	return err
}

// RunReport is Run plus a Report of what happened: completions,
// restorations, retries, permanent failures, and whether the campaign
// was interrupted. The Report is valid even when err is non-nil.
func RunReport(jobs []Job, opt Options, collect func(i int, job Job, res *liteworp.Results) error) (Report, error) {
	report := Report{Total: len(jobs)}
	if len(jobs) == 0 {
		return report, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	e := &engine{jobs: jobs, opt: opt, states: make([]workerState, workers)}

	results := make([]*liteworp.Results, len(jobs))
	errs := make([]error, len(jobs))

	var ckpt *checkpoint
	if opt.Checkpoint != "" {
		var err error
		ckpt, err = openCheckpoint(opt.Checkpoint, jobs, e.notice)
		if err != nil {
			return report, err
		}
		defer ckpt.close()
		for i, r := range ckpt.restored {
			if r != nil {
				results[i] = r
				report.Restored++
			}
		}
		// Recorded permanent failures are honored only under SkipFailed,
		// where skipping them is deterministic; FailFast re-runs them
		// (the failure may have been environmental, e.g. a blown
		// real-time budget on a loaded machine).
		if opt.OnError == SkipFailed {
			for i, je := range ckpt.restoredErr {
				if je != nil && results[i] == nil {
					errs[i] = je
					report.Restored++
				}
			}
		}
	}

	var pending []int
	for i := range jobs {
		if results[i] == nil && errs[i] == nil {
			pending = append(pending, i)
		}
	}

	total := len(jobs)
	done := report.Restored
	e.mu.Lock()
	e.done = done
	e.mu.Unlock()
	if opt.OnProgress != nil && report.Restored > 0 {
		opt.OnProgress(done, total, true)
	}

	// next is the lowest index not yet collected; advance releases the
	// completed prefix to collect in order. Under FailFast it freezes on
	// the first failed job; under SkipFailed it steps over failures so
	// the collect stream covers exactly the surviving subset, still in
	// job order. Either way it freezes on a collect refusal, and on an
	// abandoned job (shutdown mid-retry) it freezes without an error —
	// the final ErrInterrupted covers it.
	next := 0
	var jobErr, collectErr, ckptErr error
	advance := func() {
		for next < total && jobErr == nil && collectErr == nil {
			if err := errs[next]; err != nil {
				if err == errAbandoned {
					return
				}
				if opt.OnError == SkipFailed {
					next++
					continue
				}
				jobErr = fmt.Errorf("campaign job %d (%s): %w", next, jobs[next].Key, err)
				return
			}
			r := results[next]
			if r == nil {
				return
			}
			if err := collect(next, jobs[next], r); err != nil {
				collectErr = err
				return
			}
			results[next] = nil // the prefix is consumed; free it
			next++
		}
	}
	advance() // checkpoint-restored prefix, if any

	if len(pending) > 0 && !e.interrupted() {
		var interruptCh <-chan struct{}
		if opt.Context != nil {
			interruptCh = opt.Context.Done()
		}
		jobCh := make(chan int)
		outCh := make(chan outcome)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range jobCh {
					o := e.execute(w, i)
					e.setState(w, workerState{})
					outCh <- o
				}
			}(w)
		}
		// The dispatcher stops feeding the pool the moment shutdown is
		// requested; workers then drain their in-flight job and exit.
		go func() {
			defer close(jobCh)
			for _, i := range pending {
				select {
				case jobCh <- i:
				case <-interruptCh:
					return
				}
			}
		}()
		go func() {
			wg.Wait()
			close(outCh)
		}()
		// The watchdog lives for the duration of the pool; cancelling
		// watchCtx releases its Sleep so it never outlives Run.
		watchCtx, watchCancel := context.WithCancel(context.Background())
		if opt.StallAfter > 0 && opt.Sleep != nil && opt.OnNotice != nil {
			go e.watchdog(watchCtx)
		}
		// Drain every outcome even after an error so the pool always
		// shuts down cleanly; advance() freezes once an error is set, so
		// late completions cannot leak into the aggregates.
		for o := range outCh {
			if o.err == errAbandoned {
				// Shutdown cut the job's retry schedule short: leave it
				// un-run and un-checkpointed so a resume re-attempts it.
				continue
			}
			results[o.i], errs[o.i] = o.res, o.err
			done++
			e.mu.Lock()
			e.done = done
			e.retried += o.retries
			e.mu.Unlock()
			if ckpt != nil && ckptErr == nil {
				if o.err == nil {
					ckptErr = ckpt.append(o.i, jobs[o.i], o.res)
				} else if je, ok := o.err.(*JobError); ok {
					ckptErr = ckpt.appendFailure(je)
				}
			}
			if opt.OnProgress != nil {
				opt.OnProgress(done, total, false)
			}
			advance()
		}
		watchCancel()
	}

	e.mu.Lock()
	report.Retried = e.retried
	e.mu.Unlock()
	for _, err := range errs {
		if je, ok := err.(*JobError); ok {
			report.Failed = append(report.Failed, je)
		}
	}
	report.Completed = done - len(report.Failed)
	report.Interrupted = e.interrupted()

	switch {
	case jobErr != nil:
		return report, jobErr
	case collectErr != nil:
		return report, collectErr
	case ckptErr != nil:
		return report, fmt.Errorf("campaign checkpoint %s: %w", opt.Checkpoint, ckptErr)
	case report.Interrupted:
		return report, fmt.Errorf("campaign: %w (completed %d/%d jobs; checkpoint state is resumable)",
			ErrInterrupted, done, total)
	}
	return report, nil
}

// execute supervises one job on worker w: attempts, panic recovery,
// classification, and the deterministic retry schedule. It returns a
// success, a permanent *JobError, or errAbandoned when shutdown cut the
// schedule short.
func (e *engine) execute(w, i int) outcome {
	job := e.jobs[i]
	retries := 0
	for attempt := 1; ; attempt++ {
		started := e.elapsed()
		e.setState(w, workerState{busy: true, key: job.Key, attempt: attempt, started: started})
		res, err := e.attempt(w, job, attempt, started)
		if err == nil {
			return outcome{i: i, res: res, retries: retries}
		}
		jerr := &JobError{Index: i, Key: job.Key, Seed: job.Params.Seed,
			Attempts: attempt, Kind: classify(err), Err: err}
		if pe, ok := err.(*panicError); ok {
			jerr.Stack = pe.stack
		}
		if attempt > e.opt.Retries {
			e.notice(Notice{Kind: NoticeFailed, Job: job.Key, Attempt: attempt,
				Msg: fmt.Sprintf("permanently failed after %d attempt(s) [%s]: %v", attempt, jerr.Kind, err)})
			return outcome{i: i, err: jerr, retries: retries}
		}
		if e.interrupted() {
			return outcome{i: i, err: errAbandoned, retries: retries}
		}
		delay := e.opt.Backoff.Delay(attempt)
		e.notice(Notice{Kind: NoticeRetry, Job: job.Key, Attempt: attempt, Delay: delay,
			Msg: fmt.Sprintf("attempt %d failed [%s]: %v; retrying in %v", attempt, jerr.Kind, err, delay)})
		if e.opt.Context != nil {
			e.sleep(e.opt.Context, delay)
		} else {
			e.sleep(context.Background(), delay)
		}
		if e.interrupted() {
			return outcome{i: i, err: errAbandoned, retries: retries}
		}
		retries++
	}
}

// attempt runs one try of one job, converting a panic anywhere inside
// scenario construction or execution into a *panicError instead of
// letting it kill the process — the core of worker supervision.
func (e *engine) attempt(w int, job Job, attempt int, started time.Duration) (res *liteworp.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: string(debug.Stack())}
		}
	}()
	if c := e.opt.Chaos; c != nil {
		if c.FailOn != nil {
			if ferr := c.FailOn(job.Key, attempt); ferr != nil {
				return nil, ferr
			}
		}
		if c.PanicOn != nil && c.PanicOn(job.Key, attempt) {
			panic(fmt.Sprintf("chaos: injected panic (%s attempt %d)", job.Key, attempt))
		}
		if c.SlowOn != nil {
			if d := c.SlowOn(job.Key, attempt); d > 0 {
				e.sleep(context.Background(), d)
			}
		}
	}
	s, err := liteworp.NewScenario(job.Params)
	if err != nil {
		return nil, err
	}
	return e.drive(w, s, job, started)
}

// driveSlices is how many budget checkpoints a run gets: the kernel is
// advanced in driveSlices equal simulated-time slices, and the attempt's
// deadline context is checked between slices. Slicing RunUntil is
// behavior-identical to one call — events fire in the same order and the
// clock lands on the same horizon — which the experiments golden test
// and the trace-hash test pin.
const driveSlices = 32

// drive advances the scenario's kernel to its horizon in slices,
// cancelling the attempt via its context when a budget is exceeded.
// started is the attempt's Elapsed() origin, captured before any chaos
// stall so the real-time budget covers the whole attempt.
func (e *engine) drive(w int, s *liteworp.Scenario, job Job, started time.Duration) (*liteworp.Results, error) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	horizon := s.OperationalStart() + job.Params.Duration
	budget := e.opt.JobBudget
	start := started
	step := horizon / driveSlices
	// A simulated-time budget must be checked well before the horizon:
	// bound the slice so the kernel never overshoots the budget by more
	// than a quarter of it, however large the (possibly runaway) horizon.
	if budget.Sim > 0 && step > budget.Sim/4 {
		step = budget.Sim / 4
	}
	if step <= 0 {
		step = horizon
	}
	k := s.Kernel()
	for now := time.Duration(0); now < horizon; {
		now += step
		if now > horizon {
			now = horizon
		}
		if err := k.RunUntil(now); err != nil {
			return nil, err
		}
		e.setSimNow(w, k.Now())
		if budget.Sim > 0 && k.Now() >= budget.Sim && now < horizon {
			cancel(&timeoutError{budget: "simulated-time", limit: budget.Sim})
		}
		if budget.Real > 0 && e.opt.Elapsed != nil && e.opt.Elapsed()-start > budget.Real {
			cancel(&timeoutError{budget: "real-time", limit: budget.Real})
		}
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
	}
	return s.Results(), nil
}

// watchdog reports per-worker liveness whenever a full StallAfter
// interval passes with no job completing. It only observes — a stalled
// worker is never killed, because the in-flight kernel cannot be
// preempted safely; the report tells the operator which seed is wedged.
func (e *engine) watchdog(ctx context.Context) {
	last := -1
	for {
		e.opt.Sleep(ctx, e.opt.StallAfter)
		if ctx.Err() != nil {
			return
		}
		e.mu.Lock()
		d := e.done
		var busy []string
		for w, st := range e.states {
			if st.busy {
				busy = append(busy, fmt.Sprintf("worker %d: %s attempt %d, sim clock %v", w, st.key, st.attempt, st.simNow))
			}
		}
		e.mu.Unlock()
		if d == last && len(busy) > 0 {
			e.notice(Notice{Kind: NoticeStall,
				Msg: fmt.Sprintf("no job completed in the last %v\n  %s", e.opt.StallAfter, strings.Join(busy, "\n  "))})
		}
		last = d
	}
}
