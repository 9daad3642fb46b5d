package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tspusim/internal/sim"
)

// fakeRun is a deterministic RunFunc: output and stats depend only on the
// job, never on scheduling.
func fakeRun(job Job) (string, []Stat, error) {
	r := sim.NewRand(job.Seed)
	v := r.Float64()
	out := fmt.Sprintf("exp=%s seed=%d shard=%d v=%.6f", job.Exp, job.SeedIndex, job.Shard, v)
	return out, []Stat{{Key: "v", Value: v}}, nil
}

func TestPlanDeterministic(t *testing.T) {
	a := Plan(3, []string{"x", "y"}, 4, 2)
	b := Plan(3, []string{"x", "y"}, 4, 2)
	if len(a) != 16 {
		t.Fatalf("plan has %d jobs, want 16", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan not deterministic at job %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Index != i {
			t.Fatalf("job %d has Index %d", i, a[i].Index)
		}
	}
	// Seeds must be pairwise distinct and independent of list position.
	seen := map[uint64]bool{}
	for _, j := range a {
		if seen[j.Seed] {
			t.Fatalf("duplicate seed %#x in plan", j.Seed)
		}
		seen[j.Seed] = true
	}
	solo := Plan(3, []string{"y"}, 4, 2)
	if solo[0].Seed != a[8].Seed {
		t.Fatal("job seed depends on plan position, not (root, label)")
	}
}

// TestRunDeterministicAcrossWorkers is the core fleet invariant: 1 worker
// and 8 workers produce byte-identical aggregate reports.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	jobs := Plan(7, []string{"alpha", "beta", "gamma"}, 5, 2)
	r1 := NewRunner(Config{Workers: 1}).Run(jobs, fakeRun)
	r8 := NewRunner(Config{Workers: 8}).Run(jobs, fakeRun)
	a, b := r1.RenderAggregate(), r8.RenderAggregate()
	if a != b {
		t.Fatalf("aggregate differs between 1 and 8 workers:\n--- w1 ---\n%s\n--- w8 ---\n%s", a, b)
	}
	if !strings.Contains(a, "30 ok, 0 failed") {
		t.Fatalf("unexpected summary in:\n%s", a)
	}
	for i, res := range r8.Results {
		if res.Job.Index != i {
			t.Fatalf("result %d out of plan order (job index %d)", i, res.Job.Index)
		}
	}
}

// TestPanicIsolation: a panicking job is reported as failed with its stack
// captured while every other job completes.
func TestPanicIsolation(t *testing.T) {
	jobs := Plan(1, []string{"ok", "boom"}, 3, 1)
	run := func(job Job) (string, []Stat, error) {
		if job.Exp == "boom" && job.SeedIndex == 1 {
			panic("shard exploded")
		}
		return fakeRun(job)
	}
	rep := NewRunner(Config{Workers: 4}).Run(jobs, run)
	failed := rep.Failed()
	if len(failed) != 1 {
		t.Fatalf("want exactly 1 failed job, got %d", len(failed))
	}
	var pe *PanicError
	if !errors.As(failed[0].Err, &pe) {
		t.Fatalf("failed job error is %T, want *PanicError", failed[0].Err)
	}
	if pe.Value != "shard exploded" || !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("panic not captured: value=%v stack=%q", pe.Value, pe.Stack[:40])
	}
	if failed[0].Attempts != 1 {
		t.Fatalf("panic retried: %d attempts", failed[0].Attempts)
	}
	agg := rep.RenderAggregate()
	if !strings.Contains(agg, "FAILED boom/seed=1/shard=0: panic: shard exploded") {
		t.Fatalf("aggregate missing failure line:\n%s", agg)
	}
	if !strings.Contains(agg, "5 ok, 1 failed: boom/seed=1/shard=0") {
		t.Fatalf("aggregate missing summary:\n%s", agg)
	}
	if strings.Contains(agg, "goroutine") {
		t.Fatal("aggregate must not embed stacks (goroutine IDs are unstable)")
	}
}

// TestPanicAggregateStable: the rendered aggregate with a panic inside is
// still identical across worker counts (stacks stay out of the report).
func TestPanicAggregateStable(t *testing.T) {
	jobs := Plan(5, []string{"a", "b"}, 4, 1)
	run := func(job Job) (string, []Stat, error) {
		if job.Exp == "a" && job.SeedIndex == 2 {
			panic(fmt.Sprintf("bad shard %d", job.Shard))
		}
		return fakeRun(job)
	}
	a := NewRunner(Config{Workers: 1}).Run(jobs, run).RenderAggregate()
	b := NewRunner(Config{Workers: 8}).Run(jobs, run).RenderAggregate()
	if a != b {
		t.Fatalf("panic aggregate differs across workers:\n%s\nvs\n%s", a, b)
	}
}

// TestTimeoutRetriedOnce: a timed-out attempt gets exactly one retry.
func TestTimeoutRetriedOnce(t *testing.T) {
	jobs := Plan(1, []string{"slow"}, 1, 1)
	var mu sync.Mutex
	calls := 0
	run := func(job Job) (string, []Stat, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		time.Sleep(200 * time.Millisecond)
		return "never", nil, nil
	}
	rep := NewRunner(Config{Workers: 1, Timeout: 10 * time.Millisecond}).Run(jobs, run)
	res := rep.Results[0]
	var te *timeoutError
	if !res.Failed() || !errors.As(res.Err, &te) {
		t.Fatalf("want a timeout failure, got %v", res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("want 2 attempts (1 + 1 retry), got %d", res.Attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("run func called %d times, want 2", calls)
	}
	if rep.Metrics.Retried != 1 {
		t.Fatalf("metrics recorded %d retries, want 1", rep.Metrics.Retried)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	jobs := Plan(1, []string{"dead"}, 1, 1)
	run := func(job Job) (string, []Stat, error) {
		return "", nil, errors.New("permanently broken")
	}
	rep := NewRunner(Config{Workers: 1}).Run(jobs, run)
	if rep.Results[0].Attempts != 1 {
		t.Fatalf("permanent error retried %d times", rep.Results[0].Attempts-1)
	}
}

func TestMetricsAccounting(t *testing.T) {
	jobs := Plan(2, []string{"a", "b"}, 3, 1)
	var mu sync.Mutex
	var peakRunning int
	cfg := Config{Workers: 3, OnUpdate: func(s Snapshot) {
		mu.Lock()
		if s.Running > peakRunning {
			peakRunning = s.Running
		}
		mu.Unlock()
	}}
	rep := NewRunner(cfg).Run(jobs, fakeRun)
	m := rep.Metrics
	if m.Queued != 6 || m.Done != 6 || m.Failed != 0 || m.Running != 0 {
		t.Fatalf("bad final snapshot: %+v", m)
	}
	if m.JobWall < 0 || m.Elapsed <= 0 {
		t.Fatalf("bad timing in snapshot: %+v", m)
	}
	mu.Lock()
	defer mu.Unlock()
	if peakRunning < 1 || peakRunning > 3 {
		t.Fatalf("peak running %d outside [1,3]", peakRunning)
	}
}

func TestAggregateStatsMoments(t *testing.T) {
	jobs := Plan(1, []string{"m"}, 4, 1)
	vals := []float64{1, 2, 3, 4}
	run := func(job Job) (string, []Stat, error) {
		return fmt.Sprintf("v=%g", vals[job.SeedIndex]),
			[]Stat{{Key: "v", Value: vals[job.SeedIndex]}}, nil
	}
	agg := NewRunner(Config{Workers: 2}).Run(jobs, run).RenderAggregate()
	for _, frag := range []string{"v     4  2.5   1.29099  1    4"} {
		if !strings.Contains(agg, frag) {
			t.Fatalf("aggregate missing %q:\n%s", frag, agg)
		}
	}
}
