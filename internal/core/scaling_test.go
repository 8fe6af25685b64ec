package core

import (
	"sort"
	"testing"
	"time"
)

// TestPlannerLA3WorkerScalingSanity pins the regression the parallel
// speculation scheduler was built to fix: before it, LA=3 planning at 8
// workers was ~23% SLOWER per decision than at 1 worker (BENCH.json history)
// because the chunked pruning barriers and the contended workspace pool
// turned extra workers into pure overhead. With the work-stealing scheduler,
// multi-worker planning must never lose to serial planning beyond timing
// noise — and on real multi-core hardware it must win.
//
// The test times the same fixed decision sequence (fresh planner each
// repetition, so both sides plan identical iterations) in interleaved
// workers=1 / workers=8 pairs, and compares the median of the per-pair
// ratios against a 15% noise margin. Interleaving makes background load
// (other test packages competing for the CPU) hit both sides of a pair
// alike instead of skewing one whole side; the barrier-era regression was
// well beyond the margin. Skipped with -short; the per-worker benchmarks in
// planner_bench_test.go track the same numbers continuously via BENCH.json.
func TestPlannerLA3WorkerScalingSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive scaling test skipped with -short")
	}
	if raceEnabled {
		t.Skip("timing-sensitive scaling test skipped under the race detector")
	}
	const decisions = 4
	const pairs = 5
	measure := func(workers int) float64 {
		fixture := newPlannerBenchFixture(t, 3, SpecRefitAuto, workers)
		// Warm-up decision (untimed): the first decision populates the
		// per-worker arenas — clone slots, eligibility buffers — that
		// persist across decisions in a real campaign.
		fixture.decide(t)
		start := time.Now()
		for d := 0; d < decisions; d++ {
			fixture.decide(t)
		}
		return time.Since(start).Seconds()
	}
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		serial := measure(1)
		parallel := measure(8)
		ratios = append(ratios, parallel/serial)
		t.Logf("pair %d, LA=3 for %d decisions: workers=1 %.3fs, workers=8 %.3fs (ratio %.2f)",
			i, decisions, serial, parallel, parallel/serial)
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	const tolerance = 1.15
	if ratio > tolerance {
		t.Errorf("LA=3 planning at 8 workers took a median %.2fx the time of 1 worker over %d interleaved pairs (tolerance %.2fx): the speculation scheduler must not lose to serial planning",
			ratio, pairs, tolerance)
	}
}
