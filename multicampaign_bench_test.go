package lynceus

import (
	"fmt"
	"testing"

	"repro/internal/optimizer"
)

// BenchmarkMultiCampaignThroughput measures batch campaign throughput: one
// op runs 8 Tensorflow-384 LA=2 incremental campaigns with distinct seeds
// (1..8) to completion through one MultiRunner. The campaigns share one
// environment instance, so the batch exercises what the share group does
// pay for on a realistic batch — one interned space artifact, one price
// cache and the bounded arena pool — while every campaign plans on its own.
//
// ns/campaign (total time over campaigns completed) is the gated metric;
// campaigns/sec is reported for readability.
func BenchmarkMultiCampaignThroughput(b *testing.B) {
	const campaigns = 8
	job, err := SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		b.Fatalf("SyntheticTensorflowJob: %v", err)
	}
	env, err := NewJobEnvironment(job)
	if err != nil {
		b.Fatalf("NewJobEnvironment: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		b.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	bootstrap, err := optimizer.ResolveBootstrapSize(job.Space(), Options{Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil {
		b.Fatalf("ResolveBootstrapSize: %v", err)
	}
	budget := float64(bootstrap) * job.MeanCost() * 1.35
	cfg := TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental"}

	b.Run("seeds=distinct", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runner := NewMultiRunner(MultiRunnerConfig{})
			for c := 0; c < campaigns; c++ {
				opts := Options{Budget: budget, MaxRuntimeSeconds: tmax, Seed: int64(c + 1)}
				if err := runner.Add(fmt.Sprintf("c%d", c), cfg, env, opts); err != nil {
					b.Fatalf("Add: %v", err)
				}
			}
			summary, err := runner.Run()
			if err != nil {
				b.Fatalf("Run: %v", err)
			}
			for _, r := range summary.Results {
				if r.Err != nil {
					b.Fatalf("campaign %s: %v", r.Name, r.Err)
				}
			}
		}
		total := float64(b.N * campaigns)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/campaign")
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(total/s, "campaigns/sec")
		}
	})
}
