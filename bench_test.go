// Benchmark harness: one benchmark per reproduced paper artifact plus the
// lockstep-vs-pipelined runtime comparison (see EXPERIMENTS.md's
// experiment index for the recorded numbers). Each experiment benchmark
// regenerates the corresponding table; run cmd/nabexp to print the tables
// themselves and tools/bench2json to refresh BENCH_pipeline.json.
package nab_test

import (
	"io"
	"testing"
	"time"

	"nab"
	"nab/internal/exp"
)

const benchSeed = 2012

// BenchmarkE1_Fig1Mincuts regenerates the Figure 1 worked example
// (per-node mincuts, gamma, Omega_k, U_k).
func BenchmarkE1_Fig1Mincuts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.E1Fig1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_Fig2TreePacking regenerates the Figure 2 spanning-structure
// constructions (directed arborescence packing, undirected conversion and
// tree packing).
func BenchmarkE2_Fig2TreePacking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.E2Fig2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_Theorem1Soundness measures the random-coding-matrix failure
// rate against the Theorem 1 bound across symbol widths.
func BenchmarkE3_Theorem1Soundness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.E3Theorem1(io.Discard, 100, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_ThroughputVsCapacity measures adversarial amortized NAB
// throughput against the Theorem 2 capacity upper bound on six networks,
// reporting the worst measured/UB fraction (Theorem 3 guarantees >= 1/3,
// or 1/2 when gamma* <= rho*, as L and Q grow).
func BenchmarkE4_ThroughputVsCapacity(b *testing.B) {
	worst := 1.0
	for i := 0; i < b.N; i++ {
		rows, err := exp.E4ThroughputVsCapacity(io.Discard, 0, 10, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if frac := r.Asymptotic / r.CapacityUB; frac < worst {
				worst = frac
			}
		}
	}
	b.ReportMetric(worst, "worst-asym/UB")
}

// BenchmarkE5_Pipelining regenerates the Figure 3 / Appendix D pipelining
// comparison on multi-hop circulants, reporting the largest speedup.
func BenchmarkE5_Pipelining(b *testing.B) {
	speedup := 0.0
	for i := 0; i < b.N; i++ {
		rows, err := exp.E5Pipelining(io.Discard, 0, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if s := r.Unpipelined / r.Pipelined; s > speedup {
				speedup = s
			}
		}
	}
	b.ReportMetric(speedup, "max-pipeline-speedup")
}

// BenchmarkE6_DisputeAmortization sweeps Q under persistent adversaries,
// reporting the final dispute-control time share (which must vanish).
func BenchmarkE6_DisputeAmortization(b *testing.B) {
	share := 0.0
	for i := 0; i < b.N; i++ {
		rows, err := exp.E6Amortization(io.Discard, 128, []int{1, 16, 256}, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		share = rows[len(rows)-1].DisputeShare
	}
	b.ReportMetric(share, "phase3-share@Q=256")
}

// BenchmarkE7_BaselineComparison sweeps fat-link capacity on the
// one-thin-link clique, reporting the final NAB/EIG throughput ratio.
func BenchmarkE7_BaselineComparison(b *testing.B) {
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		rows, err := exp.E7Baselines(io.Discard, 1024, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[len(rows)-1].Ratio
	}
	b.ReportMetric(ratio, "NAB/EIG@fat=32")
}

// BenchmarkE8_CorrectnessSweep fuzzes topologies, fault placements and
// strategies; any agreement/validity/bound violation fails the benchmark.
func BenchmarkE8_CorrectnessSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.E8Correctness(io.Discard, 10, 8, benchSeed+int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Rho sweeps the equality-check parameter.
func BenchmarkAblation_Rho(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.AblationRho(io.Discard, 64, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Packing compares full gamma-tree Phase 1 against
// crippled packings.
func BenchmarkAblation_Packing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.AblationPacking(io.Discard, 64, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_RelayPaths sweeps the disjoint-path count above 2f+1.
func BenchmarkAblation_RelayPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.AblationRelayPaths(io.Discard, 16, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// pipelineTopologies are the lockstep-vs-pipelined comparison networks
// (recorded in EXPERIMENTS.md and BENCH_pipeline.json).
func pipelineTopologies(b *testing.B) []struct {
	name string
	g    *nab.Graph
	f    int
} {
	circ, err := nab.CirculantGraph(9, 1, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	thin, err := nab.OneThinLinkGraph(7, 2, 3, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		g    *nab.Graph
		f    int
	}{
		{"K7", nab.CompleteGraph(7, 1), 2},
		{"Circulant9", circ, 1},
		{"OneThinLink7", thin, 1},
	}
}

const pipelineBatch = 16 // instances per benchmark iteration

func benchInputs(q, lenBytes int) [][]byte {
	out := make([][]byte, q)
	for i := range out {
		out[i] = make([]byte, lenBytes)
		for j := range out[i] {
			out[i][j] = byte(i + j)
		}
	}
	return out
}

// BenchmarkLockstepRunner measures sequential instances/sec of the
// lockstep core.Runner per topology (LenBytes=64, fault-free).
func BenchmarkLockstepRunner(b *testing.B) {
	for _, tp := range pipelineTopologies(b) {
		b.Run(tp.name, func(b *testing.B) {
			inputs := benchInputs(pipelineBatch, 64)
			runner, err := nab.NewRunner(nab.Config{
				Graph: tp.g, Source: 1, F: tp.f, LenBytes: 64, Seed: benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*pipelineBatch)/b.Elapsed().Seconds(), "instances/s")
		})
	}
}

// BenchmarkPipelinedRuntime measures the concurrent runtime's
// instances/sec with W=4 in flight on the same workloads.
func BenchmarkPipelinedRuntime(b *testing.B) {
	for _, tp := range pipelineTopologies(b) {
		b.Run(tp.name, func(b *testing.B) {
			inputs := benchInputs(pipelineBatch, 64)
			rt, err := nab.NewPipelinedRunner(nab.PipelineConfig{
				Config: nab.Config{Graph: tp.g, Source: 1, F: tp.f, LenBytes: 64, Seed: benchSeed},
				Window: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runBatch(rt, inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*pipelineBatch)/b.Elapsed().Seconds(), "instances/s")
		})
	}
}

// BenchmarkPipelineSpeedup runs both runners on CompleteGraph(7,1) /
// LenBytes=64 inside one benchmark and reports the pipelined-over-lockstep
// instances/sec ratio. Both engines plan once per dispute generation, so
// the ratio compares execution engines alone; it is reported, not gated.
func BenchmarkPipelineSpeedup(b *testing.B) {
	inputs := benchInputs(pipelineBatch, 64)
	speedup := 0.0
	for i := 0; i < b.N; i++ {
		runner, err := nab.NewRunner(nab.Config{
			Graph: nab.CompleteGraph(7, 1), Source: 1, F: 2, LenBytes: 64, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		lockStart := time.Now()
		if _, err := runner.Run(inputs); err != nil {
			b.Fatal(err)
		}
		lockSecs := time.Since(lockStart).Seconds()

		rt, err := nab.NewPipelinedRunner(nab.PipelineConfig{
			Config: nab.Config{Graph: nab.CompleteGraph(7, 1), Source: 1, F: 2, LenBytes: 64, Seed: benchSeed},
			Window: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := runBatch(rt, inputs)
		if err != nil {
			b.Fatal(err)
		}
		rt.Close()
		speedup = res.InstancesPerSec() * lockSecs / float64(pipelineBatch)
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkNABInstance measures one fault-free end-to-end instance on K7.
func BenchmarkNABInstance(b *testing.B) {
	runner, err := nab.NewRunner(nab.Config{
		Graph: nab.CompleteGraph(7, 2), Source: 1, F: 2, LenBytes: 64, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunInstance(in); err != nil {
			b.Fatal(err)
		}
	}
}
