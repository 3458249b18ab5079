//! Criterion benchmark: sequential vs parallel BSP runtime on an R-MAT
//! graph, at 4 and 8 workers.
//!
//! The workload is a message-heavy flood (one 8-byte message per edge per
//! superstep for 5 supersteps), the regime where the compute phase dominates
//! and the pooled parallel executor should win. The parallel engine runs with
//! as many threads as workers. Outputs are byte-identical by the runtime's
//! determinism contract — this benchmark demonstrates that the *only*
//! difference is wall-clock time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use predict_bsp::{
    BspConfig, BspEngine, ClusterCostConfig, ComputeContext, ExecutionMode, InitContext,
    VertexProgram,
};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_graph::VertexId;

/// Floods every edge with one 8-byte message for a fixed number of supersteps.
struct Flood {
    rounds: usize,
}

impl VertexProgram for Flood {
    type VertexValue = u64;
    type Message = u64;

    fn name(&self) -> &'static str {
        "flood"
    }

    fn init_vertex(&self, _v: VertexId, _ctx: &InitContext<'_>) -> u64 {
        0
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, u64, u64>, messages: &[u64]) {
        *ctx.value += messages.len() as u64;
        if ctx.superstep < self.rounds {
            let v = ctx.vertex as u64;
            ctx.send_to_all_neighbors(v);
        }
        ctx.vote_to_halt();
    }

    fn message_size_bytes(&self, _m: &u64) -> u64 {
        8
    }
}

fn bench_parallel_bsp(c: &mut Criterion) {
    let graph = generate_rmat(&RmatConfig::new(14, 8).with_seed(7));
    for workers in [4usize, 8] {
        let mut group = c.benchmark_group(format!("bsp_runtime_flood_{workers}_workers"));
        group.sample_size(10);
        for (label, mode) in [
            ("sequential", ExecutionMode::Sequential),
            ("parallel", ExecutionMode::Parallel { threads: workers }),
        ] {
            let engine = BspEngine::new(
                BspConfig::with_workers(workers)
                    .with_cost(ClusterCostConfig::noiseless())
                    .with_execution(mode),
            );
            group.bench_with_input(BenchmarkId::from_parameter(label), &graph, |b, graph| {
                b.iter(|| {
                    let result = engine.run(graph, &Flood { rounds: 5 });
                    std::hint::black_box(result.profile.num_iterations())
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_parallel_bsp);
criterion_main!(benches);
