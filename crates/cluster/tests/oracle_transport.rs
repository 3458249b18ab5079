//! The cluster transport against the oracle: a drive over in-process
//! workers — each holding only its own `ShardedCsr`, exchanging batch
//! sections the driver relays unread — must produce the sequential reference
//! interpreter's vertex values and [`RunProfile`](predict_bsp::RunProfile)
//! bit for bit, for every program of `predict_algorithms`, on arbitrary
//! graphs, worker counts (including more workers than vertices, i.e. empty
//! shards) and partition strategies. The interpreter is the one the
//! in-memory runtime is checked against, included from `predict_bsp`'s test
//! tree rather than copied.

#[path = "../../bsp/tests/reference/mod.rs"]
mod reference;

use predict_algorithms::{with_program, PageRank, PageRankParams, ProgramSpec};
use predict_bsp::{BspConfig, BspEngine, PartitionStrategy, VertexProgram};
use predict_cluster::{drive, DriveOptions, TransportKind, Wire};
use predict_graph::CsrGraph;
use proptest::prelude::*;
use reference::{assert_same_run, graph_strategy, program_case, reference_run, suite_cases};
use std::fmt::Debug;

/// A drive over in-process workers against the oracle, under `config`.
fn check<P>(
    program: &P,
    spec: &ProgramSpec,
    ranks: &[f64],
    graph: &CsrGraph,
    config: &BspConfig,
) -> Result<(), TestCaseError>
where
    P: VertexProgram,
    P::VertexValue: Wire + Debug + PartialEq,
{
    let reference = reference_run(program, graph, config);
    let opts = DriveOptions::new(TransportKind::InProc);
    let mut run = drive(program, spec, ranks, graph, config, &opts).expect("drive succeeds");
    prop_assert!(run.profile.measured.take().is_some());
    assert_same_run(&(run.values, run.profile, run.halt_reason), &reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(64)))]

    #[test]
    fn an_in_process_drive_equals_the_reference_interpreter(
        graph in graph_strategy(),
        algorithm in 0usize..reference::PROGRAMS,
        workers in 1usize..7,
        strategy in 0usize..3,
    ) {
        let strategy = [
            PartitionStrategy::Hash,
            PartitionStrategy::Range,
            PartitionStrategy::Modulo,
        ][strategy];
        let config = BspConfig::with_workers(workers)
            .with_max_supersteps(40)
            .with_partition_strategy(strategy);
        let (spec, ranks) = program_case(algorithm, &graph);
        with_program!(&spec, ranks.clone(), |program| check(program, &spec, &ranks, &graph, &config))?;
    }
}

/// A zero-worker config runs as one worker on every executor: the clamp is
/// `BspConfig::workers`, not a per-executor habit.
#[test]
fn zero_workers_run_as_one_worker_on_both_executors() {
    let graph = predict_graph::generators::generate_rmat(
        &predict_graph::generators::RmatConfig::new(7, 4).with_seed(1),
    );
    let config = BspConfig::with_workers(0);
    for algorithm in [0, 1] {
        let (spec, ranks) = program_case(algorithm, &graph);
        with_program!(&spec, ranks.clone(), |program| check(
            program, &spec, &ranks, &graph, &config
        ))
        .expect("a zero-worker drive equals the reference run");
    }
    let params = PageRankParams::with_epsilon(0.05, graph.num_vertices());
    let run = BspEngine::new(config).run(&graph, &PageRank::new(params));
    assert_eq!(run.profile.num_workers, 1);
    assert_eq!(run.profile.supersteps[0].workers.len(), 1);
}
