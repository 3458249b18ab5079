//! The runtime against the oracle ([`reference::reference_run`]): the
//! in-memory runtime — storing each payload once and routing handles,
//! folding at delivery by reference (top-k included), routing as it
//! computes, fanning phases out over a pool — must produce the
//! reference run's vertex values and [`RunProfile`](predict_bsp::RunProfile)
//! bit for bit, for every program of `predict_algorithms`, at every thread
//! count.

mod reference;

use predict_algorithms::with_program;
use predict_bsp::{BspConfig, BspEngine, ExecutionMode, VertexProgram};
use predict_graph::CsrGraph;
use proptest::prelude::*;
use reference::{assert_same_run, graph_strategy, program_case, reference_run, suite_cases};
use std::fmt::Debug;

/// The engine at `threads` threads against the oracle.
fn check<P>(
    program: &P,
    graph: &CsrGraph,
    workers: usize,
    threads: usize,
) -> Result<(), TestCaseError>
where
    P: VertexProgram,
    P::VertexValue: Debug + PartialEq,
{
    // Default costs are noisy: equal times mean equal counters *and* the
    // same draws from the clock's noise stream.
    let config = BspConfig::with_workers(workers)
        .with_max_supersteps(40)
        .with_execution(match threads {
            1 => ExecutionMode::Sequential,
            threads => ExecutionMode::Parallel { threads },
        });
    let reference = reference_run(program, graph, &config);
    let run = BspEngine::new(config).run(graph, program);
    assert_same_run(&(run.values, run.profile, run.halt_reason), &reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(96)))]

    #[test]
    fn the_runtime_equals_the_reference_interpreter(
        graph in graph_strategy(),
        algorithm in 0usize..reference::PROGRAMS,
        workers in 1usize..7,
        threads in 0usize..3,
    ) {
        let threads = [1, 2, 4][threads];
        let (spec, ranks) = program_case(algorithm, &graph);
        with_program!(&spec, ranks, |program| check(program, &graph, workers, threads))?;
    }
}
