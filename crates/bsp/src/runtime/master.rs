//! The BSP master: the one superstep loop every executor runs.
//!
//! [`run_master`] is everything a run does that is order-sensitive and not
//! per-worker: it owns the simulated [`ClusterClock`] and its call order
//! (setup, read, one superstep call per superstep, write), merges worker
//! counters, float aggregate sums and message totals in ascending worker
//! order, applies the halt priority, assembles the [`RunProfile`] and
//! scatters shard values back to vertex order. Where the workers live — in
//! this address space or behind a transport — is the [`Workers`]
//! implementation's business: the in-memory executor
//! (`runtime::executor::LocalWorkers`) and the cluster driver
//! (`predict_cluster`'s `RemoteWorkers`) both plug in here, monomorphized,
//! so the two produce byte-identical results because they *are* the same
//! master.

use crate::aggregator::Aggregates;
use crate::config::BspConfig;
use crate::cost::ClusterClock;
use crate::counters::WorkerCounters;
use crate::engine::{BspRunResult, HaltReason};
use crate::profile::{RunProfile, SuperstepProfile};
use crate::program::VertexProgram;
use crate::runtime::layout::ShardLayout;
use predict_graph::{CsrGraph, VertexId};

/// What the master collects from the workers during one superstep. Workers
/// call [`StepSink::report`] once each, in ascending worker order; that order
/// is what pins counter vectors and float aggregate sums bit for bit.
#[derive(Debug, Default)]
pub struct StepSink {
    counters: Vec<WorkerCounters>,
    aggregates: Aggregates,
    messages_sent: u64,
    some_vertex_active: bool,
}

impl StepSink {
    /// Records the next worker's superstep outcome: its Table 1 counters, its
    /// partial aggregates and whether all of its vertices voted to halt.
    pub fn report(&mut self, counters: &WorkerCounters, partial: &Aggregates, all_halted: bool) {
        self.counters.push(*counters);
        self.aggregates.merge(partial);
        self.messages_sent += counters.total_messages();
        self.some_vertex_active |= !all_halted;
    }
}

/// The workers of one run, as the master sees them.
pub trait Workers<P: VertexProgram> {
    /// Why a step can fail; [`std::convert::Infallible`] in memory.
    type Error;

    /// Runs superstep `superstep` on every worker — delivery of the previous
    /// superstep's messages, compute, routing — and reports each worker to
    /// `sink` in ascending worker order.
    fn step(
        &mut self,
        superstep: usize,
        previous_aggregates: &Aggregates,
        sink: &mut StepSink,
    ) -> Result<(), Self::Error>;

    /// Ends the run: one value vector per worker, in shard-slot order.
    fn finish(&mut self) -> Result<Vec<Vec<P::VertexValue>>, Self::Error>;
}

/// Runs `program` to completion over `workers`, which must hold `graph`
/// sharded by `layout`. An error from the workers stops the loop and is
/// returned unchanged.
pub fn run_master<P: VertexProgram, W: Workers<P>>(
    program: &P,
    graph: &CsrGraph,
    layout: &ShardLayout,
    config: &BspConfig,
    workers: &mut W,
) -> Result<BspRunResult<P::VertexValue>, W::Error> {
    let num_workers = layout.num_workers();
    let mut clock = ClusterClock::new(config.cost.clone());
    let setup_ms = clock.setup_time_ms();
    let read_ms = clock.read_time_ms(graph.num_edges(), num_workers);

    let no_aggregates = Aggregates::new();
    let mut supersteps: Vec<SuperstepProfile> = Vec::new();
    let mut halt_reason = HaltReason::MaxSupersteps;
    for superstep in 0..config.max_supersteps {
        let previous_aggregates = supersteps.last().map_or(&no_aggregates, |s| &s.aggregates);
        let mut sink = StepSink {
            counters: Vec::with_capacity(num_workers),
            ..StepSink::default()
        };
        workers.step(superstep, previous_aggregates, &mut sink)?;
        assert_eq!(sink.counters.len(), num_workers, "one report per worker");

        // Synchronization phase: the simulated clock charges the critical
        // path (slowest worker) plus fixed overhead and barrier.
        let (wall_time_ms, worker_times_ms) = clock.superstep_time_ms(&sink.counters);
        // Termination, in Giraph's priority order: the algorithm's global
        // convergence condition first, then the "all halted and silent"
        // default. Messages still in flight after a halt are never read.
        let halt = if program.master_halt(superstep, &sink.aggregates) {
            Some(HaltReason::MasterConverged)
        } else if sink.messages_sent == 0 && !sink.some_vertex_active {
            Some(HaltReason::AllVerticesHalted)
        } else {
            None
        };
        supersteps.push(SuperstepProfile {
            superstep,
            workers: sink.counters,
            worker_times_ms,
            wall_time_ms,
            aggregates: sink.aggregates,
        });
        if let Some(reason) = halt {
            halt_reason = reason;
            break;
        }
    }

    let n = graph.num_vertices();
    let write_ms = clock.write_time_ms(n, num_workers);

    // Scatter shard values back into a dense vertex-indexed vector. Shard
    // slots ascend with vertex id, so walking one cursor per shard moves
    // every value without cloning it.
    let mut cursors: Vec<_> = workers.finish()?.into_iter().map(Vec::into_iter).collect();
    let values = (0..n)
        .map(|v| {
            cursors[layout.owner_of(v as VertexId)]
                .next()
                .expect("every vertex has a shard value")
        })
        .collect();

    Ok(BspRunResult {
        values,
        profile: RunProfile {
            algorithm: program.name().to_string(),
            num_vertices: n,
            num_edges: graph.num_edges(),
            num_workers,
            setup_ms,
            read_ms,
            write_ms,
            supersteps,
            measured: None,
        },
        halt_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;
    use crate::program::{ComputeContext, InitContext};
    use predict_graph::generators::chain;

    /// Halts through the master once the merged `"stop"` aggregate is set.
    struct StopOnAggregate;

    impl VertexProgram for StopOnAggregate {
        type VertexValue = u32;
        type Message = u32;

        fn name(&self) -> &'static str {
            "scripted"
        }
        fn init_vertex(&self, v: VertexId, _ctx: &InitContext<'_>) -> u32 {
            v
        }
        fn compute(&self, _ctx: &mut ComputeContext<'_, u32, u32>, _messages: &[u32]) {}
        fn message_size_bytes(&self, _m: &u32) -> u64 {
            4
        }
        fn master_halt(&self, _superstep: usize, aggregates: &Aggregates) -> bool {
            aggregates.get_or("stop", 0.0) > 0.0
        }
    }

    /// One scripted worker report: `(messages sent, "stop" aggregate, halted)`.
    type Report = (u64, f64, bool);

    /// Two workers replaying a per-superstep script; the last line repeats.
    struct Scripted {
        script: Vec<Result<[Report; 2], &'static str>>,
        finish: Result<(), &'static str>,
        steps: usize,
        seen_previous: Vec<f64>,
    }

    impl Scripted {
        fn new(script: Vec<Result<[Report; 2], &'static str>>) -> Self {
            Self {
                script,
                finish: Ok(()),
                steps: 0,
                seen_previous: Vec::new(),
            }
        }
    }

    impl Workers<StopOnAggregate> for Scripted {
        type Error = &'static str;

        fn step(
            &mut self,
            superstep: usize,
            previous_aggregates: &Aggregates,
            sink: &mut StepSink,
        ) -> Result<(), &'static str> {
            assert_eq!(superstep, self.steps, "supersteps are sequential");
            self.steps += 1;
            self.seen_previous
                .push(previous_aggregates.get_or("stop", -1.0));
            let line = self.script[superstep.min(self.script.len() - 1)]?;
            for (messages, stop, halted) in line {
                let mut counters = WorkerCounters::new(2);
                counters.remote_messages = messages;
                let mut partial = Aggregates::new();
                partial.add("stop", stop);
                sink.report(&counters, &partial, halted);
            }
            Ok(())
        }

        fn finish(&mut self) -> Result<Vec<Vec<u32>>, &'static str> {
            // Modulo layout over four vertices: worker 0 owns {0, 2}.
            self.finish.map(|()| vec![vec![10, 12], vec![11, 13]])
        }
    }

    fn run(
        workers: &mut Scripted,
        max_supersteps: usize,
    ) -> Result<BspRunResult<u32>, &'static str> {
        let layout = ShardLayout::build(4, 2, PartitionStrategy::Modulo);
        let config = BspConfig::with_workers(2).with_max_supersteps(max_supersteps);
        run_master(&StopOnAggregate, &chain(4), &layout, &config, workers)
    }

    #[test]
    fn master_convergence_outranks_all_halted_in_the_same_superstep() {
        let busy = [(3, 0.0, false), (0, 0.0, true)];
        let both = [(0, 1.0, true), (0, 0.0, true)];
        let mut workers = Scripted::new(vec![Ok(busy), Ok(both)]);
        let result = run(&mut workers, 10).unwrap();
        assert_eq!(result.halt_reason, HaltReason::MasterConverged);
        assert_eq!(result.num_iterations(), 2);
        // Values are scattered through the layout's ownership.
        assert_eq!(result.values, vec![10, 11, 12, 13]);
        // Superstep 0 sees no aggregates; superstep 1 sees superstep 0's.
        assert_eq!(workers.seen_previous, vec![-1.0, 0.0]);
    }

    #[test]
    fn all_halted_needs_silence_and_every_worker() {
        let one_active = [(0, 0.0, true), (0, 0.0, false)];
        let in_flight = [(0, 0.0, true), (1, 0.0, true)];
        let quiet = [(0, 0.0, true), (0, 0.0, true)];
        let mut workers = Scripted::new(vec![Ok(one_active), Ok(in_flight), Ok(quiet)]);
        let result = run(&mut workers, 10).unwrap();
        assert_eq!(result.halt_reason, HaltReason::AllVerticesHalted);
        assert_eq!(result.num_iterations(), 3);
        assert_eq!(result.profile.supersteps[1].totals().remote_messages, 1);
    }

    #[test]
    fn the_superstep_cap_ends_a_run_that_never_halts() {
        let mut workers = Scripted::new(vec![Ok([(1, 0.0, false), (1, 0.0, false)])]);
        let result = run(&mut workers, 3).unwrap();
        assert_eq!(result.halt_reason, HaltReason::MaxSupersteps);
        assert_eq!(result.num_iterations(), 3);
        assert_eq!(workers.steps, 3);
    }

    #[test]
    fn equal_counters_yield_equal_simulated_times() {
        // Default costs are noisy: equal profiles mean the clock consumed
        // its noise stream in the same call order both times.
        let script = vec![
            Ok([(5, 0.0, false), (7, 0.0, false)]),
            Ok([(0, 0.0, true), (0, 0.0, true)]),
        ];
        let a = run(&mut Scripted::new(script.clone()), 10).unwrap();
        let b = run(&mut Scripted::new(script), 10).unwrap();
        assert_eq!(a.profile, b.profile);
        assert!(a.profile.setup_ms > 0.0 && a.profile.write_ms > 0.0);
    }

    #[test]
    fn a_worker_error_stops_the_loop_and_is_returned_unchanged() {
        let busy = [(1, 0.0, false), (1, 0.0, false)];
        let mut failing_step = Scripted::new(vec![Ok(busy), Err("worker 1 died")]);
        assert_eq!(run(&mut failing_step, 10).unwrap_err(), "worker 1 died");
        assert_eq!(failing_step.steps, 2, "no step after the failed one");

        let mut failing_finish = Scripted::new(vec![Ok([(0, 0.0, true), (0, 0.0, true)])]);
        failing_finish.finish = Err("values lost");
        assert_eq!(run(&mut failing_finish, 10).unwrap_err(), "values lost");
    }
}
