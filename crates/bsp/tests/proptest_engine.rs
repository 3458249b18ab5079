//! Property-based tests for the BSP engine's counters and message locality on
//! arbitrary graphs, for a broadcast-and-count program whose result is known
//! in closed form (every vertex ends at its in-degree). Bit-equality with the
//! reference interpreter over the algorithm programs lives in `oracle.rs`.

use predict_bsp::{
    BspConfig, BspEngine, ClusterCostConfig, ComputeContext, InitContext, VertexProgram,
};
use predict_graph::{CsrGraph, EdgeList, VertexId};
use proptest::prelude::*;

/// A two-phase program: every vertex broadcasts its id in superstep 0 and the
/// receivers count messages in superstep 1. Exercises messaging, reactivation
/// and halting on arbitrary topologies.
struct CountIncoming;

impl VertexProgram for CountIncoming {
    type VertexValue = u64;
    type Message = u32;

    fn name(&self) -> &'static str {
        "count-incoming"
    }

    fn init_vertex(&self, _v: VertexId, _ctx: &InitContext<'_>) -> u64 {
        0
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, u64, u32>, messages: &[u32]) {
        if ctx.superstep == 0 {
            let id = ctx.vertex;
            ctx.send_to_all_neighbors(id);
        } else {
            *ctx.value += messages.len() as u64;
        }
        ctx.vote_to_halt();
    }

    fn message_size_bytes(&self, _m: &u32) -> u64 {
        4
    }
}

fn graph_strategy(max_vertices: u32, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..max_vertices, 0..max_vertices), 1..max_edges).prop_map(|pairs| {
        let mut el = EdgeList::new();
        for (s, d) in pairs {
            el.push(s, d);
        }
        CsrGraph::from_edge_list(&el)
    })
}

/// Case count for this suite: the local default, bounded by `PROPTEST_CASES`
/// when set (CI sets it so the property suites finish in seconds).
///
/// Kept at the call site (not only in the vendored proptest) because the real
/// registry `proptest` ignores `PROPTEST_CASES` once `with_cases` is used;
/// this keeps the CI bound working if the workspace swaps back to it.
fn suite_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .map_or(default_cases, |env| default_cases.min(env))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(32)))]

    /// Per-superstep counters are internally consistent: worker vertex counts
    /// partition the graph, active vertices never exceed owned vertices, and
    /// superstep 0 sends exactly one message per edge.
    #[test]
    fn counters_are_consistent(graph in graph_strategy(48, 200), workers in 1usize..7) {
        let engine = BspEngine::new(
            BspConfig::with_workers(workers).with_cost(ClusterCostConfig::noiseless()),
        );
        let result = engine.run(&graph, &CountIncoming);
        let first = &result.profile.supersteps[0];
        prop_assert_eq!(first.workers.len(), workers);

        let totals = first.totals();
        prop_assert_eq!(totals.total_vertices as usize, graph.num_vertices());
        prop_assert_eq!(totals.active_vertices as usize, graph.num_vertices());
        prop_assert_eq!(totals.total_messages() as usize, graph.num_edges());
        prop_assert_eq!(totals.total_message_bytes() as usize, graph.num_edges() * 4);
        for w in &first.workers {
            prop_assert!(w.active_vertices <= w.total_vertices);
        }

        // In superstep 1 every vertex's value equals its in-degree.
        for v in graph.vertices() {
            prop_assert_eq!(result.values[v as usize], graph.in_degree(v) as u64);
        }
    }

    /// Local plus remote messages always equals the total, and a single-worker
    /// run has no remote messages at all.
    #[test]
    fn message_locality_classification(graph in graph_strategy(40, 160), workers in 2usize..6) {
        let single = BspEngine::new(
            BspConfig::with_workers(1).with_cost(ClusterCostConfig::noiseless()),
        )
        .run(&graph, &CountIncoming);
        for s in &single.profile.supersteps {
            prop_assert_eq!(s.totals().remote_messages, 0);
        }

        let multi = BspEngine::new(
            BspConfig::with_workers(workers).with_cost(ClusterCostConfig::noiseless()),
        )
        .run(&graph, &CountIncoming);
        for s in &multi.profile.supersteps {
            let t = s.totals();
            prop_assert_eq!(t.local_messages + t.remote_messages, t.total_messages());
        }
        // Results do not depend on the worker count.
        prop_assert_eq!(single.values, multi.values);
    }
}
