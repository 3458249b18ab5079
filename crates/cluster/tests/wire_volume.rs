//! Steady-state wire volume does not grow with degree: a broadcast crosses
//! the wire as one group entry per destination worker, its destination
//! slots having crossed once per drive in the sender's `INIT_OK` tables.
//!
//! A PageRank drive over three in-process serve loops is recorded on an
//! R-MAT graph and on the same graph with every edge doubled. Every vertex
//! broadcasts every superstep and both drives run the same supersteps, so
//! Table 1's remote messages double while the sections of every `STEP_DONE`
//! from superstep 1 on keep their size: only the tables grow. A sender that
//! expanded a group into one destination per edge would double the sections
//! instead.

mod recording;

use predict_algorithms::{PageRank, PageRankParams, ProgramSpec};
use predict_bsp::BspConfig;
use predict_cluster::protocol::{tag, StepReport};
use predict_cluster::wire::Reader;
use predict_cluster::{TransportKind, Wire};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_graph::{CsrGraph, EdgeList};

const SUPERSTEPS: usize = 6;

/// What one recorded drive put on the wire, per worker.
struct Volume {
    /// `INIT_OK` body bytes: the worker's tables.
    init_ok: Vec<usize>,
    /// Per superstep: the `STEP_DONE` bytes behind the report, summed over
    /// workers.
    sections: Vec<usize>,
    /// Per superstep: Table 1 remote messages, summed over workers.
    remote_messages: Vec<u64>,
}

fn record(graph: &CsrGraph) -> Volume {
    // An epsilon of zero never converges: both drives run every superstep.
    let params = PageRankParams::with_epsilon(0.0, graph.num_vertices());
    let spec = ProgramSpec::PageRank { params };
    let config = BspConfig::with_workers(3).with_max_supersteps(SUPERSTEPS);
    let program = PageRank::new(params);
    let logs = recording::record(TransportKind::InProc, &program, &spec, &[], graph, &config);
    let mut volume = Volume {
        init_ok: Vec::new(),
        sections: vec![0; SUPERSTEPS],
        remote_messages: vec![0; SUPERSTEPS],
    };
    for log in &logs {
        let sent = |want: u8| {
            let frames = log.iter().filter(move |(sent, (t, _))| *sent && *t == want);
            frames.map(|(_, (_, body))| body)
        };
        let init_ok = sent(tag::INIT_OK).next().expect("an init-ok");
        volume.init_ok.push(init_ok.len());
        let steps = sent(tag::STEP_DONE).enumerate();
        for (superstep, body) in steps {
            let mut r = Reader::new(body);
            let report = StepReport::decode(&mut r).expect("a step-done leads with its report");
            volume.sections[superstep] += r.remaining();
            volume.remote_messages[superstep] += report.counters.remote_messages;
        }
    }
    volume
}

#[test]
fn steady_state_sections_do_not_grow_with_degree() {
    let graph = generate_rmat(&RmatConfig::new(9, 8).with_seed(41));
    let mut doubled = EdgeList::new();
    doubled.ensure_vertices(graph.num_vertices());
    for _ in 0..2 {
        for (src, dst, _) in graph.edges() {
            doubled.push(src, dst);
        }
    }
    let doubled = CsrGraph::from_edge_list(&doubled);
    assert_eq!(doubled.num_edges(), 2 * graph.num_edges());

    let (single, double) = (record(&graph), record(&doubled));
    assert!(single.remote_messages[0] > 0);
    let twice: Vec<u64> = single.remote_messages.iter().map(|m| 2 * m).collect();
    assert_eq!(double.remote_messages, twice, "Table 1 counts every edge");
    assert_eq!(
        double.sections[1..],
        single.sections[1..],
        "steady-state sections grew with degree"
    );
    for (w, (&one, &two)) in single.init_ok.iter().zip(&double.init_ok).enumerate() {
        assert!(
            two > one,
            "worker {w}'s tables hold every edge: {one} -> {two} bytes"
        );
    }
}
