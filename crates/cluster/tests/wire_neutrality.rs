//! The wire does not depend on how a worker holds its messages: the batch
//! sections of every `STEP_DONE` of pinned PageRank, connected-components,
//! top-k and semi-clustering drives over in-process serve loops hash to
//! pinned values. A change to the runtime's message plane — how payloads
//! are stored, routed or grouped before they are written — must leave
//! these bytes alone; only a deliberate format change (a `WIRE_VERSION`
//! bump) may move them.
//!
//! Each `STEP_DONE` is hashed past its `StepReport`, which carries measured
//! compute time; what is hashed is the section count and the sections.

mod recording;

use predict_algorithms::{
    ConnectedComponents, PageRank, PageRankParams, ProgramSpec, SemiClustering,
    SemiClusteringParams, TopKParams, TopKRanking,
};
use predict_bsp::{BspConfig, VertexProgram};
use predict_cluster::protocol::{tag, StepReport};
use predict_cluster::wire::Reader;
use predict_cluster::{TransportKind, Wire};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_graph::CsrGraph;

/// FNV-1a, 64 bits: stable across toolchains, no dependency.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Hash of every worker's `STEP_DONE` sections, worker by worker, superstep
/// by superstep, and the number of sections hashed.
fn sections_hash<P>(program: &P, spec: &ProgramSpec, ranks: &[f64], graph: &CsrGraph) -> (u64, u32)
where
    P: VertexProgram,
    P::VertexValue: Wire,
{
    let config = BspConfig::with_workers(3);
    let logs = recording::record(TransportKind::InProc, program, spec, ranks, graph, &config);
    let (mut hash, mut sections) = (0xCBF2_9CE4_8422_2325u64, 0u32);
    for log in &logs {
        let bodies = log
            .iter()
            .filter(|(sent, (t, _))| *sent && *t == tag::STEP_DONE);
        for (_, (_, body)) in bodies {
            let mut r = Reader::new(body);
            StepReport::decode(&mut r).expect("a step-done leads with its report");
            let rest = &body[body.len() - r.remaining()..];
            sections += u32::decode(&mut r).expect("a section count");
            hash = fnv1a(hash, rest);
        }
    }
    (hash, sections)
}

#[test]
fn step_done_sections_hash_to_their_pinned_values() {
    let graph = generate_rmat(&RmatConfig::new(8, 6).with_seed(29));
    let n = graph.num_vertices();

    let params = PageRankParams::with_epsilon(0.001, n);
    let spec = ProgramSpec::PageRank { params };
    let pagerank = sections_hash(&PageRank::new(params), &spec, &[], &graph);

    let spec = ProgramSpec::ConnectedComponents {};
    let components = sections_hash(&ConnectedComponents, &spec, &[], &graph);

    // Few distinct ranks, so equal-rank ties reach the vertex-id tie-break.
    let ranks: Vec<f64> = (0..n).map(|v| (v * 37 % 11) as f64 / 11.0).collect();
    let params = TopKParams::new(5, 0.0);
    let spec = ProgramSpec::TopK { params };
    let topk = sections_hash(
        &TopKRanking::new(params, ranks.clone()),
        &spec,
        &ranks,
        &graph,
    );

    let params = SemiClusteringParams::new(2, 2, 4, 0.1, 0.001);
    let spec = ProgramSpec::SemiClustering { params };
    let semi = sections_hash(&SemiClustering::new(params), &spec, &[], &graph);

    let measured = [pagerank, components, topk, semi];
    let pinned = [
        (0x3582_5934_514f_69b9, 108),
        (0xf6dd_add1_1e20_a719, 21),
        (0x67c5_06db_1f00_079c, 28),
        (0x5cca_e988_3db8_d81d, 30),
    ];
    assert_eq!(
        measured, pinned,
        "STEP_DONE section bytes moved: {measured:#x?}"
    );
}
