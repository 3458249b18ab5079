//! Table 2 extension: characteristics of the datasets beyond the paper.
//!
//! The paper's Table 2 covers four power-law-adjacent web/social graphs; this
//! experiment prints the same characteristics table for the extended analogs the
//! reproduction adds — the grid road network (huge diameter, no hubs), the
//! bipartite web graph (two-mode mixture distribution) and the
//! degree-corrected block model (communities plus heavy tails). Together with
//! `fig9_new_generators` it documents how far outside the paper's regime the
//! prediction pipeline is exercised.

use predict_bench::{experiment_scale, ResultTable};
use predict_graph::datasets::{dataset_summary, Dataset};

pub fn run() -> std::io::Result<()> {
    let scale = experiment_scale();
    let rows = dataset_summary(&Dataset::EXTENDED, scale);

    let mut table = ResultTable::new(
        "Table 2 (extended): datasets beyond the paper's regime",
        &[
            "Name",
            "Prefix",
            "Nodes",
            "Edges",
            "Size [MB]",
            "Avg degree",
            "Scale-free?",
            "Eff. diameter",
            "Power-law alpha",
            "Largest WCC",
        ],
    );
    for row in &rows {
        table.push_row(vec![
            row.dataset.name().to_string(),
            row.prefix.to_string(),
            row.num_vertices.to_string(),
            row.num_edges.to_string(),
            format!("{:.1}", row.size_bytes as f64 / 1_048_576.0),
            format!("{:.1}", row.num_edges as f64 / row.num_vertices as f64),
            if row.properties.looks_scale_free() {
                "yes"
            } else {
                "no"
            }
            .to_string(),
            format!("{:.1}", row.properties.effective_diameter),
            format!("{:.2}", row.properties.power_law_alpha),
            format!("{:.2}", row.properties.largest_wcc_fraction),
        ]);
    }

    let points: Vec<_> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "dataset": r.prefix,
                "nodes": r.num_vertices,
                "edges": r.num_edges,
                "size_bytes": r.size_bytes,
                "scale_free": r.properties.looks_scale_free(),
                "effective_diameter": r.properties.effective_diameter,
                "largest_wcc_fraction": r.properties.largest_wcc_fraction,
            })
        })
        .collect();
    table.emit("table2_new_datasets", &points)
}
