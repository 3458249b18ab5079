//! Table 2: dataset characteristics.
//!
//! Prints the characteristics of the four synthetic dataset analogs next to
//! the numbers the paper reports for the real graphs, plus the structural
//! properties (scale-freeness, effective diameter) that drive the rest of the
//! evaluation.

use predict_bench::{experiment_scale, ResultTable};
use predict_graph::datasets::table2_summary;

pub fn run() -> std::io::Result<()> {
    let scale = experiment_scale();
    let rows = table2_summary(scale);

    let mut table = ResultTable::new(
        "Table 2: graph datasets (synthetic analogs vs. paper originals)",
        &[
            "Name",
            "Prefix",
            "Nodes",
            "Edges",
            "Size [MB]",
            "Paper nodes",
            "Paper edges",
            "Paper size [GB]",
            "Scale-free?",
            "Eff. diameter",
            "Power-law alpha",
        ],
    );
    for row in &rows {
        table.push_row(vec![
            row.dataset.name().to_string(),
            row.prefix.to_string(),
            row.num_vertices.to_string(),
            row.num_edges.to_string(),
            format!("{:.1}", row.size_bytes as f64 / 1_048_576.0),
            row.paper_nodes.to_string(),
            row.paper_edges.to_string(),
            format!("{:.1}", row.paper_size_gb),
            if row.properties.looks_scale_free() {
                "yes"
            } else {
                "no"
            }
            .to_string(),
            format!("{:.1}", row.properties.effective_diameter),
            format!("{:.2}", row.properties.power_law_alpha),
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
                "paper_nodes": r.paper_nodes,
                "paper_edges": r.paper_edges,
                "scale_free": r.properties.looks_scale_free(),
                "effective_diameter": r.properties.effective_diameter,
            })
        })
        .collect();
    table.emit("table2_datasets", &points)
}
