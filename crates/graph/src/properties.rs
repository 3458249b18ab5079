//! Graph property analysis.
//!
//! The paper's sampling requirements (section 3.2.1 and 4.1) are stated in
//! terms of graph properties: in/out degree proportionality, effective
//! diameter, clustering coefficient and connectivity. This module computes
//! those properties so the samplers can be validated against them, and so the
//! dataset presets can report the Table 2 style characteristics.
//!
//! Exact computation of diameter and clustering coefficient is quadratic or
//! worse, so both are estimated from a deterministic sample of source
//! vertices: the estimates are reproducible for a fixed seed and accurate
//! enough for comparing a sample graph against its parent graph.

use crate::csr::CsrGraph;
use crate::types::VertexId;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use std::collections::HashSet;
use std::collections::VecDeque;

/// Number of BFS sources used when estimating the effective diameter.
const DIAMETER_SOURCES: usize = 64;
/// Number of vertices used when estimating the clustering coefficient.
const CLUSTERING_SAMPLES: usize = 512;

/// Summary of the structural properties of a graph.
///
/// Produced by [`GraphProperties::analyze`]; all estimated quantities are
/// deterministic for a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProperties {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Average out-degree.
    pub avg_out_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Ratio of the average in-degree to the average out-degree of vertices
    /// that have at least one edge in the respective direction. The paper's
    /// samplers aim to keep this ratio similar between sample and graph.
    pub in_out_degree_ratio: f64,
    /// Estimated 90th-percentile shortest-path distance between connected
    /// pairs ("effective diameter", following Kang et al. / Leskovec et al.).
    pub effective_diameter: f64,
    /// Estimated average local clustering coefficient (over sampled vertices,
    /// treating edges as undirected).
    pub avg_clustering_coefficient: f64,
    /// Number of weakly connected components.
    pub num_weakly_connected_components: usize,
    /// Fraction of vertices inside the largest weakly connected component.
    pub largest_wcc_fraction: f64,
    /// Maximum-likelihood power-law exponent fitted to the out-degree tail.
    pub power_law_alpha: f64,
    /// Kolmogorov–Smirnov distance between the empirical out-degree CCDF and
    /// the fitted power law (smaller = better fit).
    pub power_law_ks: f64,
}

impl GraphProperties {
    /// Analyzes `graph`, using `seed` for the sampled estimators (effective
    /// diameter and clustering coefficient).
    pub fn analyze(graph: &CsrGraph, seed: u64) -> Self {
        let num_vertices = graph.num_vertices();
        let num_edges = graph.num_edges();
        let avg_out_degree = graph.avg_degree();

        let mut max_out_degree = 0usize;
        let mut max_in_degree = 0usize;
        let mut out_nonzero = 0usize;
        let mut in_nonzero = 0usize;
        for v in graph.vertices() {
            let od = graph.out_degree(v);
            let id = graph.in_degree(v);
            max_out_degree = max_out_degree.max(od);
            max_in_degree = max_in_degree.max(id);
            if od > 0 {
                out_nonzero += 1;
            }
            if id > 0 {
                in_nonzero += 1;
            }
        }
        let in_out_degree_ratio = if num_edges == 0 || out_nonzero == 0 || in_nonzero == 0 {
            1.0
        } else {
            (num_edges as f64 / in_nonzero as f64) / (num_edges as f64 / out_nonzero as f64)
        };

        let wcc = weakly_connected_components(graph);
        let (num_wcc, largest_wcc) = wcc_summary(&wcc, num_vertices);

        let effective_diameter = estimate_effective_diameter(graph, DIAMETER_SOURCES, seed);
        let avg_clustering_coefficient =
            estimate_clustering_coefficient(graph, CLUSTERING_SAMPLES, seed);

        let degrees: Vec<usize> = graph.vertices().map(|v| graph.out_degree(v)).collect();
        let (power_law_alpha, power_law_ks) = fit_power_law(&degrees, 2);

        Self {
            num_vertices,
            num_edges,
            avg_out_degree,
            max_out_degree,
            max_in_degree,
            in_out_degree_ratio,
            effective_diameter,
            avg_clustering_coefficient,
            num_weakly_connected_components: num_wcc,
            largest_wcc_fraction: largest_wcc,
            power_law_alpha,
            power_law_ks,
        }
    }

    /// Heuristic check for a scale-free out-degree distribution: a plausible
    /// exponent and a reasonable power-law fit. Mirrors the paper's
    /// distinction between its scale-free graphs and LiveJournal.
    pub fn looks_scale_free(&self) -> bool {
        self.power_law_alpha > 1.2
            && self.power_law_alpha < 4.5
            && self.power_law_ks < 0.2
            && self.max_out_degree as f64 > self.avg_out_degree * 10.0
    }
}

/// Histogram of out-degrees: `histogram[d]` is the number of vertices with
/// out-degree exactly `d`.
pub fn out_degree_histogram(graph: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; 1];
    for v in graph.vertices() {
        let d = graph.out_degree(v);
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Histogram of in-degrees: `histogram[d]` is the number of vertices with
/// in-degree exactly `d`.
pub fn in_degree_histogram(graph: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; 1];
    for v in graph.vertices() {
        let d = graph.in_degree(v);
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// BFS distances from `source` over the *undirected* view of the graph
/// (out- and in-neighbors). Unreachable vertices get `usize::MAX`.
pub fn bfs_distances_undirected(graph: &CsrGraph, source: VertexId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; graph.num_vertices()];
    if graph.num_vertices() == 0 {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        for &n in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
            if dist[n as usize] == usize::MAX {
                dist[n as usize] = d + 1;
                queue.push_back(n);
            }
        }
    }
    dist
}

/// Labels each vertex with the id of its weakly connected component
/// (components are numbered densely starting at 0 in discovery order).
pub fn weakly_connected_components(graph: &CsrGraph) -> Vec<usize> {
    let n = graph.num_vertices();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        queue.push_back(start as VertexId);
        while let Some(v) = queue.pop_front() {
            for &nb in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
                if label[nb as usize] == usize::MAX {
                    label[nb as usize] = next;
                    queue.push_back(nb);
                }
            }
        }
        next += 1;
    }
    label
}

fn wcc_summary(labels: &[usize], num_vertices: usize) -> (usize, f64) {
    if num_vertices == 0 {
        return (0, 0.0);
    }
    let num_components = labels.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let mut sizes = vec![0usize; num_components];
    for &l in labels {
        sizes[l] += 1;
    }
    let largest = sizes.iter().copied().max().unwrap_or(0);
    (num_components, largest as f64 / num_vertices as f64)
}

/// Estimates the effective diameter (90th percentile of pairwise distances
/// over connected pairs) by running BFS from `num_sources` vertices sampled
/// deterministically with `seed`.
pub fn estimate_effective_diameter(graph: &CsrGraph, num_sources: usize, seed: u64) -> f64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sources: Vec<VertexId> = graph.vertices().collect();
    sources.shuffle(&mut rng);
    sources.truncate(num_sources.max(1).min(n));

    let mut distances: Vec<usize> = Vec::new();
    for &s in &sources {
        for d in bfs_distances_undirected(graph, s) {
            if d != usize::MAX && d > 0 {
                distances.push(d);
            }
        }
    }
    if distances.is_empty() {
        return 0.0;
    }
    distances.sort_unstable();
    let idx = ((distances.len() as f64) * 0.9).ceil() as usize;
    distances[idx.min(distances.len()) - 1] as f64
}

/// Estimates the average local clustering coefficient over up to
/// `num_samples` vertices sampled deterministically with `seed`. Edges are
/// treated as undirected.
pub fn estimate_clustering_coefficient(graph: &CsrGraph, num_samples: usize, seed: u64) -> f64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let mut vertices: Vec<VertexId> = graph.vertices().collect();
    vertices.shuffle(&mut rng);
    vertices.truncate(num_samples.max(1).min(n));

    let mut total = 0.0f64;
    let mut counted = 0usize;
    for &v in &vertices {
        let mut nbrs: HashSet<VertexId> = HashSet::new();
        nbrs.extend(graph.out_neighbors(v).iter().copied());
        nbrs.extend(graph.in_neighbors(v).iter().copied());
        nbrs.remove(&v);
        let k = nbrs.len();
        if k < 2 {
            continue;
        }
        let mut links = 0usize;
        for &a in &nbrs {
            for &b in graph.out_neighbors(a) {
                if b != a && nbrs.contains(&b) {
                    links += 1;
                }
            }
        }
        // Each undirected neighbor-pair link is seen at most twice (once per
        // direction if both directions exist); normalize by ordered pairs.
        total += links as f64 / (k * (k - 1)) as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Fits a discrete power law `p(d) ~ d^-alpha` to the degrees `>= x_min` by
/// maximum likelihood (continuous approximation) and returns
/// `(alpha, ks_distance)` where `ks_distance` is the Kolmogorov–Smirnov
/// distance between the empirical tail CCDF and the fitted CCDF.
///
/// Returns `(0.0, 1.0)` when fewer than 10 degrees reach `x_min`.
pub fn fit_power_law(degrees: &[usize], x_min: usize) -> (f64, f64) {
    let x_min = x_min.max(1);
    let tail: Vec<f64> = degrees
        .iter()
        .filter(|&&d| d >= x_min)
        .map(|&d| d as f64)
        .collect();
    if tail.len() < 10 {
        return (0.0, 1.0);
    }
    let xm = x_min as f64;
    let log_sum: f64 = tail.iter().map(|&d| (d / xm).ln()).sum();
    if log_sum <= 0.0 {
        return (0.0, 1.0);
    }
    let alpha = 1.0 + tail.len() as f64 / log_sum;

    // KS distance between empirical CCDF and the fitted CCDF. Degrees are
    // integers, so a continuity correction of half a unit is applied to the
    // model CCDF: an observed degree `d` corresponds to the continuous mass
    // above `d - 0.5`.
    let mut sorted = tail.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len() as f64;
    let mut ks: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        // Degrees are integers so ties are common; the empirical CCDF
        // `P(X >= x)` is only well defined at the first element of each tie
        // group (the step function is flat across the group).
        if i > 0 && sorted[i - 1] == x {
            continue;
        }
        let empirical_ccdf = 1.0 - (i as f64) / n;
        let model_ccdf = ((x - 0.5).max(xm) / xm).powf(1.0 - alpha);
        ks = ks.max((empirical_ccdf - model_ccdf).abs());
    }
    (alpha, ks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        chain, complete, generate_erdos_renyi, generate_rmat, ErdosRenyiConfig, RmatConfig,
    };

    #[test]
    fn analyze_basic_counts() {
        let g = complete(10);
        let p = GraphProperties::analyze(&g, 1);
        assert_eq!(p.num_vertices, 10);
        assert_eq!(p.num_edges, 90);
        assert!((p.avg_out_degree - 9.0).abs() < 1e-9);
        assert_eq!(p.max_out_degree, 9);
        assert_eq!(p.max_in_degree, 9);
    }

    #[test]
    fn complete_graph_has_clustering_one_and_diameter_one() {
        let g = complete(12);
        let p = GraphProperties::analyze(&g, 2);
        assert!((p.avg_clustering_coefficient - 1.0).abs() < 1e-9);
        assert!((p.effective_diameter - 1.0).abs() < 1e-9);
        assert_eq!(p.num_weakly_connected_components, 1);
        assert!((p.largest_wcc_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chain_has_large_effective_diameter() {
        let g = chain(100);
        let p = GraphProperties::analyze(&g, 3);
        assert!(p.effective_diameter > 20.0);
        assert!(p.avg_clustering_coefficient < 1e-9);
    }

    #[test]
    fn disconnected_graph_reports_components() {
        // Two disjoint chains.
        let mut el = crate::edge_list::EdgeList::new();
        el.push(0, 1);
        el.push(1, 2);
        el.push(3, 4);
        let g = CsrGraph::from_edge_list(&el);
        let labels = weakly_connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        let p = GraphProperties::analyze(&g, 1);
        assert_eq!(p.num_weakly_connected_components, 2);
        assert!((p.largest_wcc_fraction - 0.6).abs() < 1e-9);
    }

    #[test]
    fn bfs_distances_follow_chain() {
        let g = chain(5);
        let d = bfs_distances_undirected(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        // Undirected view: BFS from the last vertex also reaches everything.
        let d_back = bfs_distances_undirected(&g, 4);
        assert_eq!(d_back, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn degree_histograms_sum_to_vertex_count() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        let oh = out_degree_histogram(&g);
        let ih = in_degree_histogram(&g);
        assert_eq!(oh.iter().sum::<usize>(), g.num_vertices());
        assert_eq!(ih.iter().sum::<usize>(), g.num_vertices());
        let edges_from_hist: usize = oh.iter().enumerate().map(|(d, c)| d * c).sum();
        assert_eq!(edges_from_hist, g.num_edges());
    }

    #[test]
    fn scale_free_graph_is_detected() {
        let rmat = generate_rmat(&RmatConfig::new(12, 8).with_seed(7));
        let p = GraphProperties::analyze(&rmat, 7);
        assert!(
            p.looks_scale_free(),
            "R-MAT should look scale free: alpha={}, ks={}",
            p.power_law_alpha,
            p.power_law_ks
        );
    }

    #[test]
    fn uniform_random_graph_is_not_scale_free() {
        let g = generate_erdos_renyi(&ErdosRenyiConfig::new(4000, 40_000).with_seed(5));
        let p = GraphProperties::analyze(&g, 5);
        assert!(
            !p.looks_scale_free(),
            "ER graph misclassified as scale free: alpha={}, ks={}",
            p.power_law_alpha,
            p.power_law_ks
        );
    }

    #[test]
    fn power_law_fit_recovers_exponent_on_synthetic_data() {
        // Sample degrees from a discrete power law with alpha = 2.5 using the
        // inverse-CDF of the continuous approximation.
        let alpha = 2.5f64;
        let x_min = 2.0f64;
        let mut degrees = Vec::new();
        let mut u = 0.0005f64;
        while u < 1.0 {
            let x = x_min * (1.0 - u).powf(-1.0 / (alpha - 1.0));
            degrees.push(x.round() as usize);
            u += 0.001;
        }
        let (fit, ks) = fit_power_law(&degrees, 2);
        assert!(
            (fit - alpha).abs() < 0.3,
            "fitted alpha {fit} too far from {alpha}"
        );
        assert!(ks < 0.1, "ks {ks} too large");
    }

    #[test]
    fn power_law_fit_degenerates_gracefully_on_tiny_input() {
        let (alpha, ks) = fit_power_law(&[1, 1, 1], 2);
        assert_eq!(alpha, 0.0);
        assert_eq!(ks, 1.0);
    }

    #[test]
    fn estimators_are_deterministic_for_fixed_seed() {
        let g = generate_rmat(&RmatConfig::new(9, 6).with_seed(3));
        let a = GraphProperties::analyze(&g, 11);
        let b = GraphProperties::analyze(&g, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = CsrGraph::from_edges(0, &[]);
        let p = GraphProperties::analyze(&g, 1);
        assert_eq!(p.num_vertices, 0);
        assert_eq!(p.effective_diameter, 0.0);
        assert_eq!(p.num_weakly_connected_components, 0);
    }
}
