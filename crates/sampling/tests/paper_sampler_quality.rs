//! Truth ratchet for step 1 of the method: the paper's samplers must
//! preserve the properties that drive an iterative algorithm's convergence.
//!
//! For every Table 2 analog at Small scale, each of BRJ, RJ and MHRW draws a
//! 10 % sample under seeds 7, 8 and 9, and [`SampleQualityReport`] measures
//! it against the full graph (whose properties are analyzed once per seed,
//! where `evaluate` would redo that for every sample). Every (analog,
//! sampler) cell asserts its own bounds, never a pooled one; a bound is the
//! worst measured value over the three seeds, rounded up to the next 0.05,
//! so a sampler or property-estimator change that loses quality fails here
//! even where the goldens are re-blessed. A later change that improves a
//! number tightens its bound.
//!
//! What does not reproduce: the paper picks BRJ for its lower KS
//! D-statistics against RJ and MHRW. Here BRJ's mean degree D-statistic is
//! the highest of the three on every scale-free analog (0.48–0.53, against
//! RJ 0.20–0.37 and MHRW 0.09–0.18), because restarting every walk at a hub
//! oversamples the dense core (the sample's average degree is 2.3–3.0x the
//! graph's). No test asserts the paper's ordering.

use predict_graph::datasets::{Dataset, DatasetConfig, DatasetScale};
use predict_graph::properties::GraphProperties;
use predict_sampling::{paper_samplers, SampleQualityReport};

/// The largest measured deviation of one (analog, sampler) cell.
struct Bounds {
    /// Bound on `|connectivity_ratio - 1|`.
    connectivity: f64,
    /// Bound on `|in_out_degree_ratio_ratio - 1|`.
    in_out_degree: f64,
    /// Bound on `|effective_diameter_ratio - 1|`.
    diameter: f64,
    /// Bound on the mean of the in- and out-degree D-statistics.
    dstat: f64,
}

const fn bounds(connectivity: f64, in_out_degree: f64, diameter: f64, dstat: f64) -> Bounds {
    Bounds {
        connectivity,
        in_out_degree,
        diameter,
        dstat,
    }
}

// paper: section 3.2.1 asks a sample to keep the graph's connectivity, its
// in/out degree proportionality and its effective diameter, i.e. each ratio
// below at 1.0. The LJ analog is deliberately not power-law; its 10 % samples
// keep 14–17 % of the graph's average degree, so every sampler's degree
// distribution is nearly disjoint from the graph's (D-statistic 0.98–1.0).
const LIVEJOURNAL: [(&str, Bounds); 3] = [
    ("BRJ", bounds(0.05, 0.05, 0.70, 1.00)),
    ("RJ", bounds(0.05, 0.05, 0.70, 1.00)),
    ("MHRW", bounds(0.05, 0.05, 0.70, 1.00)),
];

// paper: 1.0 for every ratio; BRJ has the lowest D-statistic. Measured: BRJ
// keeps one component (largest-WCC fraction 1.0 against the graph's 0.64,
// ratio 1.56) and the highest D-statistic.
const WIKIPEDIA: [(&str, Bounds); 3] = [
    ("BRJ", bounds(0.60, 0.30, 0.05, 0.55)),
    ("RJ", bounds(0.30, 0.30, 0.05, 0.30)),
    ("MHRW", bounds(0.25, 0.25, 0.05, 0.20)),
];

// paper: 1.0 for every ratio; BRJ has the lowest D-statistic. Measured: only
// BRJ shrinks the effective diameter (ratio 0.67).
const TWITTER: [(&str, Bounds); 3] = [
    ("BRJ", bounds(0.20, 0.25, 0.35, 0.55)),
    ("RJ", bounds(0.15, 0.20, 0.05, 0.40)),
    ("MHRW", bounds(0.10, 0.15, 0.05, 0.20)),
];

// paper: 1.0 for every ratio; BRJ has the lowest D-statistic.
const UK2002: [(&str, Bounds); 3] = [
    ("BRJ", bounds(0.45, 0.45, 0.35, 0.55)),
    ("RJ", bounds(0.20, 0.35, 0.05, 0.30)),
    ("MHRW", bounds(0.10, 0.25, 0.05, 0.15)),
];

const RATIO: f64 = 0.1;
const SEEDS: [u64; 3] = [7, 8, 9];

fn assert_within(dataset: Dataset, table: &[(&str, Bounds); 3]) {
    let graph = DatasetConfig::new(dataset, DatasetScale::Small).generate();
    for seed in SEEDS {
        let full = GraphProperties::analyze(&graph, seed);
        for sampler in paper_samplers() {
            let (_, bound) = table
                .iter()
                .find(|(name, _)| *name == sampler.name())
                .expect("every paper sampler has bounds");
            let sample = sampler.sample(&graph, RATIO, seed);
            let report =
                SampleQualityReport::evaluate_with_full_properties(&graph, &full, &sample, seed);
            let cell = format!("{} {} seed {seed}", dataset.prefix(), sampler.name());
            let measured = [
                (
                    "connectivity ratio",
                    report.connectivity_ratio,
                    1.0,
                    bound.connectivity,
                ),
                (
                    "in/out degree ratio",
                    report.in_out_degree_ratio_ratio,
                    1.0,
                    bound.in_out_degree,
                ),
                (
                    "effective diameter ratio",
                    report.effective_diameter_ratio,
                    1.0,
                    bound.diameter,
                ),
                (
                    "mean degree D-statistic",
                    report.dstat.mean_degree_dstat(),
                    0.0,
                    bound.dstat,
                ),
            ];
            for (what, value, target, bound) in measured {
                assert!(
                    (value - target).abs() <= bound,
                    "{cell}: {what} {value:.3} is more than {bound} from {target}"
                );
            }
        }
    }
}

#[test]
fn livejournal_samples_stay_within_measured_bounds() {
    assert_within(Dataset::LiveJournal, &LIVEJOURNAL);
}

#[test]
fn wikipedia_samples_stay_within_measured_bounds() {
    assert_within(Dataset::Wikipedia, &WIKIPEDIA);
}

#[test]
fn twitter_samples_stay_within_measured_bounds() {
    assert_within(Dataset::Twitter, &TWITTER);
}

#[test]
fn uk2002_samples_stay_within_measured_bounds() {
    assert_within(Dataset::Uk2002, &UK2002);
}
