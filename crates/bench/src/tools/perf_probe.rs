//! Perf probe: the store tier against the work it saves.
//!
//! The artifact store exists to be cheaper than the work it saves, so reading
//! a stored sample back must not cost more than drawing it again. This probe
//! draws the benchmark's largest default-scale sample (the UK analog, BRJ at
//! ratio 0.1), stores it, reads it back, and exits 1 when the median read is
//! slower than the median redraw. Both sides are measured in the same run on
//! the same machine, so the gate needs no checked-in baseline.
//!
//! ```text
//! predict_bench perf_probe
//! ```
//!
//! Every other hot path is measured, layer by layer, by the repository
//! benchmark (`benchmark/`), which is the one source of performance claims.

use predict_core::{ArtifactKind, ArtifactStore, SampleArtifact};
use predict_graph::datasets::{Dataset, DatasetScale};
use predict_sampling::BiasedRandomJump;
use std::hint::black_box;
use std::time::Instant;

/// Seed of the pinned sample.
const PROBE_SEED: u64 = 0xBE;

/// Timed repeats per side; the gate compares their medians.
const REPEATS: usize = 9;

/// Times `f` [`REPEATS`] times and returns the median in nanoseconds.
fn median_ns<T>(mut f: impl FnMut() -> T) -> u64 {
    let mut samples: Vec<u64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times the redraw and the stored read of the pinned sample and fails the
/// process when the read is the slower of the two.
pub fn run(_args: &[String]) {
    let dir = std::env::temp_dir().join(format!("predict_perf_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("open probe store");
    let uk = predict_bench::load_dataset(Dataset::Uk2002, DatasetScale::Default);
    let draw = || {
        SampleArtifact::draw(&BiasedRandomJump::default(), &uk, 0.1, PROBE_SEED)
            .expect("UK sample draws")
    };
    let draw_ns = median_ns(draw);
    store
        .put(ArtifactKind::Sample, "probe_uk", 1, &draw())
        .expect("probe put succeeds");
    let stored_bytes = std::fs::metadata(store.artifact_path(ArtifactKind::Sample, "probe_uk"))
        .map_or(0, |m| m.len());
    let get_ns = median_ns(|| {
        store
            .get_typed::<SampleArtifact>(ArtifactKind::Sample, "probe_uk", 1)
            .expect("probe get hits")
    });
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!(
        "[probe] uk_default_brj_0.1: sample_draw_uk {draw_ns} ns, store_get_sample_uk \
         {get_ns} ns ({stored_bytes} bytes on disk), median of {REPEATS}"
    );
    if get_ns > draw_ns {
        eprintln!("[gate] reading the stored sample is slower than redrawing it");
        std::process::exit(1);
    }
    eprintln!("[gate] reading the stored sample beats redrawing it; OK");
}
