//! The six workloads: what each one sends, and how its request lists are
//! made from `--seed`.
//!
//! A workload's unit of work is the *round*: a fixed list of requests (one
//! per class and round seed) in seed-shuffled order. The measured phase runs
//! whole rounds until `--seconds` is used up, so both sides of a comparison
//! always measure the same request mix.

use crate::sut::{Class, DatasetId, Graph, Request, Scale, Transport};

/// How a workload uses the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One long-lived memory-only service; every request of every round is
    /// unique, so every request is cold.
    ColdShared,
    /// One long-lived service primed with the request list; the measured
    /// phase resubmits the primed requests.
    Warm,
    /// Every round gets a fresh service on a fresh, empty store directory.
    StoreWrite,
    /// Set-up populates one store; every round is a restart (new service and
    /// engine) replaying the populated requests.
    StoreRestart,
    /// Every round gets a fresh memory-only service and `evaluate`s each
    /// request (cold `submit`, then the actual run).
    Evaluate,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub scale: Scale,
    pub workers: usize,
    pub transport: Transport,
    /// The request classes of one round.
    pub classes: Vec<(DatasetId, Class)>,
    /// Requests per class in one round.
    pub seeds_per_round: usize,
    /// Percentile `latency_tail_ms` reports: the highest with at least ten
    /// samples beyond it at this workload's request count, and none for
    /// microsecond requests (50 repeats the median).
    pub tail_percentile: f64,
}

const ALL_DATASETS: [DatasetId; 4] = [DatasetId::Lj, DatasetId::Wiki, DatasetId::Tw, DatasetId::Uk];

fn cross(datasets: &[DatasetId], classes: &[Class]) -> Vec<(DatasetId, Class)> {
    datasets
        .iter()
        .flat_map(|d| classes.iter().map(move |c| (*d, *c)))
        .collect()
}

/// {LJ,Wiki,TW,UK}×{PR,TOPK,CC} + LJ×SEMI. SEMI is on LJ only: on the R-MAT
/// analogs its sample run takes 0.4–1.3 s and would drown the mix.
fn cold_mix() -> Vec<(DatasetId, Class)> {
    let mut classes = cross(&ALL_DATASETS, &[Class::Pr, Class::TopK, Class::Cc]);
    classes.push((DatasetId::Lj, Class::Semi));
    classes
}

/// Cheap-compute classes on purpose, so serialize + compress + publish is a
/// large share of the request and a `put` regression cannot hide behind
/// sample runs. LJ×TOPK makes the class count odd: the median then falls
/// inside one class instead of between two.
fn store_mix() -> Vec<(DatasetId, Class)> {
    let mut classes = cross(
        &[DatasetId::Lj, DatasetId::Wiki, DatasetId::Uk],
        &[Class::Pr, Class::Cc],
    );
    classes.push((DatasetId::Lj, Class::TopK));
    classes
}

/// {LJ,Wiki,UK}×{PR,CC} + {Wiki,UK}×TOPK + TW×PR at `Large` scale: nine
/// requests, ~2.5 s a round, so four rounds fit the run and the reported
/// medians have something to be medians of. TW×PR keeps one graph beyond
/// the last-level cache in the mix; TW×CC and LJ×TOPK (1.4 s and 0.7 s
/// each) would cut the run to two rounds.
fn evaluate_mix() -> Vec<(DatasetId, Class)> {
    let mut classes = cross(
        &[DatasetId::Lj, DatasetId::Wiki, DatasetId::Uk],
        &[Class::Pr, Class::Cc],
    );
    classes.extend(cross(&[DatasetId::Wiki, DatasetId::Uk], &[Class::TopK]));
    classes.push((DatasetId::Tw, Class::Pr));
    classes
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "cold_inmem",
            kind: Kind::ColdShared,
            scale: Scale::Default,
            workers: 8,
            transport: Transport::InMemory,
            classes: cold_mix(),
            seeds_per_round: 1,
            tail_percentile: 95.0,
        },
        Workload {
            name: "warm_memory",
            kind: Kind::Warm,
            scale: Scale::Default,
            workers: 8,
            transport: Transport::InMemory,
            classes: cold_mix(),
            seeds_per_round: 4,
            tail_percentile: 50.0,
        },
        Workload {
            name: "store_write_through",
            kind: Kind::StoreWrite,
            scale: Scale::Default,
            workers: 8,
            transport: Transport::InMemory,
            classes: store_mix(),
            seeds_per_round: 12,
            tail_percentile: 95.0,
        },
        Workload {
            name: "store_restart",
            kind: Kind::StoreRestart,
            scale: Scale::Default,
            workers: 8,
            transport: Transport::InMemory,
            classes: store_mix(),
            seeds_per_round: 12,
            tail_percentile: 95.0,
        },
        Workload {
            name: "cold_socket",
            kind: Kind::ColdShared,
            scale: Scale::Default,
            // Worker processes must not outnumber cores.
            workers: 2,
            transport: Transport::Socket,
            classes: cold_mix(),
            seeds_per_round: 1,
            tail_percentile: 90.0,
        },
        Workload {
            name: "evaluate_large",
            kind: Kind::Evaluate,
            scale: Scale::Large,
            workers: 8,
            transport: Transport::InMemory,
            classes: evaluate_mix(),
            seeds_per_round: 1,
            tail_percentile: 50.0,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The datasets the workload needs, each once, in first-use order.
    pub fn datasets(&self) -> Vec<DatasetId> {
        let mut out: Vec<DatasetId> = Vec::new();
        for (d, _) in &self.classes {
            if !out.contains(d) {
                out.push(*d);
            }
        }
        out
    }

    pub fn requests_per_round(&self) -> usize {
        self.classes.len() * self.seeds_per_round
    }

    /// The request list of round `round` under `--seed seed`:
    /// `seeds_per_round` requests per class, in shuffled order. Predictor
    /// seeds are unique across requests and rounds, so nothing is reused.
    pub fn round(&self, graphs: &[Graph], seed: u64, round: u64) -> Vec<Request> {
        let per_round = self.requests_per_round() as u64;
        let first = SEED_BASE
            .wrapping_add(seed.wrapping_mul(SEED_STRIDE))
            .wrapping_add(round * per_round);
        let mut requests = Vec::with_capacity(per_round as usize);
        for k in 0..self.seeds_per_round {
            for (i, (dataset, class)) in self.classes.iter().enumerate() {
                let graph = graphs
                    .iter()
                    .find(|g| g.dataset == *dataset)
                    .expect("set-up generates every dataset the classes name");
                // A predictor seed of its own per request: no two requests
                // share even a sample, so each one is cold end to end.
                let offset = (k * self.classes.len() + i) as u64;
                requests.push(Request::new(graph, *class, first + offset));
            }
        }
        shuffle(&mut requests, seed, round);
        requests
    }
}

/// Predictor seeds start here; `--seed n` moves them by `n × SEED_STRIDE`,
/// far more than any run's round count, so two seeds never share artifacts.
const SEED_BASE: u64 = 0xbe7c_0000;
const SEED_STRIDE: u64 = 1_000_003;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle keyed by `(seed, salt)`.
pub fn shuffle<T>(items: &mut [T], seed: u64, salt: u64) {
    let mut state = seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f) ^ 0x5851_f42d_4c95_7f2d;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny stand-in graphs are enough: request lists depend on labels and
    /// seeds only. `Default`-scale LJ generates in ~3 ms.
    fn lists(seed: u64, round: u64) -> Vec<(String, u64)> {
        let workload = Workload {
            classes: cross(
                &[DatasetId::Lj],
                &[Class::Pr, Class::TopK, Class::Cc, Class::Semi],
            ),
            seeds_per_round: 3,
            ..by_name("cold_inmem").unwrap()
        };
        let graphs = vec![Graph::generate(DatasetId::Lj, Scale::Default)];
        workload
            .round(&graphs, seed, round)
            .iter()
            .map(|r| (r.class_label(), r.seed()))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_request_list() {
        assert_eq!(lists(7, 0), lists(7, 0));
        assert_eq!(lists(7, 5), lists(7, 5));
    }

    #[test]
    fn seed_and_round_change_order_and_predictor_seeds() {
        let (a, b, c) = (lists(7, 0), lists(8, 0), lists(7, 1));
        assert_eq!(a.len(), 12);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Rounds of one seed, and rounds of different seeds, share no
        // (class, predictor seed) pair: every request stays cold.
        assert!(a.iter().all(|r| !b.contains(r) && !c.contains(r)));
        // A round covers every class with every round seed exactly once.
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
    }

    #[test]
    fn workload_shapes_match_their_descriptions() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "cold_inmem",
                "warm_memory",
                "store_write_through",
                "store_restart",
                "cold_socket",
                "evaluate_large"
            ]
        );
        assert_eq!(by_name("cold_inmem").unwrap().requests_per_round(), 13);
        assert_eq!(by_name("warm_memory").unwrap().requests_per_round(), 52);
        assert_eq!(by_name("evaluate_large").unwrap().requests_per_round(), 9);
        // An odd class count keeps the median inside one class.
        assert_eq!(by_name("store_restart").unwrap().classes.len() % 2, 1);
        assert!(by_name("cold_socket").unwrap().workers <= 2);
    }
}
