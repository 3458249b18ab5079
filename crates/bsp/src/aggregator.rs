//! Global aggregators.
//!
//! The iterative algorithms the paper targets all use a *global* convergence
//! condition — an aggregate computed over the whole graph each superstep
//! (average PageRank delta, ratio of updated semi-clusters, ratio of active
//! vertices). In Giraph/Pregel, vertices contribute values to named
//! aggregators during a superstep; the master combines them and makes the
//! combined value available in the next superstep and to the termination
//! check. [`Aggregates`] implements the sum-aggregator flavour all paper
//! algorithms need, plus min/max variants for completeness.
//!
//! A vertex contributes through [`AggregateSlots`] instead: its worker's
//! short list of `(&'static str, f64)` slots, one per name the worker's
//! vertices touched this superstep, found by comparing the name's pointer
//! before its text. The worker folds its slots into its named partial
//! [`Aggregates`] once, at the end of its compute phase, so the per-vertex
//! path never walks the tree and names stay at the edges (profiles, the
//! wire).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How contributions to a named aggregator are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregatorKind {
    /// Contributions are summed (the common case: counts, delta sums).
    Sum,
    /// The minimum contribution is kept.
    Min,
    /// The maximum contribution is kept.
    Max,
}

/// A set of named global aggregators for a single superstep.
///
/// Keys are kept in a `BTreeMap` so iteration order — and therefore any
/// floating-point accumulation — is deterministic regardless of the order in
/// which workers report their partial aggregates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Aggregates {
    values: BTreeMap<String, (AggregatorKind, f64)>,
}

impl Aggregates {
    /// Creates an empty aggregate set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` to the sum-aggregator `name` (creating it if needed).
    pub fn add(&mut self, name: &str, value: f64) {
        self.combine(name, AggregatorKind::Sum, value);
    }

    /// Contributes `value` to the aggregator `name` with the given combine
    /// rule.
    ///
    /// # Panics
    ///
    /// Panics if the aggregator already exists with a different kind — mixing
    /// kinds under one name is always a programming error.
    pub fn combine(&mut self, name: &str, kind: AggregatorKind, value: f64) {
        match self.values.get_mut(name) {
            None => {
                self.values.insert(name.to_string(), (kind, value));
            }
            Some((existing_kind, acc)) => {
                assert_eq!(
                    *existing_kind, kind,
                    "aggregator '{name}' used with conflicting kinds"
                );
                match kind {
                    AggregatorKind::Sum => *acc += value,
                    AggregatorKind::Min => *acc = acc.min(value),
                    AggregatorKind::Max => *acc = acc.max(value),
                }
            }
        }
    }

    /// Value of aggregator `name`, or `default` if no vertex contributed.
    pub fn get_or(&self, name: &str, default: f64) -> f64 {
        self.values.get(name).map(|(_, v)| *v).unwrap_or(default)
    }

    /// Value of aggregator `name`, or `None` if no vertex contributed.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(_, v)| *v)
    }

    /// True when no aggregator received any contribution.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Merges another aggregate set into this one (used by the master to
    /// combine per-worker partial aggregates; merge order does not change the
    /// result for min/max and only reorders floating-point sums within one
    /// worker boundary, which the engine keeps deterministic by merging in
    /// worker-index order).
    pub fn merge(&mut self, other: &Aggregates) {
        for (name, (kind, value)) in &other.values {
            self.combine(name, *kind, *value);
        }
    }

    /// Iterates over `(name, value)` pairs in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, (_, v))| (k.as_str(), *v))
    }

    /// Iterates over `(name, kind, value)` triples in lexicographic name
    /// order — the full state of the set, enough to reconstruct it through
    /// [`Aggregates::combine`]. The cluster wire format serializes aggregate
    /// sets through this accessor (values as exact `f64` bits, no text
    /// round-trip).
    pub fn entries(&self) -> impl Iterator<Item = (&str, AggregatorKind, f64)> {
        self.values
            .iter()
            .map(|(k, (kind, v))| (k.as_str(), *kind, *v))
    }
}

/// One worker's sum-aggregator contributions of the superstep being
/// computed: a slot per name contributed to so far, in first-contribution
/// order.
///
/// A program uses one to three names, each a `const` or a literal, so a
/// slot is found by a linear scan comparing the name's pointer first and its
/// text only if no pointer matches; two equal names at different addresses
/// share one slot. A slot's first contribution is stored as is, later ones
/// are summed in contribution order — exactly what [`Aggregates::add`]
/// computes — and a name nobody contributed to has no slot at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateSlots {
    slots: Vec<(&'static str, f64)>,
}

impl AggregateSlots {
    /// No slots.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` to the slot of `name`, opening it with `value` if this
    /// is the name's first contribution.
    #[inline]
    pub fn add(&mut self, name: &'static str, value: f64) {
        let slots = &mut self.slots;
        let found = slots
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name))
            .or_else(|| slots.iter().position(|(n, _)| *n == name));
        match found {
            Some(i) => slots[i].1 += value,
            None => slots.push((name, value)),
        }
    }

    /// Moves the slots into `partial`, which then holds exactly one sum
    /// aggregator per slot, valued as the slot, and empties the slots
    /// (keeping their capacity). A name `partial` held that has no slot is
    /// removed; one that has keeps its entry, so a worker that contributes
    /// to the same names every superstep reuses its partial set without
    /// allocating.
    pub fn drain_into(&mut self, partial: &mut Aggregates) {
        let slots = &mut self.slots;
        partial
            .values
            .retain(|name, _| slots.iter().any(|(n, _)| *n == name));
        for (name, value) in slots.drain(..) {
            match partial.values.get_mut(name) {
                Some(entry) => *entry = (AggregatorKind::Sum, value),
                None => {
                    partial
                        .values
                        .insert(name.to_string(), (AggregatorKind::Sum, value));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sums_contributions() {
        let mut a = Aggregates::new();
        a.add("delta", 1.5);
        a.add("delta", 2.5);
        assert_eq!(a.get("delta"), Some(4.0));
        assert_eq!(a.get_or("missing", 7.0), 7.0);
    }

    #[test]
    fn min_and_max_aggregators() {
        let mut a = Aggregates::new();
        a.combine("lo", AggregatorKind::Min, 3.0);
        a.combine("lo", AggregatorKind::Min, -1.0);
        a.combine("hi", AggregatorKind::Max, 3.0);
        a.combine("hi", AggregatorKind::Max, 10.0);
        assert_eq!(a.get("lo"), Some(-1.0));
        assert_eq!(a.get("hi"), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "conflicting kinds")]
    fn conflicting_kinds_panic() {
        let mut a = Aggregates::new();
        a.combine("x", AggregatorKind::Sum, 1.0);
        a.combine("x", AggregatorKind::Max, 2.0);
    }

    #[test]
    fn merge_combines_partial_aggregates() {
        let mut w1 = Aggregates::new();
        w1.add("updates", 10.0);
        w1.combine("max_rank", AggregatorKind::Max, 0.3);
        let mut w2 = Aggregates::new();
        w2.add("updates", 5.0);
        w2.combine("max_rank", AggregatorKind::Max, 0.7);

        let mut master = Aggregates::new();
        master.merge(&w1);
        master.merge(&w2);
        assert_eq!(master.get("updates"), Some(15.0));
        assert_eq!(master.get("max_rank"), Some(0.7));
    }

    #[test]
    fn iteration_is_in_name_order() {
        let mut a = Aggregates::new();
        a.add("zeta", 1.0);
        a.add("alpha", 2.0);
        let names: Vec<_> = a.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    /// `slots` folded into a fresh aggregate set.
    fn folded(mut slots: AggregateSlots) -> Aggregates {
        let mut aggregates = Aggregates::new();
        slots.drain_into(&mut aggregates);
        aggregates
    }

    #[test]
    fn equal_names_at_different_addresses_share_a_slot() {
        const DELTA: &str = "delta";
        let leaked: &'static str = String::from("delta").leak();
        assert!(!std::ptr::eq(DELTA, leaked));
        let mut slots = AggregateSlots::new();
        slots.add(DELTA, 1.5);
        slots.add(leaked, 2.0);
        slots.add(DELTA, 0.5);
        let aggregates = folded(slots);
        assert_eq!(aggregates.iter().collect::<Vec<_>>(), [("delta", 4.0)]);
    }

    #[test]
    fn slots_fold_bit_for_bit_like_add() {
        let contributions = [
            ("sum", -0.0),
            ("zero", -0.0),
            ("sum", 0.1),
            ("sum", 0.2),
            ("sum", 1e16),
            ("sum", -1e16),
        ];
        let (mut slots, mut direct) = (AggregateSlots::new(), Aggregates::new());
        for (name, value) in contributions {
            slots.add(name, value);
            direct.add(name, value);
        }
        let aggregates = folded(slots);
        // A first contribution of -0.0 is stored as is, not as 0.0 + -0.0.
        assert_eq!(
            aggregates.get("zero").map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        let bits = |a: &Aggregates| {
            a.iter()
                .map(|(n, v)| (n.to_string(), v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&aggregates), bits(&direct));
    }

    #[test]
    fn drained_slots_replace_the_partial_set() {
        let mut slots = AggregateSlots::new();
        slots.add("a", 1.0);
        slots.add("b", 2.0);
        let mut partial = Aggregates::new();
        slots.drain_into(&mut partial);
        assert_eq!((partial.get("a"), partial.get("b")), (Some(1.0), Some(2.0)));
        // The next superstep touches only "b" and "c": "a" must be absent,
        // not 0.0, and "b" holds this superstep's sum alone.
        slots.add("c", -0.0);
        slots.add("b", 3.0);
        slots.drain_into(&mut partial);
        let entries: Vec<_> = partial.iter().map(|(n, v)| (n, v.to_bits())).collect();
        assert_eq!(
            entries,
            [("b", 3.0f64.to_bits()), ("c", (-0.0f64).to_bits())]
        );
        slots.drain_into(&mut partial);
        assert!(partial.is_empty(), "no contribution leaves nothing");
    }

    #[test]
    fn empty_reports_empty() {
        let a = Aggregates::new();
        assert!(a.is_empty());
        assert_eq!(a.get("anything"), None);
    }
}
