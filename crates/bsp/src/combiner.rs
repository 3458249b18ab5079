//! Message combiners.
//!
//! Giraph lets an algorithm install a *combiner* that merges messages destined
//! for the same vertex before they are delivered, trading computation for
//! memory and network volume. PREDIcT's feature counters are recorded at send
//! time — before combining — exactly as Giraph's counters are, so installing a
//! combiner changes delivery cost but not the profiled Table 1 features.
//!
//! The runtime combines **at delivery, by reference**: a program that returns
//! a combiner from [`VertexProgram::combiner`] gets one inbox slot per owned
//! vertex, and [`WorkerShard::deliver`] folds every arriving message straight
//! into its destination's slot. A message reaches delivery as a handle into
//! its sender's payload table, which holds each sent payload once; the first
//! arrival at a slot clones the payload, every later one is folded in from
//! the table by reference ([`MessageCombiner::combine`]). No per-vertex
//! message list is ever built, and the compute function sees at most one
//! message per superstep. PageRank ([`SumCombiner`]), connected components
//! and SSSP ([`MinCombiner`]) and top-k ranking (which merges rank lists) run
//! this way.
//!
//! The fold is **statically dispatched**: [`VertexProgram::combiner`]
//! returns a concrete type per program (`impl MessageCombiner`, not a trait
//! object), fetched once per delivery call, so `*acc += *msg` inlines into
//! the loop over arriving messages. A program without a combiner returns
//! `None` of the uninhabited [`NoCombiner`]; a program that is its own
//! combiner returns `Some(self)` through the blanket impl for references.
//!
//! The fold is a left fold in delivery order — source worker ascending, then
//! the order the source worker produced the messages in (source vertex
//! ascending, send order within a vertex): the slot of a vertex that received
//! `m1, m2, m3` holds `m1` folded with `m2`, then with `m3`. That is exactly
//! what a compute function folding its uncombined message list front to back
//! would have computed (`messages.iter().sum()`, `.min()`), which keeps runs
//! byte-identical across thread counts and transports even for
//! non-associative floating-point sums (point 6 of the
//! [determinism contract](crate::runtime)).
//!
//! [`VertexProgram::combiner`]: crate::program::VertexProgram::combiner
//! [`WorkerShard::deliver`]: crate::runtime::WorkerShard::deliver

/// Folds messages bound for the same destination vertex into one.
pub trait MessageCombiner<M>: Sync {
    /// Folds `msg` into `acc`, which holds the fold of every earlier
    /// message to the same vertex, so that `acc` becomes a single equivalent
    /// message.
    fn combine(&self, acc: &mut M, msg: &M);
}

/// A reference to a combiner combines like the combiner itself — how a
/// program that is its own combiner hands out `Some(self)`.
impl<M, C: MessageCombiner<M> + ?Sized> MessageCombiner<M> for &C {
    #[inline]
    fn combine(&self, acc: &mut M, msg: &M) {
        (**self).combine(acc, msg);
    }
}

/// The combiner type of a program that declares none — the default
/// [`VertexProgram::combiner`](crate::program::VertexProgram::combiner)
/// returns `None::<NoCombiner>`. Uninhabited: no value exists, so no message
/// is ever folded through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoCombiner {}

impl<M> MessageCombiner<M> for NoCombiner {
    fn combine(&self, _acc: &mut M, _msg: &M) {
        match *self {}
    }
}

/// Combiner that sums `f64` messages — correct for PageRank-style rank
/// transfer where the receiving vertex only needs the sum of contributions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumCombiner;

impl MessageCombiner<f64> for SumCombiner {
    #[inline]
    fn combine(&self, acc: &mut f64, msg: &f64) {
        *acc += *msg;
    }
}

/// Combiner that keeps the minimum of two messages — correct for connected
/// components style label propagation and for SSSP distance relaxation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinCombiner;

impl MessageCombiner<f64> for MinCombiner {
    #[inline]
    fn combine(&self, acc: &mut f64, msg: &f64) {
        *acc = acc.min(*msg);
    }
}

impl MessageCombiner<u32> for MinCombiner {
    #[inline]
    fn combine(&self, acc: &mut u32, msg: &u32) {
        *acc = (*acc).min(*msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `acc` with `msgs` folded in, front to back.
    fn fold<M: Copy>(combiner: &impl MessageCombiner<M>, mut acc: M, msgs: &[M]) -> M {
        msgs.iter().for_each(|m| combiner.combine(&mut acc, m));
        acc
    }

    #[test]
    fn sum_combiner_sums() {
        assert_eq!(fold(&SumCombiner, 1.5, &[2.5]), 4.0);
        // The same IEEE operation, in the same order, as a front-to-back sum.
        let msgs = [0.1, 0.2, 0.3, 1e16, -1e16];
        let sum = msgs[1..].iter().fold(msgs[0], |a, b| a + b);
        assert_eq!(
            fold(&SumCombiner, msgs[0], &msgs[1..]).to_bits(),
            sum.to_bits()
        );
    }

    #[test]
    fn a_reference_combines_like_its_referent() {
        assert_eq!(fold(&&SumCombiner, 1.0, &[2.0, 3.0]), 6.0);
        assert_eq!(fold(&&MinCombiner, 5u32, &[9, 2]), 2);
    }

    #[test]
    fn min_combiner_keeps_minimum() {
        assert_eq!(fold(&MinCombiner, 3.0_f64, &[1.0, 2.0]), 1.0);
        assert_eq!(fold(&MinCombiner, 7u32, &[9, 8]), 7);
    }
}
