//! Message combiners.
//!
//! Giraph lets an algorithm install a *combiner* that merges messages destined
//! for the same vertex before they are delivered, trading computation for
//! memory and network volume. PREDIcT's feature counters are recorded at send
//! time — before combining — exactly as Giraph's counters are, so installing a
//! combiner changes delivery cost but not the profiled Table 1 features.
//!
//! The runtime combines **at delivery**: a program that returns a combiner
//! from [`VertexProgram::combiner`] gets one inbox slot per owned vertex, and
//! [`WorkerShard::deliver`] folds every arriving message straight into its
//! destination's slot, so no per-vertex message list is ever built and the
//! compute function sees at most one message per superstep. PageRank
//! ([`SumCombiner`]), connected components and SSSP ([`MinCombiner`]) run this
//! way.
//!
//! The fold is a left fold in delivery order — source worker ascending, then
//! the order the source worker produced the messages in (source vertex
//! ascending, send order within a vertex): the slot of a vertex that received
//! `m1, m2, m3` holds `combine(combine(m1, m2), m3)`. That is exactly what a
//! compute function folding its uncombined message list front to back would
//! have computed (`messages.iter().sum()`, `.min()`), which keeps runs
//! byte-identical across thread counts and transports even for
//! non-associative floating-point sums (point 6 of the
//! [determinism contract](crate::runtime)).
//!
//! [`VertexProgram::combiner`]: crate::program::VertexProgram::combiner
//! [`WorkerShard::deliver`]: crate::runtime::WorkerShard::deliver

/// Merges two messages bound for the same destination vertex into one.
pub trait MessageCombiner<M>: Sync {
    /// Combines `a` and `b` into a single equivalent message.
    fn combine(&self, a: M, b: M) -> M;
}

/// Combiner that sums `f64` messages — correct for PageRank-style rank
/// transfer where the receiving vertex only needs the sum of contributions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumCombiner;

impl MessageCombiner<f64> for SumCombiner {
    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Combiner that keeps the minimum of two messages — correct for connected
/// components style label propagation and for SSSP distance relaxation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinCombiner;

impl MessageCombiner<f64> for MinCombiner {
    fn combine(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }
}

impl MessageCombiner<u32> for MinCombiner {
    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_combiner_sums() {
        assert_eq!(SumCombiner.combine(1.5, 2.5), 4.0);
    }

    #[test]
    fn min_combiner_keeps_minimum() {
        assert_eq!(MinCombiner.combine(3.0_f64, 1.0), 1.0);
        assert_eq!(MinCombiner.combine(7u32, 9), 7);
    }
}
