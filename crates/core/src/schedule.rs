//! The scheduling language (Section 4.2 / Section 7).
//!
//! A [`Schedule`] holds fusion granularity (`Fuse{}` regions) and stream
//! parallelization. Per-expression dataflow orders live on the
//! [`crate::ir::Program`] (`set_dataflow`), and sparsity blocking on its
//! tensor declarations.

use crate::ir::IndexVar;
use std::ops::Range;

/// How expressions group into fusion regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionGranularity {
    /// Every expression compiles alone; all intermediates materialize.
    Unfused,
    /// Explicit `Fuse{}` regions: contiguous expression ranges.
    Regions(Vec<Range<usize>>),
    /// One region spanning the entire program.
    Full,
}

/// A complete schedule for compiling one program.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Fusion granularity.
    pub fusion: FusionGranularity,
    /// Stream parallelization: `(index, factor)` pairs applied outermost
    /// first; indices are the program-level variables.
    pub parallelize: Vec<(IndexVar, usize)>,
}

impl Schedule {
    /// Fully unfused schedule.
    pub fn unfused() -> Self {
        Schedule { fusion: FusionGranularity::Unfused, parallelize: Vec::new() }
    }

    /// Fully fused schedule.
    pub fn full() -> Self {
        Schedule { fusion: FusionGranularity::Full, parallelize: Vec::new() }
    }

    /// Explicit `Fuse{}` regions over expression indices. A compile refuses
    /// an empty region and regions that overlap or are out of order.
    pub fn regions(regions: Vec<Range<usize>>) -> Self {
        Schedule { fusion: FusionGranularity::Regions(regions), parallelize: Vec::new() }
    }

    /// Adds stream parallelization at `index` with the given factor. The
    /// lowering decides it: factor 1 is a no-op, and factor 0 is refused.
    pub fn with_parallelization(mut self, index: IndexVar, factor: usize) -> Self {
        self.parallelize.push((index, factor));
        self
    }

    /// Resolves the concrete region list for a program of `n` expressions.
    pub fn resolve_regions(&self, n: usize) -> Vec<Range<usize>> {
        match &self.fusion {
            FusionGranularity::Unfused => (0..n).map(|i| i..i + 1).collect(),
            FusionGranularity::Full => {
                if n == 0 {
                    vec![]
                } else {
                    vec![0..n]
                }
            }
            FusionGranularity::Regions(rs) => {
                // Fill gaps between declared regions with singletons.
                let mut out = Vec::new();
                let mut next = 0;
                for r in rs {
                    while next < r.start {
                        out.push(next..next + 1);
                        next += 1;
                    }
                    out.push(r.clone());
                    next = r.end;
                }
                while next < n {
                    out.push(next..next + 1);
                    next += 1;
                }
                out
            }
        }
    }
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule::unfused()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfused_regions_are_singletons() {
        let s = Schedule::unfused();
        assert_eq!(s.resolve_regions(3), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn full_region_spans_everything() {
        let s = Schedule::full();
        assert_eq!(s.resolve_regions(4), vec![0..4]);
        assert!(Schedule::full().resolve_regions(0).is_empty());
    }

    #[test]
    fn partial_regions_fill_gaps() {
        let s = Schedule::regions(vec![1..3, 4..6]);
        assert_eq!(s.resolve_regions(7), vec![0..1, 1..3, 3..4, 4..6, 6..7]);
    }

    #[test]
    fn parallelization_is_recorded_as_given() {
        let s = (Schedule::full().with_parallelization(IndexVar(0), 1))
            .with_parallelization(IndexVar(1), 0)
            .with_parallelization(IndexVar(2), 4);
        assert_eq!(s.parallelize, vec![(IndexVar(0), 1), (IndexVar(1), 0), (IndexVar(2), 4)]);
    }
}
