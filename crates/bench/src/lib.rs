//! Benchmark harness crate: the `experiments` binary, the Criterion
//! benches, and the [`parallel_map`] worker pool both spread their
//! independent sweep points over.

mod pool;

pub use pool::parallel_map;
