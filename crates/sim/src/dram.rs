//! Ramulator-lite: a bandwidth/latency DRAM model.
//!
//! The paper's Comal simulator embeds Ramulator 2.0 for HBM2 timing. For
//! this reproduction the evaluation only depends on DRAM as a
//! traffic-and-latency cost for tensors that materialize off-chip, so we
//! model a single HBM-like channel with:
//!
//! * a sustained **bandwidth** in bytes/cycle shared by all requesters,
//! * a **streaming latency** for sequential accesses (scanners, writers,
//!   which a real memory engine prefetches/coalesces), and
//! * a **random-access latency** for value gathers (row-buffer miss-ish).
//!
//! Requests are granted in arrival order; the model returns the cycle at
//! which the data is available. Substitution rationale: ARCHITECTURE.md,
//! "Substitutions".
//!
//! Channel occupancy is tracked in integer **millibytes served** rather
//! than a floating-point `busy_until` cycle: `busy_until: f64` accumulated
//! one rounding error per request, which drifts over the millions of
//! requests of a long simulation (and differs across bandwidths that are
//! not binary fractions, like `64.0 / 3`). With millibyte fixed-point every
//! request adds `bytes * 1000` exactly, and the only rounding anywhere is
//! the final ceiling division to a whole completion cycle — the same
//! ceiling the float model applied.

/// Access pattern class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    /// Sequential/prefetchable (pos/crd scans, result writes).
    Stream,
    /// Data-dependent gather (value array reads through references).
    Random,
}

/// The smallest bandwidth the model represents: one millibyte per cycle.
pub(crate) const MIN_BYTES_PER_CYCLE: f64 = 0.001;

/// A single-channel DRAM model.
#[derive(Debug, Clone)]
pub(crate) struct Dram {
    /// Sustained bandwidth in millibytes per cycle (fixed-point).
    millibytes_per_cycle: u64,
    stream_latency: u64,
    random_latency: u64,
    /// Channel occupancy frontier, in millibytes served since cycle 0.
    /// `u128`: `now * millibytes_per_cycle` overflows `u64` for the huge
    /// synthetic bandwidths the test harnesses use; [`request`](Self::request)
    /// computes in `u64` whenever it fits.
    busy_until_mb: u128,
    read_bytes: u64,
    write_bytes: u64,
}

impl Dram {
    /// Creates a model with the given sustained bandwidth and latencies.
    /// Bandwidth is quantized to whole millibytes per cycle at
    /// construction, so the model's resolution is 0.001 B/cycle; all
    /// per-request accounting is exact after that.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is below the resolution (or NaN).
    pub fn new(bytes_per_cycle: f64, stream_latency: u64, random_latency: u64) -> Self {
        assert!(bytes_per_cycle >= MIN_BYTES_PER_CYCLE, "bandwidth below 0.001 B/cycle");
        Dram {
            millibytes_per_cycle: (bytes_per_cycle * 1000.0).round() as u64,
            stream_latency,
            random_latency,
            busy_until_mb: 0,
            read_bytes: 0,
            write_bytes: 0,
        }
    }

    /// Issues a request of `bytes` at cycle `now`; returns the cycle at
    /// which it completes (bandwidth serialization plus latency).
    ///
    /// A zero-byte request costs only latency: it neither occupies the
    /// channel nor rounds the occupancy frontier up to `now`. A completion
    /// cycle past `u64::MAX` saturates there: the request never completes
    /// and the run ends in `SimError::MaxCycles`.
    pub fn request(&mut self, now: u64, bytes: u64, kind: AccessKind, is_write: bool) -> u64 {
        if is_write {
            self.write_bytes += bytes;
        } else {
            self.read_bytes += bytes;
        }
        let latency = match kind {
            AccessKind::Stream => self.stream_latency,
            AccessKind::Random => self.random_latency,
        };
        if bytes == 0 {
            return now.saturating_add(latency);
        }
        // The same arithmetic in `u64` while everything fits, which is every
        // request at a real bandwidth: a `u128` division is a library call.
        let mbpc = self.millibytes_per_cycle;
        let narrow = u64::try_from(self.busy_until_mb).ok().and_then(|busy| {
            let start = busy.max(now.checked_mul(mbpc)?);
            start.checked_add(bytes.checked_mul(1000)?)
        });
        if let Some(end) = narrow {
            self.busy_until_mb = end as u128;
            return end.div_ceil(mbpc).saturating_add(latency);
        }
        let mbpc = mbpc as u128;
        let start = self.busy_until_mb.max(now as u128 * mbpc);
        self.busy_until_mb = start + bytes as u128 * 1000;
        let done = u64::try_from(self.busy_until_mb.div_ceil(mbpc)).unwrap_or(u64::MAX);
        done.saturating_add(latency)
    }

    /// Total bytes read so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Total bytes written so far.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_serializes_requests() {
        let mut d = Dram::new(4.0, 0, 0);
        // 16 bytes at 4 B/cycle = 4 cycles of occupancy each.
        let r1 = d.request(0, 16, AccessKind::Stream, false);
        let r2 = d.request(0, 16, AccessKind::Stream, false);
        assert_eq!(r1, 4);
        assert_eq!(r2, 8);
    }

    #[test]
    fn latency_added_per_kind() {
        let mut d = Dram::new(1000.0, 5, 50);
        let s = d.request(0, 4, AccessKind::Stream, false);
        let r = d.request(0, 4, AccessKind::Random, false);
        assert!((5..10).contains(&s), "stream ready {s}");
        assert!((50..60).contains(&r), "random ready {r}");
    }

    #[test]
    fn idle_gaps_do_not_accumulate() {
        let mut d = Dram::new(4.0, 0, 0);
        let _ = d.request(0, 4, AccessKind::Stream, false);
        // After a long idle gap the channel restarts from `now`.
        let r = d.request(1000, 4, AccessKind::Stream, false);
        assert_eq!(r, 1001);
    }

    #[test]
    fn zero_byte_request_costs_only_latency() {
        let mut d = Dram::new(4.0, 3, 30);
        // A zero-byte request must not burn a grant slot...
        assert_eq!(d.request(10, 0, AccessKind::Random, false), 40);
        // ...so a following real request starts from `now`, not from a
        // rounded-up frontier.
        assert_eq!(d.request(10, 4, AccessKind::Stream, false), 14);
        assert_eq!(d.read_bytes(), 4);
    }

    #[test]
    fn fractional_occupancy_is_exact_over_many_requests() {
        // 3 B/cycle: each 1-byte request occupies exactly 1/3 cycle, which
        // is not representable in binary floating point. After 3_000_000
        // back-to-back requests the frontier must sit at exactly 1_000_000
        // cycles — the old f64 accumulator drifted here.
        let mut d = Dram::new(3.0, 0, 0);
        let mut last = 0;
        for _ in 0..3_000_000 {
            last = d.request(0, 1, AccessKind::Stream, false);
        }
        assert_eq!(last, 1_000_000);
        // One more byte lands in the next cycle.
        assert_eq!(d.request(0, 1, AccessKind::Stream, false), 1_000_001);
    }

    /// At 1e15 B/cycle a cycle is 1e18 millibytes, so `now * millibytes` no
    /// longer fits in `u64` from cycle 19 on: those requests take the `u128`
    /// path, and must land where the exact formula says, also right after
    /// requests that took the `u64` one.
    #[test]
    fn wide_path_matches_the_exact_formula() {
        let mbpc: u128 = 1_000_000_000_000_000_000;
        let mut d = Dram::new(1e15, 2, 0);
        let mut frontier: u128 = 0;
        for (now, bytes) in [(3u64, 4u64), (3, 8), (18, 1), (19, 4), (1000, 16), (1000, 16)] {
            assert!((now as u128 * mbpc > u64::MAX as u128) == (now >= 19));
            frontier = frontier.max(now as u128 * mbpc) + bytes as u128 * 1000;
            let want = frontier.div_ceil(mbpc) as u64 + 2;
            assert_eq!(d.request(now, bytes, AccessKind::Stream, false), want, "at {now}");
        }
        assert_eq!(d.request(1000, 0, AccessKind::Stream, false), 1002);
        assert_eq!(d.read_bytes(), 49);
    }

    #[test]
    fn byte_accounting() {
        let mut d = Dram::new(8.0, 0, 0);
        d.request(0, 12, AccessKind::Stream, false);
        d.request(0, 20, AccessKind::Stream, true);
        assert_eq!(d.read_bytes(), 12);
        assert_eq!(d.write_bytes(), 20);
    }
}
