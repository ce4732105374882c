//! Host-speed calibration.
//!
//! The box this benchmark runs on is a shared VM. Its speed for this kind of
//! code (branchy, allocation- and hash-heavy, high instructions per cycle)
//! moves by 1.3x to 1.5x for seconds to minutes at a time, with nothing
//! running in the guest and no steal time reported: a neighbour on the same
//! physical core. A plain ALU loop does not see it, so it is not frequency.
//! Raw wall time therefore splits runs of one commit into a fast and a slow
//! population, and medians over a 10 s to 30 s run do not help.
//!
//! So the harness times a small fixed kernel of its own (no library code, so
//! no PR can make it faster) next to the work it measures, every
//! [`GROUP_WORK_S`] of work, and scales each measured interval by
//! `REFERENCE_S / kernel time`: seconds as the reference box in its quiet
//! state would have taken. Raw seconds are reported next to the calibrated
//! ones. What is left after calibration is a run-to-run spread of 4% to 12%
//! where raw seconds spread by 25% to 50% (README, "Calibration").

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Seconds [`kernel_s`] takes on the reference box in its quiet state
/// (README, "Baseline", gives the host block). Calibrated seconds are
/// relative to this constant, so it must never change: changing it rescales
/// every time this benchmark has ever reported.
pub const REFERENCE_S: f64 = 0.0016;

/// Work measured between two kernel timings, at least. Host speed moves
/// within a second, so the kernel has to sit close to what it calibrates;
/// at 2 ms per 25 ms it costs under a tenth of the run.
const GROUP_WORK_S: f64 = 0.025;

/// Times one run of the calibration kernel: hashing into a map of vectors,
/// integer formatting, and a sort, which is the instruction mix that the
/// slow host state hurts as much as it hurts the simulator.
pub fn kernel_s() -> f64 {
    let t0 = Instant::now();
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut text = String::new();
    let (mut state, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0usize);
    for i in 0..KERNEL_STEPS {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        buckets.entry(state >> 55).or_default().push(i);
        if i % 4 == 0 {
            text.clear();
            write!(text, "{state}").expect("write to String");
            acc += text.len();
        }
    }
    let mut sizes: Vec<(usize, u64)> = buckets.iter().map(|(k, v)| (v.len(), *k)).collect();
    sizes.sort_unstable();
    black_box((acc, sizes));
    t0.elapsed().as_secs_f64()
}

const KERNEL_STEPS: u32 = 60_000;

/// Hands out the scale (`REFERENCE_S / kernel time`) for consecutive pieces
/// of work, group by group: the kernel is timed before and after each group,
/// and the mean of the two timings scales the group.
pub struct Calibrator {
    before: f64,
    pending_s: f64,
    kernel_samples: Vec<f64>,
}

impl Calibrator {
    pub fn start() -> Self {
        let before = kernel_s();
        Calibrator { before, pending_s: 0.0, kernel_samples: vec![before] }
    }

    /// Notes `raw_s` seconds of work that has just ended. Once a group's
    /// worth has accumulated, times the kernel and returns the scale for all
    /// work noted since the previous kernel timing.
    pub fn worked(&mut self, raw_s: f64) -> Option<f64> {
        self.pending_s += raw_s;
        (self.pending_s >= GROUP_WORK_S).then(|| self.close_group())
    }

    fn close_group(&mut self) -> f64 {
        let after = kernel_s();
        let scale = REFERENCE_S / ((self.before + after) / 2.0);
        self.before = after;
        self.pending_s = 0.0;
        self.kernel_samples.push(after);
        scale
    }

    /// The scale for the work noted since the last group closed, and every
    /// kernel timing taken.
    pub fn finish(mut self) -> (f64, Vec<f64>) {
        (self.close_group(), self.kernel_samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_close_on_enough_work_and_at_the_end() {
        let mut c = Calibrator::start();
        assert_eq!(c.worked(GROUP_WORK_S / 4.0), None);
        assert_eq!(c.kernel_samples.len(), 1);
        let scale = c.worked(GROUP_WORK_S).expect("a full group is scaled at once");
        assert!(scale > 0.0 && scale.is_finite());
        assert_eq!((c.kernel_samples.len(), c.pending_s), (2, 0.0));
        assert_eq!(c.worked(0.001), None);
        let (last, kernels) = c.finish();
        assert!(last > 0.0 && last.is_finite());
        assert_eq!(kernels.len(), 3);
        assert!(kernels.iter().all(|&k| k > 0.0));
    }
}
