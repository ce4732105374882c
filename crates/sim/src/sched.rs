//! Event-driven scheduling primitives for the execution loop.
//!
//! The engine used to pay O(nodes x cycles): every simulated cycle it
//! stepped *every* node, even ones with empty inputs, full outputs, or a
//! future wake-up time. The two structures here replace that dense sweep:
//!
//! * [`ReadySet`] — a dense bitset over *scheduling ranks* (a node's
//!   position in the graph's topological order). Draining it in ascending
//!   rank replays exactly the relative step order of the legacy sweep, which
//!   is the whole determinism argument: a cycle of the event engine performs
//!   the same effective steps, in the same order, at the same simulated
//!   time as a sweep cycle, and skipped steps are provably no-ops.
//! * [`WakeQueue`] — a min-heap of `busy_until` / pending-memory wake-ups
//!   keyed by absolute cycle. Per-rank earliest-timer dedup keeps spurious
//!   re-steps bounded.
//!
//! Both structures are rank-indexed. `simulate` wires every channel with
//! the ranks of its two endpoints, so a channel wake is an insert into one of
//! the machine's two ready sets (`chan.rs`), with nothing to translate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A dense bitset of ranks that are ready to step at one simulated cycle.
///
/// Insertions during a drain are permitted only *ahead* of the drain cursor
/// (a reader woken by its upstream writer; wakes behind the cursor, a writer
/// or the stepped node itself, go to the next cycle's set), so a single
/// forward scan visits every ready rank in ascending order.
#[derive(Debug)]
pub(crate) struct ReadySet {
    words: Vec<u64>,
    count: usize,
}

impl ReadySet {
    /// An empty set sized for `n` ranks.
    pub fn new(n: usize) -> Self {
        ReadySet { words: vec![0; n.div_ceil(64)], count: 0 }
    }

    /// Marks `rank` ready; idempotent.
    pub fn insert(&mut self, rank: usize) {
        let (w, b) = (rank / 64, rank % 64);
        if self.words[w] & (1 << b) == 0 {
            self.words[w] |= 1 << b;
            self.count += 1;
        }
    }

    /// Number of ready ranks.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no rank is ready.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Clears and returns the lowest ready rank `>= from`, if any.
    pub fn pop_ge(&mut self, from: usize) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let mut w = from / 64;
        if w >= self.words.len() {
            return None;
        }
        // Mask off bits below `from` in the first word, then scan forward.
        let below = if from % 64 == 0 { 0 } else { (1u64 << (from % 64)) - 1 };
        let mut cur = self.words[w] & !below;
        loop {
            if cur != 0 {
                let b = cur.trailing_zeros() as usize;
                self.words[w] &= !(1 << b);
                self.count -= 1;
                return Some(w * 64 + b);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            cur = self.words[w];
        }
    }
}

/// A time-indexed wake queue: a min-heap of `(absolute_cycle, rank)`.
#[derive(Debug)]
pub(crate) struct WakeQueue {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Earliest queued timer per rank (`u64::MAX` = none). A later timer
    /// for a rank with an earlier one queued is dropped: the earlier wake
    /// steps the node, which re-registers its then-current wake time.
    timer_at: Vec<u64>,
}

impl WakeQueue {
    /// An empty queue for `n` ranks.
    pub fn new(n: usize) -> Self {
        WakeQueue { heap: BinaryHeap::new(), timer_at: vec![u64::MAX; n] }
    }

    /// Queues a wake for `rank` at cycle `t` (must be `> now`). Deduped
    /// against an earlier-or-equal timer already queued for the rank. A wake
    /// at `u64::MAX` (a DRAM completion that saturated there) is queued
    /// too, so the run ends on its cycle budget as the sweep's does.
    pub fn schedule(&mut self, now: u64, t: u64, rank: u32) {
        debug_assert!(t > now, "wakes must be in the future");
        let at = &mut self.timer_at[rank as usize];
        if *at <= t && *at != u64::MAX {
            return;
        }
        *at = t;
        self.heap.push(Reverse((t, rank)));
    }

    /// True when nothing is queued.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The earliest queued cycle, if any.
    pub fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _))| *t)
    }

    /// Moves every wake queued for cycle `t` (or earlier) into `ready`.
    pub fn drain_at(&mut self, t: u64, ready: &mut ReadySet) {
        while let Some(&Reverse((ft, rank))) = self.heap.peek() {
            if ft > t {
                break;
            }
            self.heap.pop();
            if self.timer_at[rank as usize] == ft {
                self.timer_at[rank as usize] = u64::MAX;
            }
            ready.insert(rank as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_set_drains_in_ascending_rank() {
        let mut r = ReadySet::new(200);
        for rank in [150, 3, 64, 63, 199, 0] {
            r.insert(rank);
        }
        r.insert(64); // idempotent
        assert_eq!(r.len(), 6);
        let mut seen = Vec::new();
        let mut pos = 0;
        while let Some(rank) = r.pop_ge(pos) {
            pos = rank;
            seen.push(rank);
        }
        assert_eq!(seen, vec![0, 3, 63, 64, 150, 199]);
        assert!(r.is_empty());
    }

    #[test]
    fn ready_set_mid_drain_insertions_ahead_of_cursor() {
        let mut r = ReadySet::new(128);
        r.insert(5);
        assert_eq!(r.pop_ge(0), Some(5));
        // A wake raised while stepping rank 5 targets a higher rank.
        r.insert(70);
        assert_eq!(r.pop_ge(5), Some(70));
        assert_eq!(r.pop_ge(70), None);
    }

    #[test]
    fn wake_queue_near_and_far() {
        let mut q = WakeQueue::new(8);
        q.schedule(10, 12, 1);
        q.schedule(10, 10 + 612, 2);
        assert_eq!(q.next_time(), Some(12));
        let mut ready = ReadySet::new(8);
        q.drain_at(12, &mut ready);
        assert_eq!(ready.pop_ge(0), Some(1));
        assert_eq!(q.next_time(), Some(10 + 612));
        q.drain_at(10 + 612, &mut ready);
        assert_eq!(ready.pop_ge(0), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn wake_queue_dedups_later_timers() {
        let mut q = WakeQueue::new(4);
        q.schedule(0, 5, 3);
        q.schedule(0, 9, 3); // dropped: 5 <= 9 already queued
        let mut ready = ReadySet::new(4);
        q.drain_at(5, &mut ready);
        assert_eq!(ready.pop_ge(0), Some(3));
        assert!(q.is_empty(), "later duplicate must have been dropped");
        // After the early wake fired, a fresh timer is accepted again.
        q.schedule(5, 9, 3);
        assert_eq!(q.next_time(), Some(9));
    }

    #[test]
    fn wake_queue_same_cycle_ranks_drain_together() {
        let mut q = WakeQueue::new(4);
        q.schedule(0, 7, 2);
        q.schedule(0, 8, 3);
        q.schedule(0, 7, 0);
        let mut ready = ReadySet::new(4);
        q.drain_at(7, &mut ready);
        assert_eq!(ready.pop_ge(0), Some(0));
        assert_eq!(ready.pop_ge(0), Some(2));
        assert_eq!(ready.pop_ge(0), None, "the cycle-8 wake must not drain at 7");
        assert_eq!(q.next_time(), Some(8));
    }
}
