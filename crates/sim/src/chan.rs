//! Bounded token channels and the per-step context a node sees.
//!
//! A channel holds one-word [`Token`]s (`tok.rs`): a peek or a pop copies
//! eight bytes out of the buffer, and the tiles those tokens name live in
//! the context's [`Tiles`] for the whole run. A channel's buffer and a
//! node's in-flight memory are each a [`Ring`].

use crate::dram::Dram;
use crate::engine::SimConfig;
use crate::sched::ReadySet;
use crate::stats::SchedCounters;
use crate::tok::{Tiles, Token};
use fuseflow_sam::{OutputSlot, TensorSlot};
use fuseflow_tensor::SparseTensor;

/// Sentinel for a channel endpoint with no node attached (test harness
/// channels that are pre-seeded or captured externally).
pub(crate) const NO_NODE: u32 = u32::MAX;

/// A first-in first-out queue of `Copy` values in a power-of-two buffer:
/// a push or a pop is a masked index, and the buffer only grows (doubling,
/// never shrinking). Every slot holds a value, so no slot is ever read
/// uninitialised; the slots outside `head..head + len` are stale copies.
#[derive(Debug)]
pub(crate) struct Ring<T: Copy> {
    buf: Box<[T]>,
    /// Index of the oldest value.
    head: usize,
    len: usize,
}

impl<T: Copy> Default for Ring<T> {
    fn default() -> Self {
        Ring { buf: Box::default(), head: 0, len: 0 }
    }
}

impl<T: Copy> Ring<T> {
    /// Number of values held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oldest value.
    #[inline]
    pub(crate) fn front(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    /// Appends `x` after the newest value.
    #[inline]
    pub(crate) fn push_back(&mut self, x: T) {
        if self.len == self.buf.len() {
            self.grow(x);
        }
        let i = (self.head + self.len) & (self.buf.len() - 1);
        self.buf[i] = x;
        self.len += 1;
    }

    /// Removes and returns the oldest value.
    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let x = self.buf[self.head];
        self.head = (self.head + 1) & (self.buf.len() - 1);
        self.len -= 1;
        Some(x)
    }

    /// The values, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        let mask = self.buf.len().wrapping_sub(1);
        (0..self.len).map(move |i| &self.buf[(self.head + i) & mask])
    }

    /// Doubles the buffer (at least 4 slots), the values kept in order from
    /// slot 0; `fill` fills the new slots past them.
    #[cold]
    fn grow(&mut self, fill: T) {
        let cap = (2 * self.buf.len()).max(4);
        let mut buf = Vec::with_capacity(cap);
        buf.extend(self.iter().copied());
        buf.resize(cap, fill);
        self.buf = buf.into_boxed_slice();
        self.head = 0;
    }
}

impl<T: Copy> Extend<T> for Ring<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push_back(x);
        }
    }
}

impl<T: Copy> FromIterator<T> for Ring<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut ring = Ring::default();
        ring.extend(iter);
        ring
    }
}

/// A bounded stream that also holds its writer's output queue.
///
/// A token is written once, at the tail of `buf`, by the action that
/// produces it. `buf[..visible]` is the channel proper: what the reader can
/// peek and pop, and what counts against `cap`. `buf[visible..]` is *staged*:
/// produced, not yet sent. The writer's flush publishes at most one staged
/// token per output port per cycle by moving the `visible` mark, so the
/// one-token-per-port-per-cycle rate is a counter and no token is moved or
/// cloned a second time. Staged tokens do not count against `cap` (an action
/// may produce more than a channel holds; they leave at the same rate).
/// `buf` is a [`Ring`]: the reader pops at its head while the writer appends
/// at its tail, and neither moves the other's tokens.
#[derive(Debug)]
pub(crate) struct Chan {
    pub(crate) buf: Ring<Token>,
    /// Length of the reader-visible prefix of `buf`.
    pub(crate) visible: usize,
    pub(crate) cap: usize,
    /// Rank of the node that pops this channel (woken by a publish), or
    /// [`NO_NODE`].
    pub(crate) reader: u32,
    /// Rank of the node that writes this channel (woken by a pop that takes
    /// it from full to not full), or [`NO_NODE`].
    pub(crate) writer: u32,
}

impl Chan {
    /// An empty channel between the nodes of rank `writer` and `reader`.
    pub(crate) fn new(cap: usize, writer: u32, reader: u32) -> Self {
        Chan { buf: Ring::default(), visible: 0, cap, reader, writer }
    }

    /// A harness input channel (no writer node) with every token already
    /// visible to the node of rank 0.
    pub(crate) fn seeded(toks: impl IntoIterator<Item = Token>) -> Self {
        let buf: Ring<Token> = toks.into_iter().collect();
        Chan { visible: buf.len(), buf, cap: usize::MAX, reader: 0, writer: NO_NODE }
    }

    /// The token at the head, if the reader can see it. A visible token is
    /// in the ring, so its head slot is read without asking the ring again.
    pub(crate) fn head(&self) -> Option<Token> {
        if self.visible > 0 {
            Some(self.buf.buf[self.buf.head])
        } else {
            None
        }
    }

    /// At capacity: the writer may not publish into it this cycle.
    pub(crate) fn is_full(&self) -> bool {
        self.visible >= self.cap
    }
}

/// The machine: everything a node step may read or charge that is not the
/// node's own state. One channel table (indexed by graph edge), the run's
/// tiles, one DRAM channel, the read-only tensor bindings and slots, one
/// clock, the run's counters, and the event loop's two ready sets (by rank;
/// the sweep fills them and never reads them).
pub(crate) struct Ctx<'a> {
    pub(crate) chans: Vec<Chan>,
    /// Every tile a token of this run has carried, by handle.
    pub(crate) tiles: Tiles,
    pub(crate) dram: Dram,
    pub(crate) tensors: Vec<&'a SparseTensor>,
    pub(crate) tensor_slots: &'a [TensorSlot],
    pub(crate) output_slots: &'a [OutputSlot],
    pub(crate) cfg: &'a SimConfig,
    pub(crate) now: u64,
    pub(crate) flops: u64,
    pub(crate) sched: SchedCounters,
    pub(crate) pending_busy: u64,
    /// Ranks to step in the current cycle. A publish wakes its reader here:
    /// a reader is downstream of its writer, so its rank is still ahead of
    /// the drain cursor.
    pub(crate) cur: ReadySet,
    /// Ranks to step in the next cycle. A pop wakes the writer here: the
    /// drain cursor has already passed it.
    pub(crate) next: ReadySet,
}

impl<'a> Ctx<'a> {
    /// A machine of `ranks` nodes at cycle 0 with nothing counted yet.
    pub(crate) fn new(
        chans: Vec<Chan>,
        dram: Dram,
        tensors: Vec<&'a SparseTensor>,
        tensor_slots: &'a [TensorSlot],
        output_slots: &'a [OutputSlot],
        cfg: &'a SimConfig,
        ranks: usize,
    ) -> Self {
        Ctx {
            chans,
            tiles: Tiles::default(),
            dram,
            tensors,
            tensor_slots,
            output_slots,
            cfg,
            now: 0,
            flops: 0,
            sched: SchedCounters::default(),
            pending_busy: 0,
            cur: ReadySet::new(ranks),
            next: ReadySet::new(ranks),
        }
    }

    /// Records a multi-cycle occupancy requested by the current action
    /// (block ALU contractions); committed by the action epilogue.
    pub(crate) fn busy(&mut self, cycles: u64) {
        self.pending_busy = self.pending_busy.max(cycles);
    }

    /// Makes the oldest staged token of channel `c` visible to its reader,
    /// and wakes the reader only on the empty -> non-empty transition: every
    /// node reads its input heads only, so a publish behind a head changes
    /// nothing the reader's step can see.
    pub(crate) fn publish(&mut self, c: usize) {
        let ch = &mut self.chans[c];
        debug_assert!(ch.visible < ch.buf.len() && !ch.is_full(), "publish needs a staged token");
        ch.visible += 1;
        if ch.visible == 1 && ch.reader != NO_NODE {
            self.cur.insert(ch.reader as usize);
        }
    }

    /// Pops the head token; wakes the channel's writer only on the full ->
    /// not-full transition (a writer can only be flush-blocked on a
    /// channel that is at capacity).
    pub(crate) fn pop_chan(&mut self, c: usize) -> Token {
        let ch = &mut self.chans[c];
        assert!(ch.visible > 0, "pop from empty channel");
        let was_full = ch.is_full();
        ch.visible -= 1;
        let tok = ch.buf.pop_front().expect("visible <= buf.len()");
        if was_full && ch.writer != NO_NODE {
            self.next.insert(ch.writer as usize);
        }
        tok
    }
}

/// What one [`Rt::step`](crate::node::Rt::step) call did, and when the node next needs service.
///
/// The event scheduler keys off this: `Progressed` re-enqueues the node for
/// the next cycle, `SleepingUntil` registers a timed wake, and `Idle` arms
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// The step changed state (flushed, retired, or acted); step again next
    /// cycle.
    Progressed,
    /// Nothing runnable before the given cycle (in-flight memory at the
    /// head of `pending_mem`, or a busy ALU).
    SleepingUntil(u64),
    /// No progress and no timer: the node waits on an input token or on a
    /// full output channel, or it is finished. The static channel
    /// back-pointers raise the wake when a peer pushes an input or drains a
    /// full output; a finished node never acts again.
    Idle,
}

#[cfg(test)]
impl<'a> Ctx<'a> {
    /// A machine of `ranks` nodes over the given channels, with no tensors
    /// and a DRAM channel nothing asks.
    pub(crate) fn bare(chans: Vec<Chan>, cfg: &'a SimConfig, ranks: usize) -> Self {
        Ctx::new(chans, Dram::new(1e9, 0, 0), Vec::new(), &[], &[], cfg, ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_token_is_not_peekable_until_published() {
        let cfg = SimConfig::default();
        let mut ctx = Ctx::bare(vec![Chan::new(2, 0, 1)], &cfg, 2);
        ctx.chans[0].buf.extend([Token::idx(7), Token::Stop(0), Token::Done]);
        assert_eq!(ctx.chans[0].head(), None, "staged, not sent");
        assert!(!ctx.chans[0].is_full(), "staged tokens do not count against the capacity");
        ctx.publish(0);
        assert_eq!(ctx.chans[0].head(), Some(Token::idx(7)));
        assert_eq!((ctx.chans[0].visible, ctx.chans[0].buf.len()), (1, 3), "the stop is staged");
        ctx.publish(0);
        assert!(ctx.chans[0].is_full());
        assert_eq!(ctx.pop_chan(0), Token::idx(7));
        assert_eq!(ctx.chans[0].head(), Some(Token::Stop(0)));
        let (visible, len) = (ctx.chans[0].visible, ctx.chans[0].buf.len());
        assert_eq!((visible, len), (1, 2), "a pop shows no more than was published");
    }

    #[test]
    #[should_panic(expected = "pop from empty channel")]
    fn pop_refuses_a_staged_token() {
        let cfg = SimConfig::default();
        let mut ctx = Ctx::bare(vec![Chan::new(2, 0, 1)], &cfg, 2);
        ctx.chans[0].buf.push_back(Token::Done);
        ctx.pop_chan(0);
    }

    /// First in, first out, across the wrap at the buffer's end and across
    /// a growth that happens while the oldest value sits past slot 0.
    #[test]
    fn ring_is_fifo_across_wraps_and_growth() {
        let mut ring = Ring::default();
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u32;
        // Each round pushes one more than it pops, so the buffer fills with
        // its head moved off slot 0 and grows from there (4 -> 8 -> 16 ...).
        for round in 0..40 {
            for _ in 0..(round % 5 + 1) {
                ring.push_back(next);
                model.push_back(next);
                next += 1;
            }
            for _ in 0..(round % 5) {
                assert_eq!(ring.pop_front(), model.pop_front());
            }
            assert_eq!(ring.len(), model.len());
            assert_eq!(ring.front(), model.front());
            assert!(ring.iter().eq(model.iter()), "round {round}");
        }
        while let Some(x) = model.pop_front() {
            assert_eq!(ring.pop_front(), Some(x));
        }
        assert!(ring.is_empty());
        assert_eq!((ring.pop_front(), ring.front()), (None, None));
    }

    /// A channel whose buffer grows while its writer has tokens staged and
    /// its reader has popped (so its ring's head is off slot 0) keeps the
    /// visible prefix and the staged tail as they were.
    #[test]
    fn a_channel_grows_with_tokens_staged() {
        let cfg = SimConfig::default();
        let mut ctx = Ctx::bare(vec![Chan::new(3, 0, 1)], &cfg, 2);
        ctx.chans[0].buf.extend((0..4).map(Token::idx));
        ctx.publish(0);
        ctx.publish(0);
        assert_eq!(ctx.pop_chan(0), Token::idx(0));
        // One visible, two staged, the buffer's four slots full after this.
        ctx.chans[0].buf.push_back(Token::idx(4));
        assert_eq!((ctx.chans[0].visible, ctx.chans[0].buf.len()), (1, 4));
        // Grows: the head is at slot 1.
        ctx.chans[0].buf.extend([Token::idx(5), Token::Done]);
        assert_eq!((ctx.chans[0].visible, ctx.chans[0].buf.len()), (1, 6));
        assert_eq!(ctx.chans[0].head(), Some(Token::idx(1)));
        ctx.publish(0);
        ctx.publish(0);
        assert!(ctx.chans[0].is_full(), "three visible at capacity 3; three still staged");
        let mut got = Vec::new();
        while ctx.chans[0].visible > 0 {
            got.push(ctx.pop_chan(0));
            if ctx.chans[0].visible < ctx.chans[0].buf.len() {
                ctx.publish(0);
            }
        }
        let want: Vec<Token> = (1..6).map(Token::idx).chain([Token::Done]).collect();
        assert_eq!(got, want);
        assert!(ctx.chans[0].buf.is_empty());
    }

    /// The wake rule: a publish wakes the reader (this cycle) only when the
    /// channel was empty; a pop wakes the writer (next cycle) only when the
    /// channel was full.
    #[test]
    fn wakes_go_straight_into_the_ready_sets() {
        let cfg = SimConfig::default();
        // Rank 0 writes, rank 2 reads; rank 1 is a bystander.
        let mut ctx = Ctx::bare(vec![Chan::new(2, 0, 2)], &cfg, 3);
        ctx.chans[0].buf.extend([Token::idx(0), Token::idx(1), Token::Done]);
        ctx.publish(0);
        assert_eq!(ctx.cur.pop_ge(0), Some(2), "empty -> non-empty wakes the reader");
        ctx.publish(0);
        assert!(ctx.cur.is_empty(), "a publish behind the head wakes nobody");
        assert!(ctx.next.is_empty());
        ctx.pop_chan(0);
        assert_eq!(ctx.next.pop_ge(0), Some(0), "full -> not full wakes the writer");
        ctx.pop_chan(0);
        assert!(ctx.next.is_empty(), "the channel was not full");
        assert!(ctx.cur.is_empty(), "a pop wakes nobody in the current cycle");
        ctx.publish(0);
        assert_eq!(ctx.cur.pop_ge(0), Some(2), "emptied, then published into: woken again");
    }
}
