//! Bounded token channels and the per-step context a node sees.

use crate::dram::Dram;
use crate::engine::SimConfig;
use crate::stats::SchedCounters;
use fuseflow_sam::{OutputSlot, TensorSlot, Token};
use fuseflow_tensor::SparseTensor;
use std::collections::VecDeque;

/// Sentinel for a channel endpoint with no node attached (test harness
/// channels that are pre-seeded or captured externally).
pub(crate) const NO_NODE: u32 = u32::MAX;

#[derive(Debug)]
pub(crate) struct Chan {
    pub(crate) buf: VecDeque<Token>,
    pub(crate) cap: usize,
    /// Node-table index of the node that pops this channel (wake target
    /// for pushes), or [`NO_NODE`].
    pub(crate) reader: u32,
    /// Node-table index of the node that pushes this channel (wake target
    /// for full -> not-full transitions), or [`NO_NODE`].
    pub(crate) writer: u32,
}

impl Chan {
    pub(crate) fn new(cap: usize, writer: u32, reader: u32) -> Self {
        Chan { buf: VecDeque::new(), cap, reader, writer }
    }
}

/// The machine: everything a node step may read or charge that is not the
/// node's own state. One channel table (indexed by graph edge), one DRAM
/// channel, the read-only tensor bindings and slots, one clock and the run's
/// counters.
pub(crate) struct Ctx<'a> {
    pub(crate) chans: Vec<Chan>,
    pub(crate) dram: Dram,
    pub(crate) tensors: Vec<&'a SparseTensor>,
    pub(crate) tensor_slots: &'a [TensorSlot],
    pub(crate) output_slots: &'a [OutputSlot],
    pub(crate) cfg: &'a SimConfig,
    pub(crate) now: u64,
    pub(crate) flops: u64,
    pub(crate) sched: SchedCounters,
    pub(crate) pending_busy: u64,
    /// Node-table indices woken by channel activity during the current
    /// step; drained by the event scheduler (ignored by the sweep).
    pub(crate) wakes: Vec<u32>,
}

impl<'a> Ctx<'a> {
    /// A machine at cycle 0 with nothing counted yet.
    pub(crate) fn new(
        chans: Vec<Chan>,
        dram: Dram,
        tensors: Vec<&'a SparseTensor>,
        tensor_slots: &'a [TensorSlot],
        output_slots: &'a [OutputSlot],
        cfg: &'a SimConfig,
    ) -> Self {
        Ctx {
            chans,
            dram,
            tensors,
            tensor_slots,
            output_slots,
            cfg,
            now: 0,
            flops: 0,
            sched: SchedCounters::default(),
            pending_busy: 0,
            wakes: Vec::new(),
        }
    }

    /// Records a multi-cycle occupancy requested by the current action
    /// (block ALU contractions); committed by the action epilogue.
    pub(crate) fn busy(&mut self, cycles: u64) {
        self.pending_busy = self.pending_busy.max(cycles);
    }

    /// Pushes a token and wakes the channel's reader. Readers are woken on
    /// *every* push, not just empty -> nonempty: consumers like `Repeat`
    /// and `Serializer` block on the channel's *depth* (`peek_at` beyond
    /// the head), so a push into a nonempty channel can unblock them too.
    pub(crate) fn push_chan(&mut self, c: usize, tok: Token) {
        let ch = &mut self.chans[c];
        ch.buf.push_back(tok);
        if ch.reader != NO_NODE {
            self.wakes.push(ch.reader);
        }
    }

    /// Pops a token; wakes the channel's writer only on the full ->
    /// not-full transition (a writer can only be flush-blocked on a
    /// channel that is at capacity).
    pub(crate) fn pop_chan(&mut self, c: usize) -> Token {
        let ch = &mut self.chans[c];
        let was_full = ch.buf.len() >= ch.cap;
        let tok = ch.buf.pop_front().expect("pop from empty channel");
        if was_full && ch.writer != NO_NODE {
            self.wakes.push(ch.writer);
        }
        tok
    }
}

/// What one [`Rt::step`](crate::node::Rt::step) call did, and when the node next needs service.
///
/// The event scheduler keys off this: `Progressed` re-enqueues the node for
/// the next cycle, `SleepingUntil` registers a timed wake, and the two
/// `Blocked*` variants arm nothing — the static channel back-pointers raise
/// the wake when a peer pushes an input or drains a full output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// The step changed state (flushed, retired, or acted); step again next
    /// cycle.
    Progressed,
    /// Waiting on input tokens; a push into any input channel re-arms it.
    BlockedInput,
    /// Flush-blocked: some output channel is at capacity; a pop of it
    /// re-arms the node (which channel is recorded by the channel's own
    /// writer back-pointer, so the scheduler needs no id here).
    BlockedOutput,
    /// Nothing runnable before the given cycle (in-flight memory at the
    /// head of `pending_mem`, or a busy ALU).
    SleepingUntil(u64),
    /// `done` with all queues drained: the node never acts again.
    Finished,
}
