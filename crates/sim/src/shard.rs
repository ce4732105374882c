//! Shards and the loops that run them: the event-driven production loop,
//! the dense-sweep oracle, and the single-node standalone runner.

use crate::chan::{Chan, Ctx, StepOutcome};
use crate::dram::Dram;
use crate::engine::{Scheduler, SimConfig, SimError};
use crate::node::Rt;
use crate::sched::{ReadySet, WakeQueue};
use crate::stats::SchedCounters;
use fuseflow_sam::MemLocation;
use fuseflow_tensor::SparseTensor;

/// Read-only simulation inputs shared by every shard: the bound tensors,
/// location tables, and the config.
pub(crate) struct Shared<'a> {
    pub(crate) tensors: &'a [&'a SparseTensor],
    pub(crate) tensor_locs: &'a [MemLocation],
    pub(crate) output_locs: &'a [MemLocation],
    pub(crate) cfg: &'a SimConfig,
}

/// One weakly-connected component of the graph: the nodes it runs (`order`,
/// its slice of the topological order, as indices into the node table), its
/// clock, its DRAM channel slice and its counters. The nodes and channels
/// themselves live in the tables `simulate` builds; a shard only ever
/// touches the entries its `order` names and the channels between them.
pub(crate) struct Shard {
    pub(crate) order: Vec<usize>,
    pub(crate) dram: Dram,
    pub(crate) now: u64,
    pub(crate) flops: u64,
    pub(crate) sched: SchedCounters,
}

fn make_ctx<'a>(
    chans: &'a mut [Chan],
    dram: &'a mut Dram,
    shared: &'a Shared<'a>,
    now: u64,
) -> Ctx<'a> {
    Ctx {
        chans,
        dram,
        tensors: shared.tensors,
        tensor_locs: shared.tensor_locs,
        output_locs: shared.output_locs,
        cfg: shared.cfg,
        now,
        flops: 0,
        pending_busy: 0,
        wakes: Vec::new(),
    }
}

impl Shard {
    /// An empty shard at cycle 0 on the given DRAM channel.
    pub(crate) fn new(dram: Dram) -> Self {
        Shard { order: Vec::new(), dram, now: 0, flops: 0, sched: SchedCounters::default() }
    }

    /// Runs this shard to completion (all its writers finished) or to an
    /// error.
    pub(crate) fn run(
        &mut self,
        nodes: &mut [Rt],
        chans: &mut [Chan],
        shared: &Shared<'_>,
    ) -> Result<(), SimError> {
        match shared.cfg.scheduler {
            Scheduler::Event => self.run_event(nodes, chans, shared),
            Scheduler::Sweep => self.run_sweep(nodes, chans, shared),
        }
    }

    /// The event-driven execution loop: a ready set drained in ascending
    /// topological rank plus a calendar wake queue.
    ///
    /// **Bit-identity with the sweep.** The sweep steps every node at every
    /// visited cycle, in topological-order rank; a step with no progress is
    /// a pure no-op (see [`Rt::step`]). This loop steps exactly the nodes
    /// whose wake conditions fired, in the same ascending-rank order, at
    /// the same cycle the sweep would have serviced them:
    ///
    /// * a push wakes the channel's reader — in the *current* cycle when
    ///   the reader's rank is still ahead of the drain cursor (the sweep
    ///   would reach it later this cycle), else in the next;
    /// * a pop from a full channel wakes the writer the same way;
    /// * a node that progressed re-steps next cycle (as the sweep would);
    /// * a node stalled on memory or a busy ALU registers a timer for its
    ///   exact wake cycle.
    ///
    /// Any node not woken is in a state where the sweep's step would no-op,
    /// so skipping it cannot change outputs, counters, or the clock. The
    /// clock itself advances to `now + 1` whenever any node is scheduled
    /// there (exactly the cycles the sweep visits after progress) and
    /// otherwise jumps to the earliest timer — the same target as the
    /// sweep's idle fast-forward, without its O(nodes) `next_wake` scan.
    /// Writer completion is tracked with a `live_writers` counter instead
    /// of the sweep's O(nodes) `writers_done` rescan per cycle.
    fn run_event(
        &mut self,
        nodes: &mut [Rt],
        chans: &mut [Chan],
        shared: &Shared<'_>,
    ) -> Result<(), SimError> {
        let order = &self.order;
        let n = order.len();
        // Channel wakes name nodes; the ready sets hold this shard's ranks.
        let mut rank_of = vec![0u32; nodes.len()];
        for (rank, &node) in order.iter().enumerate() {
            rank_of[node] = rank as u32;
        }
        // By rank: is this node a writer that has not finished yet?
        let mut writer_live: Vec<bool> =
            order.iter().map(|&i| nodes[i].is_writer() && !nodes[i].finished()).collect();
        let mut live_writers = writer_live.iter().filter(|&&w| w).count();

        let mut cur = ReadySet::new(n);
        let mut next = ReadySet::new(n);
        for rank in 0..n {
            cur.insert(rank);
        }
        let mut wakes = WakeQueue::new(n);
        let mut counters = SchedCounters::default();

        let mut ctx = make_ctx(chans, &mut self.dram, shared, self.now);
        let res = 'run: loop {
            // Drain this cycle's ready set in ascending rank (= sweep order).
            let mut stepped = 0u64;
            let mut pos = 0;
            while let Some(rank) = cur.pop_ge(pos) {
                pos = rank;
                let node = order[rank];
                let outcome = match nodes[node].step(&mut ctx) {
                    Ok(o) => o,
                    Err(e) => break 'run Err(e),
                };
                stepped += 1;
                // Channel wakes raised by this step: same-cycle if the
                // target is still ahead of the drain cursor, else next.
                for k in 0..ctx.wakes.len() {
                    let w = rank_of[ctx.wakes[k] as usize] as usize;
                    if w > rank {
                        cur.insert(w);
                    } else {
                        next.insert(w);
                    }
                }
                ctx.wakes.clear();
                match outcome {
                    StepOutcome::Progressed => next.insert(rank),
                    StepOutcome::SleepingUntil(t) => wakes.schedule(ctx.now, t, rank as u32),
                    StepOutcome::BlockedInput
                    | StepOutcome::BlockedOutput
                    | StepOutcome::Finished => {}
                }
                if writer_live[rank] && nodes[node].finished() {
                    writer_live[rank] = false;
                    live_writers -= 1;
                }
            }
            counters.events += stepped;
            counters.peak_ready = counters.peak_ready.max(stepped);
            // Same termination point as the sweep: it checks writers after
            // sweeping a full cycle, so the whole ready set drains first.
            if live_writers == 0 {
                ctx.now += 1;
                break 'run Ok(());
            }
            let t_next = if !next.is_empty() {
                ctx.now + 1
            } else {
                match wakes.next_time(ctx.now) {
                    Some(t) => t,
                    None => {
                        let detail = deadlock_detail(order, nodes, ctx.chans);
                        break 'run Err(SimError::Deadlock { cycle: ctx.now, detail });
                    }
                }
            };
            counters.cycles_skipped += t_next - ctx.now - 1;
            ctx.now = t_next;
            if ctx.now > ctx.cfg.max_cycles {
                break 'run Err(SimError::MaxCycles(ctx.cfg.max_cycles));
            }
            std::mem::swap(&mut cur, &mut next);
            wakes.drain_at(ctx.now, &mut cur);
        };
        self.now = ctx.now;
        self.flops += ctx.flops;
        self.sched.merge(&counters);
        res
    }

    /// The legacy dense sweep: every node steps at every visited cycle.
    /// Kept as the differential-testing oracle for the event scheduler
    /// ([`Scheduler::Sweep`]).
    fn run_sweep(
        &mut self,
        nodes: &mut [Rt],
        chans: &mut [Chan],
        shared: &Shared<'_>,
    ) -> Result<(), SimError> {
        let order = &self.order;
        let mut counters = SchedCounters::default();
        let mut ctx = make_ctx(chans, &mut self.dram, shared, self.now);
        let res = 'run: loop {
            let mut progress = false;
            for &i in order {
                match nodes[i].step(&mut ctx) {
                    Ok(o) => progress |= o == StepOutcome::Progressed,
                    Err(e) => break 'run Err(e),
                }
                ctx.wakes.clear();
            }
            counters.events += order.len() as u64;
            counters.peak_ready = counters.peak_ready.max(order.len() as u64);
            let writers_done = order.iter().all(|&i| !nodes[i].is_writer() || nodes[i].finished());
            if writers_done {
                ctx.now += 1;
                break 'run Ok(());
            }
            if progress {
                ctx.now += 1;
            } else {
                // Distinguish stalls on memory latency / initiation intervals
                // from true deadlock: fast-forward to the next wake-up time.
                let now = ctx.now;
                let next_wake = order.iter().filter_map(|&i| nodes[i].next_wake(now)).min();
                match next_wake {
                    Some(t) => {
                        counters.cycles_skipped += t - ctx.now - 1;
                        ctx.now = t;
                    }
                    None => {
                        let detail = deadlock_detail(order, nodes, ctx.chans);
                        break 'run Err(SimError::Deadlock { cycle: ctx.now, detail });
                    }
                }
            }
            if ctx.now > ctx.cfg.max_cycles {
                break 'run Err(SimError::MaxCycles(ctx.cfg.max_cycles));
            }
        };
        self.now = ctx.now;
        self.flops += ctx.flops;
        self.sched.merge(&counters);
        res
    }

    /// Runs a single isolated node until it can make no further progress,
    /// fast-forwarding over busy/memory stalls exactly like the shard
    /// loops do.
    pub(crate) fn run_standalone(
        &mut self,
        node: &mut Rt,
        chans: &mut [Chan],
        shared: &Shared<'_>,
        budget: u64,
    ) -> Result<(), SimError> {
        let mut ctx = make_ctx(chans, &mut self.dram, shared, self.now);
        let res = 'run: loop {
            match node.step(&mut ctx) {
                Ok(StepOutcome::Progressed) => ctx.now += 1,
                // Stalled on `busy_until` / in-flight memory, which still
                // holds undelivered output: jump to the wake-up time.
                Ok(StepOutcome::SleepingUntil(t)) => ctx.now = t,
                // Exhausted inputs (or finished): the stream is complete.
                Ok(_) => break 'run Ok(()),
                Err(e) => break 'run Err(e),
            }
            ctx.wakes.clear();
            if ctx.now > budget {
                break 'run Err(SimError::MaxCycles(budget));
            }
        };
        self.now = ctx.now;
        self.flops += ctx.flops;
        res
    }
}

/// Names a channel peer by graph label ([`NO_NODE`](crate::chan::NO_NODE) is a harness endpoint).
fn peer_name(nodes: &[Rt], id: u32) -> String {
    match nodes.get(id as usize) {
        Some(n) => format!("{}#{id}", n.label),
        None => "ext".into(),
    }
}

/// Describes every unfinished node of the shard running `order`, in node-id
/// order.
fn deadlock_detail(order: &[usize], nodes: &[Rt], chans: &[Chan]) -> String {
    let mut ids = order.to_vec();
    ids.sort_unstable();
    let mut parts = Vec::new();
    for i in ids {
        let n = &nodes[i];
        if !n.finished() {
            let ins: Vec<String> = n
                .in_chans
                .iter()
                .map(|c| match c {
                    Some(id) => format!("{}", chans[*id].buf.len()),
                    None => "-".into(),
                })
                .collect();
            let outs: Vec<String> = n.out_q.iter().map(|q| q.len().to_string()).collect();
            // Name every at-capacity output channel this node is trying to
            // flush into, so runtime reports line up with `samcheck`'s
            // static buffer-sizing diagnostics (SA012/SA013).
            let mut full = Vec::new();
            for (p, q) in n.out_q.iter().enumerate() {
                if q.is_empty() {
                    continue;
                }
                for &c in &n.out_chans[p] {
                    let ch = &chans[c];
                    if ch.buf.len() >= ch.cap {
                        full.push(format!(
                            "out{p}->{} at cap {}",
                            peer_name(nodes, ch.reader),
                            ch.cap
                        ));
                    }
                }
            }
            let why = if full.is_empty() {
                String::new()
            } else {
                format!(" full:[{}]", full.join("; "))
            };
            parts.push(format!(
                "{}#{i}[in:{} outq:{} pend:{} done:{} busy:{}]{}",
                n.label,
                ins.join(","),
                outs.join(","),
                n.pending_mem.len(),
                n.done,
                n.busy_until,
                why
            ));
        }
    }
    parts.join(" ")
}
