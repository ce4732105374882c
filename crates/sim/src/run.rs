//! The loops that run the machine: the event-driven production loop, the
//! dense-sweep oracle, and the single-node standalone runner. Each drives
//! the node table over one [`Ctx`], in the graph's topological `order`.

use crate::chan::{Ctx, StepOutcome};
use crate::engine::SimError;
use crate::node::Rt;
use crate::sched::{ReadySet, WakeQueue};
use fuseflow_sam::NodeId;

/// The event-driven execution loop: a ready set drained in ascending
/// topological rank plus a min-heap wake queue. Runs until every writer has
/// finished, or to an error.
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
pub(crate) fn run_event(order: &[NodeId], nodes: &mut [Rt], ctx: &mut Ctx) -> Result<(), SimError> {
    let n = order.len();
    // Channel wakes name nodes; the ready sets hold ranks.
    let mut rank_of = vec![0u32; n];
    for (rank, id) in order.iter().enumerate() {
        rank_of[id.0] = rank as u32;
    }
    // By rank: is this node a writer that has not finished yet?
    let mut writer_live: Vec<bool> =
        order.iter().map(|id| nodes[id.0].is_writer() && !nodes[id.0].finished()).collect();
    let mut live_writers = writer_live.iter().filter(|&&w| w).count();

    let mut cur = ReadySet::new(n);
    let mut next = ReadySet::new(n);
    for rank in 0..n {
        cur.insert(rank);
    }
    let mut wakes = WakeQueue::new(n);

    loop {
        // Drain this cycle's ready set in ascending rank (= sweep order).
        let mut stepped = 0u64;
        let mut pos = 0;
        while let Some(rank) = cur.pop_ge(pos) {
            pos = rank;
            let node = order[rank].0;
            let outcome = nodes[node].step(ctx)?;
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
                StepOutcome::BlockedInput | StepOutcome::BlockedOutput | StepOutcome::Finished => {}
            }
            if writer_live[rank] && nodes[node].finished() {
                writer_live[rank] = false;
                live_writers -= 1;
            }
        }
        ctx.sched.events += stepped;
        ctx.sched.peak_ready = ctx.sched.peak_ready.max(stepped);
        // Same termination point as the sweep: it checks writers after
        // sweeping a full cycle, so the whole ready set drains first.
        if live_writers == 0 {
            ctx.now += 1;
            return Ok(());
        }
        let t_next = if !next.is_empty() {
            ctx.now + 1
        } else {
            match wakes.next_time() {
                Some(t) => t,
                None => return Err(deadlock(nodes, ctx)),
            }
        };
        ctx.sched.cycles_skipped += t_next - ctx.now - 1;
        ctx.now = t_next;
        if ctx.now > ctx.cfg.max_cycles {
            return Err(SimError::MaxCycles(ctx.cfg.max_cycles));
        }
        std::mem::swap(&mut cur, &mut next);
        wakes.drain_at(ctx.now, &mut cur);
    }
}

/// The legacy dense sweep: every node steps at every visited cycle.
/// Kept as the differential-testing oracle for the event scheduler
/// ([`Scheduler::Sweep`](crate::Scheduler::Sweep)).
pub(crate) fn run_sweep(order: &[NodeId], nodes: &mut [Rt], ctx: &mut Ctx) -> Result<(), SimError> {
    loop {
        let mut progress = false;
        for id in order {
            progress |= nodes[id.0].step(ctx)? == StepOutcome::Progressed;
            ctx.wakes.clear();
        }
        ctx.sched.events += order.len() as u64;
        ctx.sched.peak_ready = ctx.sched.peak_ready.max(order.len() as u64);
        if nodes.iter().all(|n| !n.is_writer() || n.finished()) {
            ctx.now += 1;
            return Ok(());
        }
        if progress {
            ctx.now += 1;
        } else {
            // Distinguish stalls on memory latency / initiation intervals
            // from true deadlock: fast-forward to the next wake-up time.
            let now = ctx.now;
            match nodes.iter().filter_map(|n| n.next_wake(now)).min() {
                Some(t) => {
                    ctx.sched.cycles_skipped += t - ctx.now - 1;
                    ctx.now = t;
                }
                None => return Err(deadlock(nodes, ctx)),
            }
        }
        if ctx.now > ctx.cfg.max_cycles {
            return Err(SimError::MaxCycles(ctx.cfg.max_cycles));
        }
    }
}

/// Runs a single isolated node until it can make no further progress,
/// fast-forwarding over busy/memory stalls exactly like the loops above do.
pub(crate) fn run_standalone(node: &mut Rt, ctx: &mut Ctx, budget: u64) -> Result<(), SimError> {
    loop {
        match node.step(ctx)? {
            StepOutcome::Progressed => ctx.now += 1,
            // Stalled on `busy_until` / in-flight memory, which still
            // holds undelivered output: jump to the wake-up time.
            StepOutcome::SleepingUntil(t) => ctx.now = t,
            // Exhausted inputs (or finished): the stream is complete.
            _ => return Ok(()),
        }
        ctx.wakes.clear();
        if ctx.now > budget {
            return Err(SimError::MaxCycles(budget));
        }
    }
}

/// Names a channel peer by graph label ([`NO_NODE`](crate::chan::NO_NODE) is a harness endpoint).
fn peer_name(nodes: &[Rt], id: u32) -> String {
    match nodes.get(id as usize) {
        Some(n) => format!("{}#{id}", n.label),
        None => "ext".into(),
    }
}

/// The deadlock report at the machine's current cycle: every unfinished
/// node, in node-id order.
fn deadlock(nodes: &[Rt], ctx: &Ctx) -> SimError {
    let mut parts = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if !n.finished() {
            let ins: Vec<String> = n
                .in_chans
                .iter()
                .map(|c| match c {
                    Some(id) => format!("{}", ctx.chans[*id].buf.len()),
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
                    let ch = &ctx.chans[c];
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
    SimError::Deadlock { cycle: ctx.now, detail: parts.join(" ") }
}
