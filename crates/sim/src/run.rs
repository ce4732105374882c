//! The loops that run the machine: the event-driven production loop, the
//! dense-sweep oracle, and the single-node standalone runner. Each drives
//! the node table over one [`Ctx`]. The table is stored in rank order (the
//! graph's topological `order`: `nodes[rank]` is node `order[rank]`), which is
//! how channels and ready sets name nodes; `order` itself is read only to name
//! nodes by id in a deadlock report.

use crate::chan::{Ctx, StepOutcome};
use crate::engine::SimError;
use crate::node::{Rt, Step};
use crate::sched::WakeQueue;
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
/// * a publish into an empty channel wakes its reader in the *current*
///   cycle: a reader is downstream of its writer, so its rank is still
///   ahead of the drain cursor and the sweep would reach it later this
///   cycle. A publish into a channel that already holds a token wakes
///   nobody: every node's step depends on its input heads only, and that
///   head has not changed;
/// * a pop that takes a channel from full to not full wakes its writer in
///   the *next* cycle: the cursor has passed it, as the sweep has;
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
pub(crate) fn run_event(order: &[NodeId], nodes: &mut [Rt], ctx: &mut Ctx) -> Step<()> {
    let n = nodes.len();
    // By rank: is this node a writer that has not finished yet?
    let mut writer_live: Vec<bool> =
        nodes.iter().map(|rt| rt.is_writer() && !rt.io.finished()).collect();
    let mut live_writers = writer_live.iter().filter(|&&w| w).count();

    // The channels insert their own wakes into `ctx.cur` and `ctx.next`
    // (they name their endpoints by rank); this loop adds the stepped node.
    for rank in 0..n {
        ctx.cur.insert(rank);
    }
    let mut timers = WakeQueue::new(n);

    loop {
        // Drain this cycle's ready set in ascending rank (= sweep order).
        let mut stepped = 0u64;
        let mut pos = 0;
        while let Some(rank) = ctx.cur.pop_ge(pos) {
            pos = rank;
            let node = &mut nodes[rank];
            match node.step(ctx)? {
                StepOutcome::Progressed => ctx.next.insert(rank),
                StepOutcome::SleepingUntil(t) => timers.schedule(ctx.now, t, rank as u32),
                StepOutcome::Idle => {}
            }
            stepped += 1;
            if writer_live[rank] && node.io.finished() {
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
        let t_next = if !ctx.next.is_empty() {
            ctx.now + 1
        } else {
            match timers.next_time() {
                Some(t) => t,
                None => return Err(deadlock(order, nodes, ctx)),
            }
        };
        ctx.sched.cycles_skipped += t_next - ctx.now - 1;
        ctx.now = t_next;
        if ctx.now > ctx.cfg.max_cycles {
            return Err(Box::new(SimError::MaxCycles(ctx.cfg.max_cycles)));
        }
        std::mem::swap(&mut ctx.cur, &mut ctx.next);
        timers.drain_at(ctx.now, &mut ctx.cur);
    }
}

/// The legacy dense sweep: every node steps at every visited cycle.
/// Kept as the differential-testing oracle for the event scheduler
/// ([`Scheduler::Sweep`](crate::Scheduler::Sweep)).
pub(crate) fn run_sweep(order: &[NodeId], nodes: &mut [Rt], ctx: &mut Ctx) -> Step<()> {
    loop {
        let mut progress = false;
        for node in nodes.iter_mut() {
            progress |= node.step(ctx)? == StepOutcome::Progressed;
        }
        ctx.sched.events += nodes.len() as u64;
        ctx.sched.peak_ready = ctx.sched.peak_ready.max(nodes.len() as u64);
        if nodes.iter().all(|n| !n.is_writer() || n.io.finished()) {
            ctx.now += 1;
            return Ok(());
        }
        if progress {
            ctx.now += 1;
        } else {
            // Distinguish stalls on memory latency / initiation intervals
            // from true deadlock: fast-forward to the next wake-up time.
            let now = ctx.now;
            match nodes.iter().filter_map(|n| n.io.next_wake(now)).min() {
                Some(t) => {
                    ctx.sched.cycles_skipped += t - ctx.now - 1;
                    ctx.now = t;
                }
                None => return Err(deadlock(order, nodes, ctx)),
            }
        }
        if ctx.now > ctx.cfg.max_cycles {
            return Err(Box::new(SimError::MaxCycles(ctx.cfg.max_cycles)));
        }
    }
}

/// Runs a single isolated node until it can make no further progress,
/// fast-forwarding over busy/memory stalls exactly like the loops above do.
pub(crate) fn run_standalone(node: &mut Rt, ctx: &mut Ctx, budget: u64) -> Step<()> {
    loop {
        match node.step(ctx)? {
            StepOutcome::Progressed => ctx.now += 1,
            // Stalled on `busy_until` / in-flight memory, which still
            // holds undelivered output: jump to the wake-up time.
            StepOutcome::SleepingUntil(t) => ctx.now = t,
            // Exhausted inputs (or finished): the stream is complete.
            StepOutcome::Idle => return Ok(()),
        }
        if ctx.now > budget {
            return Err(Box::new(SimError::MaxCycles(budget)));
        }
    }
}

/// The deadlock report at the machine's current cycle: every unfinished
/// node, in node-id order. `in:` is what each input channel shows its reader,
/// `outq:` what each output port has staged, `pend:` the tokens its requests
/// in flight will put out (a scanner's entry carries two); the table and the
/// channels name nodes by rank, the report by node id.
#[cold]
fn deadlock(order: &[NodeId], nodes: &[Rt], ctx: &Ctx) -> Box<SimError> {
    let mut by_id: Vec<(usize, &Rt)> = order.iter().map(|id| id.0).zip(nodes).collect();
    by_id.sort_unstable_by_key(|&(i, _)| i);
    let mut parts = Vec::new();
    for (i, n) in by_id.into_iter().map(|(i, n)| (i, &n.io)) {
        if !n.finished() {
            let ins: Vec<String> = n
                .in_chans
                .iter()
                .map(|c| match c {
                    Some(id) => format!("{}", ctx.chans[*id].visible),
                    None => "-".into(),
                })
                .collect();
            let outs: Vec<String> = n.outs.iter().map(|o| o.staged.to_string()).collect();
            // Name every at-capacity output channel this node is trying to
            // flush into: the channel whose capacity the deadlock is about.
            let mut full = Vec::new();
            for (p, out) in n.outs.iter().enumerate() {
                if out.staged == 0 {
                    continue;
                }
                for ch in out.chans.iter().map(|&c| &ctx.chans[c]).filter(|ch| ch.is_full()) {
                    let reader = ch.reader as usize;
                    full.push(format!(
                        "out{p}->{}#{} at cap {}",
                        nodes[reader].io.label, order[reader].0, ch.cap
                    ));
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
                n.pending_mem.iter().map(|e| 1 + usize::from(e.2.is_some())).sum::<usize>(),
                n.done,
                n.busy_until,
                why
            ));
        }
    }
    Box::new(SimError::Deadlock { cycle: ctx.now, detail: parts.join(" ") })
}
