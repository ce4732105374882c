//! Runtime node state machines: one `act_*` per SAMML primitive behind
//! the single per-cycle [`Rt::step`].

use crate::chan::{Ctx, StepOutcome};
use crate::dram::AccessKind;
use crate::engine::SimError;
use crate::TimingConfig;
use fuseflow_sam::{AluOp, Block, MemLocation, NodeKind, Payload, Token};
use fuseflow_tensor::Level;
use std::collections::{BTreeMap, VecDeque};

/// The fiber being emitted: entries `fidx..len` of the fiber under `parent`
/// are still to go.
#[derive(Debug, Default)]
pub(crate) struct ScanState {
    parent: usize,
    len: usize,
    fidx: usize,
    emitting: bool,
}

#[derive(Debug, Default)]
pub(crate) struct RepState {
    cur_base: Option<Payload>,
}

#[derive(Debug, Default)]
pub(crate) struct SerState {
    cur: usize,
    pending_unit: bool,
    in_unit: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinMode {
    Intersect,
    Union,
    UnionLeft,
}

#[derive(Debug)]
pub(crate) enum State {
    Root { emitted: u8 },
    Scan(ScanState),
    Repeat(RepState),
    Join,
    Alu,
    Reduce { acc: Option<Payload> },
    Spacc { map: BTreeMap<u32, Payload> },
    Writer { tokens: Vec<Token> },
    CrdDrop { done0: bool, done1: bool },
    Par { rr: usize },
    Ser(SerState),
}

/// One output port.
#[derive(Debug, Clone, Default)]
pub(crate) struct OutPort {
    /// The port's fan-out channels, in the graph's edge order.
    pub(crate) chans: Vec<usize>,
    /// Tokens produced and not yet sent. They sit at the tail of every
    /// fan-out channel's `buf`, past its `visible` mark (all fan-out channels
    /// of a port hold the same staged tokens); an unconnected port has only
    /// this count, until the next flush drops it.
    pub(crate) staged: usize,
}

pub(crate) struct Rt {
    pub(crate) kind: NodeKind,
    pub(crate) label: String,
    pub(crate) state: State,
    pub(crate) in_chans: Vec<Option<usize>>,
    pub(crate) outs: Vec<OutPort>,
    /// Sum of the ports' `staged`, kept by [`emit`](Self::emit) and
    /// [`flush_phase`](Self::flush_phase): "anything staged?" is asked
    /// three times a step and must not walk the ports.
    n_staged: usize,
    pub(crate) pending_mem: VecDeque<(Token, u64, usize)>,
    pub(crate) busy_until: u64,
    pub(crate) ii_extra: u64,
    pub(crate) done: bool,
    pub(crate) elems: u64,
}

impl Rt {
    pub(crate) fn is_writer(&self) -> bool {
        matches!(self.kind, NodeKind::CrdWriter { .. } | NodeKind::ValWriter { .. })
    }

    pub(crate) fn finished(&self) -> bool {
        self.done && self.n_staged == 0 && self.pending_mem.is_empty()
    }

    /// Earliest future wake-up time held by this node (pending memory
    /// retirements or a busy ALU), if any.
    pub(crate) fn next_wake(&self, now: u64) -> Option<u64> {
        self.pending_mem
            .front()
            .map(|x| x.1)
            .into_iter()
            .chain((self.busy_until > now).then_some(self.busy_until))
            .filter(|&t| t > now)
            .min()
    }

    // -- channel access ----------------------------------------------------

    fn peek<'c>(&self, ctx: &'c Ctx, port: usize) -> Option<&'c Token> {
        self.in_chans[port].and_then(|c| ctx.chans[c].get(0))
    }

    /// The `idx`-th visible token of an input. Looking past the head is what
    /// [`reads_past_head`] declares: such a channel wakes this node on every
    /// publish, any other only when it stops being empty.
    fn peek_at<'c>(&self, ctx: &'c Ctx, port: usize, idx: usize) -> Option<&'c Token> {
        let ch = &ctx.chans[self.in_chans[port]?];
        debug_assert!(
            idx == 0 || ch.deep,
            "{}: read past the head of a channel not wired deep",
            self.label
        );
        ch.get(idx)
    }

    fn connected(&self, port: usize) -> bool {
        self.in_chans[port].is_some()
    }

    fn pop(&self, ctx: &mut Ctx, port: usize) -> Token {
        let c = self.in_chans[port].expect("pop from unconnected port");
        ctx.pop_chan(c)
    }

    /// Produces `tok` on an output port: written once per fan-out channel
    /// (cloned into all but the last, moved into the last), staged behind the
    /// `visible` mark until [`flush_phase`](Self::flush_phase) sends it.
    fn emit(&mut self, ctx: &mut Ctx, port: usize, tok: Token) {
        let out = &mut self.outs[port];
        out.staged += 1;
        self.n_staged += 1;
        if let Some((&last, rest)) = out.chans.split_last() {
            for &c in rest {
                ctx.chans[c].buf.push_back(tok.clone());
            }
            ctx.chans[last].buf.push_back(tok);
        }
    }

    /// Pops a coordinate-side token together with its payload companion (if
    /// the payload port is connected); returns the payload token.
    fn pop_side(&self, ctx: &mut Ctx, crd_port: usize, pay_port: usize) -> Option<Token> {
        let _crd = self.pop(ctx, crd_port);
        if self.connected(pay_port) {
            Some(self.pop(ctx, pay_port))
        } else {
            None
        }
    }

    /// Payload heads available whenever their crd side has a token?
    fn side_ready(&self, ctx: &Ctx, pay_port: usize) -> bool {
        !self.connected(pay_port) || self.peek(ctx, pay_port).is_some()
    }

    // -- the per-cycle step ------------------------------------------------

    /// Phase 1: send one staged token per output port, to all of the port's
    /// fan-out channels or (if any is full) to none. Returns
    /// `(progress, flush_blocked)`. Sending moves each channel's `visible`
    /// mark over a token that is already there.
    #[inline]
    fn flush_phase(&mut self, ctx: &mut Ctx) -> (bool, bool) {
        if self.n_staged == 0 {
            return (false, false);
        }
        let mut progress = false;
        let mut flush_blocked = false;
        for OutPort { chans: outs, staged } in &mut self.outs {
            if *staged == 0 {
                continue;
            }
            let Some(&first) = outs.first() else {
                // Unconnected port: discard. Until here its tokens counted as
                // staged, so the step that produced them did not act again.
                self.n_staged -= *staged;
                *staged = 0;
                continue;
            };
            if outs.iter().any(|&c| ctx.chans[c].is_full()) {
                flush_blocked = true;
                continue;
            }
            let ch = &ctx.chans[first];
            if ch.buf[ch.visible].is_elem() {
                self.elems += 1;
            }
            for &c in outs.iter() {
                ctx.publish(c);
            }
            *staged -= 1;
            self.n_staged -= 1;
            progress = true;
        }
        (progress, flush_blocked)
    }

    /// Phase 3: one action, if not busy and the flush left nothing staged
    /// (`clear`, read in [`step`](Self::step) before the retire).
    #[inline]
    fn act_phase(&mut self, ctx: &mut Ctx, clear: bool) -> Result<bool, SimError> {
        if self.done || ctx.now < self.busy_until || !clear {
            return Ok(false);
        }
        let acted = self.action(ctx)?;
        if acted {
            let ii = self.ii_extra;
            if ii > 0 {
                self.busy_until = ctx.now + 1 + ii;
            }
        }
        Ok(acted)
    }

    /// One cycle of this node: flush, retire, act.
    ///
    /// Whether the node may act is decided between the flush and the retire
    /// (`clear`): a token the flush could not send, or more than one per port
    /// left by an earlier action, holds the node back; what this step retires
    /// does not. So a scanner or an array that sent last cycle's token can
    /// retire the next one and issue a further request in the same cycle
    /// (II = 1), while a node facing a full channel stops issuing. At most
    /// one retire batch (bounded by `outstanding`) plus one action's output
    /// is ever staged behind a token that cannot leave.
    pub(crate) fn step(&mut self, ctx: &mut Ctx) -> Result<StepOutcome, SimError> {
        // Phase 1: send one staged token per output port.
        let (mut progress, flush_blocked) = self.flush_phase(ctx);
        let clear = self.n_staged == 0;

        // Phase 2: retire completed memory requests onto their output ports
        // (or drop them, for writers). They are staged here and sent by the
        // next step's flush.
        while let Some((_, ready, _)) = self.pending_mem.front() {
            if *ready > ctx.now {
                break;
            }
            let (tok, _, port) = self.pending_mem.pop_front().expect("nonempty");
            if !self.is_writer() {
                self.emit(ctx, port, tok);
            }
            progress = true;
        }

        // Phase 3: one action, if not busy and the flush left nothing staged.
        progress |= self.act_phase(ctx, clear)?;

        // Classify. A no-progress step never mutates node or channel state
        // (actions commit only after every precondition peek succeeds), so
        // the event scheduler may skip a node until one of the reported
        // wake conditions fires — this is the sweep-equivalence invariant.
        if progress {
            return Ok(StepOutcome::Progressed);
        }
        if self.finished() {
            return Ok(StepOutcome::Finished);
        }
        // After phase 2, any pending-memory head is strictly in the future,
        // so `next_wake` is exact here.
        if let Some(t) = self.next_wake(ctx.now) {
            return Ok(StepOutcome::SleepingUntil(t));
        }
        Ok(if flush_blocked { StepOutcome::BlockedOutput } else { StepOutcome::BlockedInput })
    }

    // -- individual node actions ------------------------------------------

    fn action(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        match &self.kind {
            NodeKind::Root => self.act_root(ctx),
            NodeKind::LevelScanner { .. } => self.act_scan(ctx),
            NodeKind::Repeat => self.act_repeat(ctx),
            NodeKind::Intersect => self.act_join(ctx, JoinMode::Intersect),
            NodeKind::Union => self.act_join(ctx, JoinMode::Union),
            NodeKind::UnionLeft => self.act_join(ctx, JoinMode::UnionLeft),
            NodeKind::Array { .. } => self.act_array(ctx),
            NodeKind::Alu { .. } => self.act_alu(ctx),
            NodeKind::Reduce { .. } => self.act_reduce(ctx),
            NodeKind::Spacc1 { .. } => self.act_spacc(ctx),
            NodeKind::CrdDrop => self.act_crddrop(ctx),
            NodeKind::CrdWriter { .. } | NodeKind::ValWriter { .. } => self.act_writer(ctx),
            NodeKind::Parallelizer { .. } => self.act_par(ctx),
            NodeKind::Serializer { .. } => self.act_ser(ctx),
        }
    }

    fn act_root(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let State::Root { emitted } = &mut self.state else { unreachable!() };
        match *emitted {
            0 => {
                *emitted = 1;
                self.emit(ctx, 0, Token::idx(0));
            }
            1 => {
                *emitted = 2;
                self.emit(ctx, 0, Token::Done);
                self.done = true;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn act_scan(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let NodeKind::LevelScanner { tensor, level } = self.kind else { unreachable!() };
        let compressed = matches!(ctx.tensors[tensor].level(level), Level::Compressed { .. });
        let in_dram = ctx.tensor_slots[tensor].location == MemLocation::Dram;
        let outstanding = ctx.cfg.timing.outstanding;

        let emitting = matches!(&self.state, State::Scan(s) if s.emitting);
        if emitting {
            let State::Scan(s) = &self.state else { unreachable!() };
            if s.fidx < s.len {
                // One request per element; it sits in the queue as a
                // (crd, ref) pair of entries.
                if self.pending_mem.len() >= 2 * outstanding {
                    return Ok(false);
                }
                let ready = if compressed && in_dram {
                    ctx.dram.request(ctx.now, 4, AccessKind::Stream, false)
                } else {
                    ctx.now
                };
                let State::Scan(s) = &mut self.state else { unreachable!() };
                let (c, p) = ctx.tensors[tensor].level(level).fiber_entry(s.parent, s.fidx);
                s.fidx += 1;
                self.pending_mem.push_back((Token::idx(c), ready, 0));
                self.pending_mem.push_back((Token::idx(p as u32), ready, 1));
                return Ok(true);
            }
            // Fiber boundary (stops flow through the in-order pending
            // queue so they never overtake memory-delayed elements).
            let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
            let head = head.clone();
            let State::Scan(s) = &mut self.state else { unreachable!() };
            s.emitting = false;
            let now = ctx.now;
            match head {
                Token::Elem(_) | Token::Done => {
                    self.pending_mem.push_back((Token::Stop(0), now, 0));
                    self.pending_mem.push_back((Token::Stop(0), now, 1));
                }
                Token::Stop(k) => {
                    self.pop(ctx, 0);
                    self.pending_mem.push_back((Token::Stop(k + 1), now, 0));
                    self.pending_mem.push_back((Token::Stop(k + 1), now, 1));
                }
            }
            return Ok(true);
        }

        // Idle: load the next fiber or forward boundaries.
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let head = head.clone();
        match head {
            Token::Elem(Payload::Idx(r)) => {
                self.pop(ctx, 0);
                if compressed && in_dram {
                    // pos-array read for the fiber bounds.
                    let _ = ctx.dram.request(ctx.now, 8, AccessKind::Stream, false);
                }
                let parent = r as usize;
                let len = ctx.tensors[tensor].level(level).fiber_len(parent);
                self.state = State::Scan(ScanState { parent, len, fidx: 0, emitting: true });
            }
            Token::Elem(Payload::Empty) => {
                self.pop(ctx, 0);
                // An empty reference scans to an empty fiber.
                self.state = State::Scan(ScanState { emitting: true, ..ScanState::default() });
            }
            Token::Elem(other) => {
                return Err(SimError::Semantics(format!("scanner received payload {other:?}")))
            }
            Token::Stop(k) => {
                self.pop(ctx, 0);
                let now = ctx.now;
                self.pending_mem.push_back((Token::Stop(k + 1), now, 0));
                self.pending_mem.push_back((Token::Stop(k + 1), now, 1));
            }
            Token::Done => {
                self.pop(ctx, 0);
                let now = ctx.now;
                self.pending_mem.push_back((Token::Done, now, 0));
                self.pending_mem.push_back((Token::Done, now, 1));
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_repeat(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let Some(rep_head) = self.peek(ctx, 1) else { return Ok(false) };
        let rep_head = rep_head.clone();
        match rep_head {
            Token::Elem(_) => {
                let loaded = matches!(&self.state, State::Repeat(r) if r.cur_base.is_some());
                if !loaded {
                    let Some(base) = self.peek(ctx, 0) else { return Ok(false) };
                    match base {
                        Token::Elem(p) => {
                            let p = p.clone();
                            self.pop(ctx, 0);
                            let State::Repeat(r) = &mut self.state else { unreachable!() };
                            r.cur_base = Some(p);
                        }
                        other => {
                            return Err(SimError::Semantics(format!(
                                "repeat expected base element, found {other:?}"
                            )))
                        }
                    }
                }
                self.pop(ctx, 1);
                let State::Repeat(r) = &self.state else { unreachable!() };
                let p = r.cur_base.clone().expect("loaded above");
                self.emit(ctx, 0, Token::Elem(p));
            }
            Token::Stop(k) => {
                // Close the pairing: discard the base element for this rep
                // fiber (it may be unloaded if the fiber was empty), then
                // consume the aligned base stop for k >= 1.
                let loaded = matches!(&self.state, State::Repeat(r) if r.cur_base.is_some());
                let mut base_idx = 0usize;
                if !loaded {
                    match self.peek_at(ctx, 0, base_idx) {
                        Some(Token::Elem(_)) => base_idx += 1, // will discard
                        Some(_) => {}
                        None => return Ok(false),
                    }
                }
                if k >= 1 {
                    match self.peek_at(ctx, 0, base_idx) {
                        Some(Token::Stop(bk)) if *bk == k - 1 => base_idx += 1,
                        Some(other) => {
                            return Err(SimError::Semantics(format!(
                                "repeat base misaligned: rep Stop({k}) vs base {other:?}"
                            )))
                        }
                        None => return Ok(false),
                    }
                }
                // Commit.
                self.pop(ctx, 1);
                for _ in 0..base_idx {
                    self.pop(ctx, 0);
                }
                let State::Repeat(r) = &mut self.state else { unreachable!() };
                r.cur_base = None;
                self.emit(ctx, 0, Token::Stop(k));
            }
            Token::Done => {
                match self.peek(ctx, 0) {
                    Some(Token::Done) => {}
                    Some(other) => {
                        return Err(SimError::Semantics(format!(
                            "repeat base should be Done, found {other:?}"
                        )))
                    }
                    None => return Ok(false),
                }
                self.pop(ctx, 1);
                self.pop(ctx, 0);
                self.emit(ctx, 0, Token::Done);
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_join(&mut self, ctx: &mut Ctx, mode: JoinMode) -> Result<bool, SimError> {
        let (Some(a), Some(b)) = (self.peek(ctx, 0), self.peek(ctx, 2)) else {
            return Ok(false);
        };
        let (a, b) = (a.clone(), b.clone());
        if !self.side_ready(ctx, 1) || !self.side_ready(ctx, 3) {
            return Ok(false);
        }
        match (&a, &b) {
            (Token::Elem(ca), Token::Elem(cb)) => {
                let (ia, ib) = (ca.idx(), cb.idx());
                if ia == ib {
                    let pa = self.pop_side(ctx, 0, 1);
                    let pb = self.pop_side(ctx, 2, 3);
                    self.emit(ctx, 0, Token::idx(ia));
                    if let Some(t) = pa {
                        self.emit(ctx, 1, t);
                    }
                    if let Some(t) = pb {
                        self.emit(ctx, 2, t);
                    }
                } else if ia < ib {
                    match mode {
                        JoinMode::Intersect => {
                            let _ = self.pop_side(ctx, 0, 1);
                        }
                        JoinMode::Union | JoinMode::UnionLeft => {
                            let pa = self.pop_side(ctx, 0, 1);
                            self.emit(ctx, 0, Token::idx(ia));
                            if let Some(t) = pa {
                                self.emit(ctx, 1, t);
                            }
                            self.emit(ctx, 2, Token::Elem(Payload::Empty));
                        }
                    }
                } else {
                    match mode {
                        JoinMode::Intersect | JoinMode::UnionLeft => {
                            let _ = self.pop_side(ctx, 2, 3);
                        }
                        JoinMode::Union => {
                            let pb = self.pop_side(ctx, 2, 3);
                            self.emit(ctx, 0, Token::idx(ib));
                            self.emit(ctx, 1, Token::Elem(Payload::Empty));
                            if let Some(t) = pb {
                                self.emit(ctx, 2, t);
                            }
                        }
                    }
                }
            }
            (Token::Elem(ca), Token::Stop(_)) => match mode {
                JoinMode::Intersect => {
                    let _ = self.pop_side(ctx, 0, 1);
                }
                JoinMode::Union | JoinMode::UnionLeft => {
                    let ia = ca.idx();
                    let pa = self.pop_side(ctx, 0, 1);
                    self.emit(ctx, 0, Token::idx(ia));
                    if let Some(t) = pa {
                        self.emit(ctx, 1, t);
                    }
                    self.emit(ctx, 2, Token::Elem(Payload::Empty));
                }
            },
            (Token::Stop(_), Token::Elem(cb)) => match mode {
                JoinMode::Intersect | JoinMode::UnionLeft => {
                    let _ = self.pop_side(ctx, 2, 3);
                }
                JoinMode::Union => {
                    let ib = cb.idx();
                    let pb = self.pop_side(ctx, 2, 3);
                    self.emit(ctx, 0, Token::idx(ib));
                    self.emit(ctx, 1, Token::Elem(Payload::Empty));
                    if let Some(t) = pb {
                        self.emit(ctx, 2, t);
                    }
                }
            },
            (Token::Stop(ka), Token::Stop(kb)) => {
                if ka != kb {
                    return Err(SimError::Semantics(format!(
                        "join stop mismatch: {ka} vs {kb} at {}",
                        self.label
                    )));
                }
                let k = *ka;
                let _ = self.pop_side(ctx, 0, 1);
                let _ = self.pop_side(ctx, 2, 3);
                self.emit(ctx, 0, Token::Stop(k));
                self.emit(ctx, 1, Token::Stop(k));
                self.emit(ctx, 2, Token::Stop(k));
            }
            (Token::Done, Token::Done) => {
                let _ = self.pop_side(ctx, 0, 1);
                let _ = self.pop_side(ctx, 2, 3);
                for q in 0..3 {
                    self.emit(ctx, q, Token::Done);
                }
                self.done = true;
            }
            (x, y) => {
                return Err(SimError::Semantics(format!(
                    "join token mismatch: {x:?} vs {y:?} at {}",
                    self.label
                )))
            }
        }
        Ok(true)
    }

    fn act_array(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let NodeKind::Array { tensor } = self.kind else { unreachable!() };
        if self.pending_mem.len() >= ctx.cfg.timing.outstanding {
            return Ok(false);
        }
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let head = head.clone();
        let t = ctx.tensors[tensor];
        let in_dram = ctx.tensor_slots[tensor].location == MemLocation::Dram;
        match head {
            Token::Elem(Payload::Idx(r)) => {
                self.pop(ctx, 0);
                let (payload, bytes) = if t.is_blocked() {
                    let [b0, b1] = t.block();
                    let blk = Block::new(b0, b1, t.val_block(r as usize).to_vec());
                    (Payload::Blk(blk), (b0 * b1 * 4) as u64)
                } else {
                    (Payload::F(t.val(r as usize)), 4)
                };
                let ready = if in_dram {
                    ctx.dram.request(ctx.now, bytes, AccessKind::Random, false)
                } else {
                    ctx.now
                };
                self.pending_mem.push_back((Token::Elem(payload), ready, 0));
            }
            Token::Elem(Payload::Empty) => {
                self.pop(ctx, 0);
                let payload = if t.is_blocked() {
                    let [b0, b1] = t.block();
                    Payload::Blk(Block::zeros(b0, b1))
                } else {
                    Payload::F(0.0)
                };
                self.pending_mem.push_back((Token::Elem(payload), ctx.now, 0));
            }
            Token::Elem(other) => {
                return Err(SimError::Semantics(format!("array received payload {other:?}")))
            }
            Token::Stop(k) => {
                self.pop(ctx, 0);
                self.pending_mem.push_back((Token::Stop(k), ctx.now, 0));
            }
            Token::Done => {
                self.pop(ctx, 0);
                self.pending_mem.push_back((Token::Done, ctx.now, 0));
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_alu(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let NodeKind::Alu { op } = self.kind else { unreachable!() };
        ctx.pending_busy = 0;
        if op.arity() == 1 {
            let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
            let head = head.clone();
            match head {
                Token::Elem(p) => {
                    self.pop(ctx, 0);
                    let out = alu_unary(ctx, op, p);
                    self.emit(ctx, 0, Token::Elem(out));
                }
                Token::Stop(k) => {
                    self.pop(ctx, 0);
                    self.emit(ctx, 0, Token::Stop(k));
                }
                Token::Done => {
                    self.pop(ctx, 0);
                    self.emit(ctx, 0, Token::Done);
                    self.done = true;
                }
            }
        } else {
            let (Some(a), Some(b)) = (self.peek(ctx, 0), self.peek(ctx, 1)) else {
                return Ok(false);
            };
            let (a, b) = (a.clone(), b.clone());
            match (a, b) {
                (Token::Elem(pa), Token::Elem(pb)) => {
                    self.pop(ctx, 0);
                    self.pop(ctx, 1);
                    let out = alu_combine(ctx, op, pa, pb)?;
                    self.emit(ctx, 0, Token::Elem(out));
                }
                (Token::Stop(ka), Token::Stop(kb)) if ka == kb => {
                    self.pop(ctx, 0);
                    self.pop(ctx, 1);
                    self.emit(ctx, 0, Token::Stop(ka));
                }
                (Token::Done, Token::Done) => {
                    self.pop(ctx, 0);
                    self.pop(ctx, 1);
                    self.emit(ctx, 0, Token::Done);
                    self.done = true;
                }
                (x, y) => {
                    return Err(SimError::Semantics(format!(
                        "alu stream misalignment: {x:?} vs {y:?} at {}",
                        self.label
                    )))
                }
            }
        }
        if ctx.pending_busy > 0 {
            self.busy_until = ctx.now + ctx.pending_busy;
        }
        Ok(true)
    }

    fn act_reduce(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let NodeKind::Reduce { op } = self.kind else { unreachable!() };
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let head = head.clone();
        match head {
            Token::Elem(p) => {
                self.pop(ctx, 0);
                let State::Reduce { acc } = &mut self.state else { unreachable!() };
                let mut extra_flops = 0u64;
                let new = match (acc.take(), p) {
                    (None, p) => p,
                    (Some(Payload::F(a)), Payload::F(b)) => {
                        extra_flops += 1;
                        Payload::F(op.apply(a, b))
                    }
                    (Some(Payload::F(a)), Payload::Empty)
                    | (Some(Payload::Empty), Payload::F(a)) => {
                        Payload::F(op.apply(a, op.identity()))
                    }
                    (Some(Payload::Blk(a)), Payload::Blk(b)) => {
                        extra_flops += a.len() as u64;
                        Payload::Blk(a.zip(&b, |x, y| op.apply(x, y)))
                    }
                    (Some(a), b) => {
                        return Err(SimError::Semantics(format!("reduce operands {a:?} / {b:?}")))
                    }
                };
                *acc = Some(new);
                ctx.flops += extra_flops;
            }
            Token::Stop(k) => {
                self.pop(ctx, 0);
                let State::Reduce { acc } = &mut self.state else { unreachable!() };
                let out = acc.take().unwrap_or(Payload::F(op.identity()));
                self.emit(ctx, 0, Token::Elem(out));
                if k >= 1 {
                    self.emit(ctx, 0, Token::Stop(k - 1));
                }
            }
            Token::Done => {
                self.pop(ctx, 0);
                self.emit(ctx, 0, Token::Done);
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_spacc(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let NodeKind::Spacc1 { op } = self.kind else { unreachable!() };
        let (Some(c), Some(v)) = (self.peek(ctx, 0), self.peek(ctx, 1)) else {
            return Ok(false);
        };
        let (c, v) = (c.clone(), v.clone());
        match (c, v) {
            (Token::Elem(pc), Token::Elem(pv)) => {
                self.pop(ctx, 0);
                self.pop(ctx, 1);
                let key = pc.idx();
                let mut extra_flops = 0u64;
                let State::Spacc { map } = &mut self.state else { unreachable!() };
                match map.entry(key) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(pv);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let merged = match (e.get().clone(), pv) {
                            (Payload::F(a), Payload::F(b)) => {
                                extra_flops += 1;
                                Payload::F(op.apply(a, b))
                            }
                            (Payload::Blk(a), Payload::Blk(b)) => {
                                extra_flops += a.len() as u64;
                                Payload::Blk(a.zip(&b, |x, y| op.apply(x, y)))
                            }
                            (Payload::Empty, p) | (p, Payload::Empty) => p,
                            (a, b) => {
                                return Err(SimError::Semantics(format!(
                                    "spacc operands {a:?} / {b:?}"
                                )))
                            }
                        };
                        e.insert(merged);
                    }
                }
                ctx.flops += extra_flops;
            }
            (Token::Stop(kc), Token::Stop(kv)) => {
                if kc != kv {
                    return Err(SimError::Semantics(format!("spacc stop mismatch {kc} vs {kv}")));
                }
                self.pop(ctx, 0);
                self.pop(ctx, 1);
                if kc >= 1 {
                    let State::Spacc { map } = &mut self.state else { unreachable!() };
                    let drained: Vec<(u32, Payload)> = std::mem::take(map).into_iter().collect();
                    for (c, v) in drained {
                        self.emit(ctx, 0, Token::idx(c));
                        self.emit(ctx, 1, Token::Elem(v));
                    }
                    self.emit(ctx, 0, Token::Stop(kc - 1));
                    self.emit(ctx, 1, Token::Stop(kc - 1));
                }
                // Stop(0) boundaries separate the fibers being accumulated:
                // keep accumulating.
            }
            (Token::Done, Token::Done) => {
                self.pop(ctx, 0);
                self.pop(ctx, 1);
                let State::Spacc { map } = &self.state else { unreachable!() };
                if !map.is_empty() {
                    return Err(SimError::Semantics(
                        "spacc reached Done with unflushed state".into(),
                    ));
                }
                self.emit(ctx, 0, Token::Done);
                self.emit(ctx, 1, Token::Done);
                self.done = true;
            }
            (x, y) => {
                return Err(SimError::Semantics(format!(
                    "spacc stream misalignment: {x:?} vs {y:?}"
                )))
            }
        }
        Ok(true)
    }

    fn act_crddrop(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let mut progress = false;
        for port in 0..2 {
            if self.peek(ctx, port).is_some() {
                let tok = self.pop(ctx, port);
                let State::CrdDrop { done0, done1 } = &mut self.state else { unreachable!() };
                if tok == Token::Done {
                    if port == 0 {
                        *done0 = true;
                    } else {
                        *done1 = true;
                    }
                }
                let finished = *done0 && *done1;
                self.emit(ctx, port, tok);
                if finished {
                    self.done = true;
                }
                progress = true;
            }
        }
        Ok(progress)
    }

    fn act_writer(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        if self.pending_mem.len() >= ctx.cfg.timing.outstanding {
            return Ok(false);
        }
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let head = head.clone();
        let output = match self.kind {
            NodeKind::CrdWriter { output, .. } | NodeKind::ValWriter { output } => output,
            _ => unreachable!(),
        };
        let in_dram = ctx.output_slots[output].location == MemLocation::Dram;
        self.pop(ctx, 0);
        if let Token::Elem(p) = &head {
            let bytes = match p {
                Payload::Blk(b) => (b.len() * 4) as u64,
                _ => 4,
            };
            let ready = if in_dram {
                ctx.dram.request(ctx.now, bytes, AccessKind::Stream, true)
            } else {
                ctx.now
            };
            self.pending_mem.push_back((Token::Stop(0), ready, 0));
            self.elems += 1;
        }
        if head == Token::Done {
            self.done = true;
        }
        let State::Writer { tokens } = &mut self.state else { unreachable!() };
        tokens.push(head);
        Ok(true)
    }

    fn act_par(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let NodeKind::Parallelizer { factor } = self.kind else { unreachable!() };
        let has_payload = self.connected(1);
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let head = head.clone();
        if has_payload && self.peek(ctx, 1).is_none() {
            return Ok(false);
        }
        match head {
            Token::Elem(_) => {
                let c = self.pop(ctx, 0);
                let State::Par { rr } = &mut self.state else { unreachable!() };
                let b = *rr;
                *rr = (*rr + 1) % factor;
                self.emit(ctx, 2 * b, c);
                if has_payload {
                    let p = self.pop(ctx, 1);
                    self.emit(ctx, 2 * b + 1, p);
                }
            }
            Token::Stop(k) => {
                self.pop(ctx, 0);
                if has_payload {
                    let p = self.pop(ctx, 1);
                    if p != Token::Stop(k) {
                        return Err(SimError::Semantics(format!(
                            "parallelizer payload misaligned: {p:?} vs Stop({k})"
                        )));
                    }
                }
                let State::Par { rr } = &mut self.state else { unreachable!() };
                *rr = 0;
                for b in 0..factor {
                    self.emit(ctx, 2 * b, Token::Stop(k));
                    if has_payload {
                        self.emit(ctx, 2 * b + 1, Token::Stop(k));
                    }
                }
            }
            Token::Done => {
                self.pop(ctx, 0);
                if has_payload {
                    self.pop(ctx, 1);
                }
                for b in 0..factor {
                    self.emit(ctx, 2 * b, Token::Done);
                    if has_payload {
                        self.emit(ctx, 2 * b + 1, Token::Done);
                    }
                }
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_ser(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let NodeKind::Serializer { factor, depth } = self.kind else { unreachable!() };
        let order_port = factor;
        let (cur, in_unit, pending) = {
            let State::Ser(st) = &self.state else { unreachable!() };
            (st.cur, st.in_unit, st.pending_unit)
        };

        if in_unit {
            // Pull the current unit's tokens from branch `cur`.
            let Some(head) = self.peek(ctx, cur) else { return Ok(false) };
            let head = head.clone();
            match head {
                Token::Elem(_) => {
                    let tok = self.pop(ctx, cur);
                    self.emit(ctx, 0, tok);
                }
                Token::Stop(k) if depth >= 1 && k == depth - 1 => {
                    // Ordinary unit boundary.
                    self.pop(ctx, cur);
                    let State::Ser(st) = &mut self.state else { unreachable!() };
                    st.in_unit = false;
                    st.pending_unit = true;
                    st.cur = (st.cur + 1) % factor;
                }
                Token::Stop(k) if k + 1 < depth => {
                    // Interior stop: part of this unit.
                    let tok = self.pop(ctx, cur);
                    self.emit(ctx, 0, tok);
                }
                Token::Stop(_) => {
                    // The unit's boundary coalesced into a barrier stop: the
                    // unit is over, but the barrier token is consumed later
                    // by the order-stream barrier action.
                    let State::Ser(st) = &mut self.state else { unreachable!() };
                    st.in_unit = false;
                    st.pending_unit = true;
                    st.cur = (st.cur + 1) % factor;
                }
                Token::Done => {
                    return Err(SimError::Semantics("serializer branch finished mid-unit".into()))
                }
            }
            return Ok(true);
        }

        let Some(order_head) = self.peek(ctx, order_port) else { return Ok(false) };
        let order_head = order_head.clone();
        match order_head {
            Token::Elem(_) => {
                if pending {
                    // Close the previous unit before starting the next one.
                    self.emit(ctx, 0, Token::Stop(depth - 1));
                    let State::Ser(st) = &mut self.state else { unreachable!() };
                    st.pending_unit = false;
                    return Ok(true);
                }
                if depth == 0 {
                    // Units are single elements.
                    let Some(bh) = self.peek(ctx, cur) else { return Ok(false) };
                    match bh {
                        Token::Elem(_) => {
                            self.pop(ctx, order_port);
                            let tok = self.pop(ctx, cur);
                            self.emit(ctx, 0, tok);
                            let State::Ser(st) = &mut self.state else { unreachable!() };
                            st.cur = (st.cur + 1) % factor;
                        }
                        other => {
                            return Err(SimError::Semantics(format!(
                                "serializer depth-0 expected element, found {other:?}"
                            )))
                        }
                    }
                } else {
                    // Check for a coalesced-empty unit before committing.
                    let Some(bh) = self.peek(ctx, cur) else { return Ok(false) };
                    let coalesced = matches!(bh, Token::Stop(k) if *k >= depth);
                    self.pop(ctx, order_port);
                    let State::Ser(st) = &mut self.state else { unreachable!() };
                    if coalesced {
                        st.pending_unit = true;
                        st.cur = (st.cur + 1) % factor;
                    } else {
                        st.in_unit = true;
                    }
                }
            }
            Token::Stop(k) => {
                // Barrier: every branch holds the corresponding deeper stop.
                for b in 0..factor {
                    match self.peek(ctx, b) {
                        Some(Token::Stop(bk)) if *bk == k + depth => {}
                        Some(other) => {
                            return Err(SimError::Semantics(format!(
                                "serializer barrier mismatch on branch {b}: {other:?} vs Stop({})",
                                k + depth
                            )))
                        }
                        None => return Ok(false),
                    }
                }
                self.pop(ctx, order_port);
                for b in 0..factor {
                    self.pop(ctx, b);
                }
                self.emit(ctx, 0, Token::Stop(k + depth));
                let State::Ser(st) = &mut self.state else { unreachable!() };
                st.pending_unit = false;
                st.cur = 0;
            }
            Token::Done => {
                for b in 0..factor {
                    match self.peek(ctx, b) {
                        Some(Token::Done) => {}
                        Some(other) => {
                            return Err(SimError::Semantics(format!(
                                "serializer expected branch Done, found {other:?}"
                            )))
                        }
                        None => return Ok(false),
                    }
                }
                self.pop(ctx, order_port);
                for b in 0..factor {
                    self.pop(ctx, b);
                }
                self.emit(ctx, 0, Token::Done);
                self.done = true;
            }
        }
        Ok(true)
    }
}

// -- ALU payload combiners (charge FLOPs / occupancy through the context) ---

fn alu_combine(ctx: &mut Ctx, op: AluOp, a: Payload, b: Payload) -> Result<Payload, SimError> {
    let lanes = ctx.cfg.timing.block_lanes_factor;
    Ok(match (a, b) {
        (Payload::F(x), Payload::F(y)) => {
            ctx.flops += op.flops_per_elem();
            Payload::F(op.apply_scalar(x, y))
        }
        (Payload::Empty, Payload::F(y)) => {
            ctx.flops += op.flops_per_elem();
            Payload::F(op.apply_scalar(0.0, y))
        }
        (Payload::F(x), Payload::Empty) => {
            ctx.flops += op.flops_per_elem();
            Payload::F(op.apply_scalar(x, 0.0))
        }
        (Payload::Empty, Payload::Empty) => Payload::F(op.apply_scalar(0.0, 0.0)),
        (Payload::Blk(x), Payload::Blk(y)) => {
            let blk = match op {
                AluOp::Mul => {
                    // Tile contraction: b^2-lane unit retires one column
                    // per cycle.
                    ctx.flops += 2 * (x.rows() * x.cols() * y.cols()) as u64;
                    let busy = (y.cols() as f64 / lanes).ceil() as u64;
                    ctx.busy(busy);
                    x.matmul(&y)
                }
                AluOp::BlockColDiv => {
                    ctx.flops += x.len() as u64;
                    x.broadcast_col(&y, |p, q| AluOp::Div.apply_scalar(p, q))
                }
                AluOp::BlockColSub => {
                    ctx.flops += x.len() as u64;
                    x.broadcast_col(&y, |p, q| p - q)
                }
                other => {
                    ctx.flops += x.len() as u64 * other.flops_per_elem();
                    x.zip(&y, |p, q| other.apply_scalar(p, q))
                }
            };
            Payload::Blk(blk)
        }
        (Payload::Blk(x), Payload::F(s)) => {
            ctx.flops += x.len() as u64;
            Payload::Blk(x.map(|v| op.apply_scalar(v, s)))
        }
        (Payload::F(s), Payload::Blk(y)) => {
            ctx.flops += y.len() as u64;
            Payload::Blk(y.map(|v| op.apply_scalar(s, v)))
        }
        (Payload::Empty, Payload::Blk(y)) => {
            ctx.flops += y.len() as u64;
            let z = Block::zeros(y.rows(), y.cols());
            Payload::Blk(z.zip(&y, |p, q| op.apply_scalar(p, q)))
        }
        (Payload::Blk(x), Payload::Empty) => {
            ctx.flops += x.len() as u64;
            match op {
                AluOp::BlockColDiv | AluOp::BlockColSub => {
                    let z = Block::zeros(x.rows(), 1);
                    Payload::Blk(x.broadcast_col(&z, |p, q| op.apply_scalar(p, q)))
                }
                _ => {
                    let z = Block::zeros(x.rows(), x.cols());
                    Payload::Blk(x.zip(&z, |p, q| op.apply_scalar(p, q)))
                }
            }
        }
        (a, b) => return Err(SimError::Semantics(format!("alu operands {a:?} / {b:?}"))),
    })
}

fn alu_unary(ctx: &mut Ctx, op: AluOp, a: Payload) -> Payload {
    match a {
        Payload::F(x) => {
            ctx.flops += op.flops_per_elem();
            Payload::F(op.apply_scalar(x, 0.0))
        }
        Payload::Empty => Payload::F(op.apply_scalar(0.0, 0.0)),
        Payload::Blk(x) => {
            ctx.flops += x.len() as u64 * op.flops_per_elem();
            let blk = match op {
                AluOp::BlockRowSum => x.row_reduce(0.0, |a, b| a + b),
                AluOp::BlockRowMax => x.row_reduce(f32::MIN, f32::max),
                other => x.map(|v| other.apply_scalar(v, 0.0)),
            };
            Payload::Blk(blk)
        }
        Payload::Idx(_) => unreachable!("validated streams never feed crd into ALU"),
    }
}

/// Does a node of this kind look past the head of the input channel on
/// `port` (call [`Rt::peek_at`] with `idx > 0`)? Such a reader can be blocked
/// on a channel that is not empty, so the channel is wired [`deep`] and every
/// publish wakes it. Today that is `Repeat`'s base port alone: closing a
/// fiber, it needs the base element and the base stop behind it at once.
///
/// [`deep`]: crate::chan::Chan::deep
pub(crate) fn reads_past_head(kind: &NodeKind, port: usize) -> bool {
    matches!(kind, NodeKind::Repeat) && port == 0
}

pub(crate) fn make_rt(
    kind: NodeKind,
    label: String,
    in_chans: Vec<Option<usize>>,
    out_chans: Vec<Vec<usize>>,
    timing: &TimingConfig,
) -> Rt {
    let state = match &kind {
        NodeKind::Root => State::Root { emitted: 0 },
        NodeKind::LevelScanner { .. } => State::Scan(ScanState::default()),
        NodeKind::Repeat => State::Repeat(RepState::default()),
        NodeKind::Intersect | NodeKind::Union | NodeKind::UnionLeft => State::Join,
        NodeKind::Array { .. } => State::Alu,
        NodeKind::Alu { .. } => State::Alu,
        NodeKind::Reduce { .. } => State::Reduce { acc: None },
        NodeKind::Spacc1 { .. } => State::Spacc { map: BTreeMap::new() },
        NodeKind::CrdWriter { .. } | NodeKind::ValWriter { .. } => {
            State::Writer { tokens: Vec::new() }
        }
        NodeKind::CrdDrop => State::CrdDrop { done0: false, done1: false },
        NodeKind::Parallelizer { .. } => State::Par { rr: 0 },
        NodeKind::Serializer { .. } => State::Ser(SerState::default()),
    };
    let outs = out_chans.into_iter().map(|chans| OutPort { chans, staged: 0 }).collect();
    let ii = (timing.ii_extra)(&kind);
    Rt {
        kind,
        label,
        state,
        in_chans,
        outs,
        n_staged: 0,
        pending_mem: VecDeque::new(),
        busy_until: 0,
        ii_extra: ii,
        done: false,
        elems: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::{Chan, NO_NODE};
    use crate::{simulate, Scheduler, SimConfig, TensorEnv};
    use fuseflow_sam::{ReduceOp, SamGraph};
    use fuseflow_tensor::{Format, SparseTensor};

    /// `Spacc1` drains a three-entry map (and the stop behind it) in one
    /// action into a port that fans out to two channels of capacity 1: four
    /// tokens staged on a port whose channels hold one. They must come out in
    /// order, at most one per cycle, and to both channels or neither, also
    /// while one of the two readers lags.
    #[test]
    fn port_staging_more_than_the_capacity_delivers_in_order_one_per_cycle() {
        let cfg = SimConfig::default();
        let crd = vec![Token::idx(3), Token::idx(1), Token::idx(2), Token::Stop(1), Token::Done];
        let val =
            vec![Token::val(30.0), Token::val(10.0), Token::val(20.0), Token::Stop(1), Token::Done];
        let out = || Chan::new(1, 0, NO_NODE, false);
        let chans = vec![Chan::seeded(crd, false), Chan::seeded(val, false), out(), out(), out()];
        let mut ctx = Ctx::bare(chans, &cfg, 1);
        let mut rt = make_rt(
            NodeKind::Spacc1 { op: ReduceOp::Sum },
            "spacc".into(),
            vec![Some(0), Some(1)],
            vec![vec![2, 3], vec![4]],
            &cfg.timing,
        );

        let mut got: [Vec<Token>; 3] = Default::default();
        let mut most_staged = 0;
        for cycle in 0..64 {
            ctx.now = cycle;
            let sent_before = got.each_ref().map(Vec::len);
            let outcome = rt.step(&mut ctx).unwrap();
            most_staged = most_staged.max(rt.outs[0].staged);
            for (i, c) in (2..5).enumerate() {
                // The slow reader of the crd port's second channel pops every
                // other cycle; the others pop whatever they are shown.
                if ctx.chans[c].visible == 1 && (c != 3 || cycle % 2 == 0) {
                    got[i].push(ctx.pop_chan(c));
                }
                let sent = got[i].len() + ctx.chans[c].visible;
                assert!(sent <= sent_before[i] + 1, "cycle {cycle}: two tokens into channel {c}");
            }
            let sent = |i: usize, c: usize| got[i].len() + ctx.chans[c].visible;
            assert_eq!(sent(0, 2), sent(1, 3), "cycle {cycle}: fan-out channels out of step");
            if outcome == StepOutcome::Finished {
                break;
            }
        }
        assert!(rt.finished(), "not drained in 64 cycles");
        assert_eq!(most_staged, 4, "the drain should stage the whole map at once");
        let crd_out =
            vec![Token::idx(1), Token::idx(2), Token::idx(3), Token::Stop(0), Token::Done];
        assert_eq!(got[0], crd_out);
        assert_eq!(got[1], crd_out);
        let val_out =
            vec![Token::val(10.0), Token::val(20.0), Token::val(30.0), Token::Stop(0), Token::Done];
        assert_eq!(got[2], val_out);
    }

    /// Closing an empty repeat fiber under `Stop(1)`, `Repeat` needs the base
    /// element *and* the base stop behind it. With only the element there it
    /// is blocked on a channel that is not empty, so the publish that
    /// delivers the stop must wake it: the one case the empty -> non-empty
    /// wake filter has to exempt.
    #[test]
    fn repeat_blocked_past_the_head_is_woken_by_a_publish_into_its_nonempty_base() {
        let cfg = SimConfig::default();
        assert!(reads_past_head(&NodeKind::Repeat, 0) && !reads_past_head(&NodeKind::Repeat, 1));
        // The node under test has rank 1; rank 0 stands for the base's writer.
        let mut base = Chan::new(8, 0, 1, reads_past_head(&NodeKind::Repeat, 0));
        base.buf.extend([Token::val(5.0), Token::Stop(0)]);
        let chans =
            vec![base, Chan::seeded([Token::Stop(1)], false), Chan::new(8, 1, NO_NODE, false)];
        let mut ctx = Ctx::bare(chans, &cfg, 2);
        let mut rt = make_rt(
            NodeKind::Repeat,
            "repeat".into(),
            vec![Some(0), Some(1)],
            vec![vec![2]],
            &cfg.timing,
        );
        ctx.publish(0);
        assert_eq!(ctx.cur.pop_ge(0), Some(1), "empty -> non-empty");
        assert_eq!(rt.step(&mut ctx).unwrap(), StepOutcome::BlockedInput);
        assert_eq!(ctx.chans[0].visible, 1, "blocked on a channel that is not empty");
        ctx.publish(0);
        assert_eq!(ctx.cur.pop_ge(0), Some(1), "a deep reader is woken by every publish");
        assert_eq!(rt.step(&mut ctx).unwrap(), StepOutcome::Progressed);
        assert_eq!(ctx.chans[0].buf.len(), 0, "element and stop consumed together");
        assert_eq!(ctx.chans[2].buf.back(), Some(&Token::Stop(1)));

        // The same state reached by a whole graph. The base values leave a
        // slow `Array` (one token every four cycles) while the repeat stream,
        // two empty fibers, is there at once: `Repeat` blocks with the second
        // base value in hand until the base stop arrives four cycles later.
        let mut g = SamGraph::new();
        let v = g.add_tensor("V", MemLocation::OnChip);
        let e = g.add_tensor("E", MemLocation::OnChip);
        let o = g.add_output("O", vec![2, 3], Format::csr(), MemLocation::OnChip);
        let root_v = g.add_node(NodeKind::Root);
        let vi = g.add_node(NodeKind::LevelScanner { tensor: v, level: 0 });
        let arr = g.add_node(NodeKind::Array { tensor: v });
        let root_e = g.add_node(NodeKind::Root);
        let ei = g.add_node(NodeKind::LevelScanner { tensor: e, level: 0 });
        let ej = g.add_node(NodeKind::LevelScanner { tensor: e, level: 1 });
        let rep = g.add_node(NodeKind::Repeat);
        let wc0 = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
        let wc1 = g.add_node(NodeKind::CrdWriter { output: o, level: 1 });
        let wv = g.add_node(NodeKind::ValWriter { output: o });
        g.connect(root_v, 0, vi, 0);
        g.connect(vi, 1, arr, 0);
        g.connect(arr, 0, rep, 0);
        g.connect(root_e, 0, ei, 0);
        g.connect(ei, 0, wc0, 0);
        g.connect(ei, 1, ej, 0);
        g.connect(ej, 0, wc1, 0);
        g.connect(ej, 0, rep, 1);
        g.connect(rep, 0, wv, 0);
        let mut env = TensorEnv::new();
        let entries = vec![(vec![0], 1.0), (vec![1], 2.0)];
        env.insert("V", SparseTensor::from_coo(vec![2], entries, &Format::dense(1)).unwrap());
        env.insert("E", SparseTensor::from_coo(vec![2, 3], vec![], &Format::csr()).unwrap());
        let mut cfg = SimConfig::default();
        cfg.timing.ii_extra = |k| if matches!(k, NodeKind::Array { .. }) { 3 } else { 0 };
        let [event, sweep] = [Scheduler::Event, Scheduler::Sweep]
            .map(|s| simulate(&g, &env, &cfg.clone().with_scheduler(s)).unwrap());
        assert_eq!(event.stats.semantic(), sweep.stats.semantic());
        assert_eq!(event.outputs, sweep.outputs);
        assert!(event.stats.cycles > 12, "the array should have paced the run");
    }
}
