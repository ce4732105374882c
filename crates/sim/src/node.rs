//! Runtime node state machines: one `act_*` per SAMML primitive behind
//! the single per-cycle [`Rt::step`].

use crate::chan::{Ctx, StepOutcome};
use crate::dram::AccessKind;
use crate::engine::SimError;
use crate::TimingConfig;
use fuseflow_sam::{AluOp, Block, MemLocation, NodeKind, Payload, Token};
use fuseflow_tensor::Level;
use std::collections::{BTreeMap, VecDeque};

#[derive(Debug, Default)]
pub(crate) struct ScanState {
    fiber: Vec<(u32, usize)>,
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

pub(crate) struct Rt {
    pub(crate) kind: NodeKind,
    pub(crate) label: String,
    pub(crate) state: State,
    pub(crate) in_chans: Vec<Option<usize>>,
    pub(crate) out_chans: Vec<Vec<usize>>,
    pub(crate) out_q: Vec<VecDeque<Token>>,
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
        self.done && self.out_q.iter().all(|q| q.is_empty()) && self.pending_mem.is_empty()
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
        self.in_chans[port].and_then(|c| ctx.chans[c].buf.front())
    }

    fn peek_at<'c>(&self, ctx: &'c Ctx, port: usize, idx: usize) -> Option<&'c Token> {
        self.in_chans[port].and_then(|c| ctx.chans[c].buf.get(idx))
    }

    fn connected(&self, port: usize) -> bool {
        self.in_chans[port].is_some()
    }

    fn pop(&self, ctx: &mut Ctx, port: usize) -> Token {
        let c = self.in_chans[port].expect("pop from unconnected port");
        ctx.pop_chan(c)
    }

    /// Can one token be pushed to every fan-out channel of this port?
    fn can_flush(&self, ctx: &Ctx, port: usize) -> bool {
        self.out_chans[port].iter().all(|&c| ctx.chans[c].buf.len() < ctx.chans[c].cap)
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

    /// Phase 1: flush one queued token per output port. Returns
    /// `(progress, flush_blocked)`. The token is cloned into all but the
    /// last fan-out channel and moved into the last, so the common
    /// fan-out-1 port never clones.
    #[inline]
    fn flush_phase(&mut self, ctx: &mut Ctx) -> (bool, bool) {
        let mut progress = false;
        let mut flush_blocked = false;
        for port in 0..self.out_q.len() {
            if self.out_q[port].is_empty() {
                continue;
            }
            let Some((&last, rest)) = self.out_chans[port].split_last() else {
                // Unconnected port: discard.
                self.out_q[port].clear();
                continue;
            };
            if self.can_flush(ctx, port) {
                let tok = self.out_q[port].pop_front().expect("nonempty");
                if tok.is_elem() {
                    self.elems += 1;
                }
                for &c in rest {
                    ctx.push_chan(c, tok.clone());
                }
                ctx.push_chan(last, tok);
                progress = true;
            } else {
                flush_blocked = true;
            }
        }
        (progress, flush_blocked)
    }

    /// Phase 3: one action, if not busy and output queues drained.
    #[inline]
    fn act_phase(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        if self.done || ctx.now < self.busy_until || self.out_q.iter().any(|q| !q.is_empty()) {
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

    pub(crate) fn step(&mut self, ctx: &mut Ctx) -> Result<StepOutcome, SimError> {
        // Phase 1: flush one queued token per output port.
        let (mut progress, flush_blocked) = self.flush_phase(ctx);

        // Phase 2: retire completed memory requests into the output queues
        // (or drop them, for writers).
        while let Some((_, ready, _)) = self.pending_mem.front() {
            if *ready > ctx.now {
                break;
            }
            let (tok, _, port) = self.pending_mem.pop_front().expect("nonempty");
            if !self.is_writer() {
                self.out_q[port].push_back(tok);
            }
            progress = true;
        }

        // Phase 3: one action, if not busy and output queues drained.
        progress |= self.act_phase(ctx)?;

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
            NodeKind::Root => self.act_root(),
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

    fn act_root(&mut self) -> Result<bool, SimError> {
        let State::Root { emitted } = &mut self.state else { unreachable!() };
        match *emitted {
            0 => {
                *emitted = 1;
                self.out_q[0].push_back(Token::idx(0));
            }
            1 => {
                *emitted = 2;
                self.out_q[0].push_back(Token::Done);
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
            let (cur, len) = match &self.state {
                State::Scan(s) => (s.fidx, s.fiber.len()),
                _ => unreachable!(),
            };
            if cur < len {
                if self.pending_mem.len() >= outstanding {
                    return Ok(false);
                }
                let ready = if compressed && in_dram {
                    ctx.dram.request(ctx.now, 4, AccessKind::Stream, false)
                } else {
                    ctx.now
                };
                let State::Scan(s) = &mut self.state else { unreachable!() };
                let (c, p) = s.fiber[s.fidx];
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
                let fiber: Vec<(u32, usize)> =
                    ctx.tensors[tensor].level(level).fiber(r as usize).collect();
                let State::Scan(s) = &mut self.state else { unreachable!() };
                s.fiber = fiber;
                s.fidx = 0;
                s.emitting = true;
            }
            Token::Elem(Payload::Empty) => {
                self.pop(ctx, 0);
                let State::Scan(s) = &mut self.state else { unreachable!() };
                s.fiber = Vec::new();
                s.fidx = 0;
                s.emitting = true;
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
                self.out_q[0].push_back(Token::Elem(p));
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
                self.out_q[0].push_back(Token::Stop(k));
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
                self.out_q[0].push_back(Token::Done);
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
                    self.out_q[0].push_back(Token::idx(ia));
                    if let Some(t) = pa {
                        self.out_q[1].push_back(t);
                    }
                    if let Some(t) = pb {
                        self.out_q[2].push_back(t);
                    }
                } else if ia < ib {
                    match mode {
                        JoinMode::Intersect => {
                            let _ = self.pop_side(ctx, 0, 1);
                        }
                        JoinMode::Union | JoinMode::UnionLeft => {
                            let pa = self.pop_side(ctx, 0, 1);
                            self.out_q[0].push_back(Token::idx(ia));
                            if let Some(t) = pa {
                                self.out_q[1].push_back(t);
                            }
                            self.out_q[2].push_back(Token::Elem(Payload::Empty));
                        }
                    }
                } else {
                    match mode {
                        JoinMode::Intersect | JoinMode::UnionLeft => {
                            let _ = self.pop_side(ctx, 2, 3);
                        }
                        JoinMode::Union => {
                            let pb = self.pop_side(ctx, 2, 3);
                            self.out_q[0].push_back(Token::idx(ib));
                            self.out_q[1].push_back(Token::Elem(Payload::Empty));
                            if let Some(t) = pb {
                                self.out_q[2].push_back(t);
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
                    self.out_q[0].push_back(Token::idx(ia));
                    if let Some(t) = pa {
                        self.out_q[1].push_back(t);
                    }
                    self.out_q[2].push_back(Token::Elem(Payload::Empty));
                }
            },
            (Token::Stop(_), Token::Elem(cb)) => match mode {
                JoinMode::Intersect | JoinMode::UnionLeft => {
                    let _ = self.pop_side(ctx, 2, 3);
                }
                JoinMode::Union => {
                    let ib = cb.idx();
                    let pb = self.pop_side(ctx, 2, 3);
                    self.out_q[0].push_back(Token::idx(ib));
                    self.out_q[1].push_back(Token::Elem(Payload::Empty));
                    if let Some(t) = pb {
                        self.out_q[2].push_back(t);
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
                self.out_q[0].push_back(Token::Stop(k));
                self.out_q[1].push_back(Token::Stop(k));
                self.out_q[2].push_back(Token::Stop(k));
            }
            (Token::Done, Token::Done) => {
                let _ = self.pop_side(ctx, 0, 1);
                let _ = self.pop_side(ctx, 2, 3);
                for q in 0..3 {
                    self.out_q[q].push_back(Token::Done);
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
                    self.out_q[0].push_back(Token::Elem(out));
                }
                Token::Stop(k) => {
                    self.pop(ctx, 0);
                    self.out_q[0].push_back(Token::Stop(k));
                }
                Token::Done => {
                    self.pop(ctx, 0);
                    self.out_q[0].push_back(Token::Done);
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
                    self.out_q[0].push_back(Token::Elem(out));
                }
                (Token::Stop(ka), Token::Stop(kb)) if ka == kb => {
                    self.pop(ctx, 0);
                    self.pop(ctx, 1);
                    self.out_q[0].push_back(Token::Stop(ka));
                }
                (Token::Done, Token::Done) => {
                    self.pop(ctx, 0);
                    self.pop(ctx, 1);
                    self.out_q[0].push_back(Token::Done);
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
                self.out_q[0].push_back(Token::Elem(out));
                if k >= 1 {
                    self.out_q[0].push_back(Token::Stop(k - 1));
                }
            }
            Token::Done => {
                self.pop(ctx, 0);
                self.out_q[0].push_back(Token::Done);
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
                        self.out_q[0].push_back(Token::idx(c));
                        self.out_q[1].push_back(Token::Elem(v));
                    }
                    self.out_q[0].push_back(Token::Stop(kc - 1));
                    self.out_q[1].push_back(Token::Stop(kc - 1));
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
                self.out_q[0].push_back(Token::Done);
                self.out_q[1].push_back(Token::Done);
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
                self.out_q[port].push_back(tok);
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
                self.out_q[2 * b].push_back(c);
                if has_payload {
                    let p = self.pop(ctx, 1);
                    self.out_q[2 * b + 1].push_back(p);
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
                    self.out_q[2 * b].push_back(Token::Stop(k));
                    if has_payload {
                        self.out_q[2 * b + 1].push_back(Token::Stop(k));
                    }
                }
            }
            Token::Done => {
                self.pop(ctx, 0);
                if has_payload {
                    self.pop(ctx, 1);
                }
                for b in 0..factor {
                    self.out_q[2 * b].push_back(Token::Done);
                    if has_payload {
                        self.out_q[2 * b + 1].push_back(Token::Done);
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
                    self.out_q[0].push_back(tok);
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
                    self.out_q[0].push_back(tok);
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
                    self.out_q[0].push_back(Token::Stop(depth - 1));
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
                            self.out_q[0].push_back(tok);
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
                    match self.peek_at(ctx, b, 0) {
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
                self.out_q[0].push_back(Token::Stop(k + depth));
                let State::Ser(st) = &mut self.state else { unreachable!() };
                st.pending_unit = false;
                st.cur = 0;
            }
            Token::Done => {
                for b in 0..factor {
                    match self.peek_at(ctx, b, 0) {
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
                self.out_q[0].push_back(Token::Done);
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
    let n_out = kind.output_ports().len();
    let ii = (timing.ii_extra)(&kind);
    Rt {
        kind,
        label,
        state,
        in_chans,
        out_chans,
        out_q: vec![VecDeque::new(); n_out],
        pending_mem: VecDeque::new(),
        busy_until: 0,
        ii_extra: ii,
        done: false,
        elems: 0,
    }
}
