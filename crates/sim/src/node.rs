//! Runtime nodes. A node is its [`Prim`], what it is and holds (one variant
//! per SAMML primitive, carrying the primitive's parameters and state), and
//! its [`Io`], how it is wired and timed (its ports, staged and in-flight
//! tokens, initiation interval and counters). [`Rt::step`] runs one cycle;
//! the action it takes is an `Io::act_*` handed exactly its variant's fields.
//!
//! Tokens are one-word `Copy` values ([`Token`]): an action peeks copies of its
//! input heads, decides, then pops and emits, and a tile operand is read
//! through its handle in `ctx.tiles`. The error path is kept off the step's
//! return: a node-level result carries a `Box<SimError>` (16 bytes, returned
//! in registers), built only by the cold [`Io::fail`].

use crate::chan::{Ctx, Ring, StepOutcome};
use crate::dram::AccessKind;
use crate::engine::SimError;
use crate::tok::{Block, Payload, Tile, Token};
use fuseflow_sam::{AluOp, MemLocation, NodeKind, ReduceOp};
use fuseflow_tensor::Level;
use std::cmp::Ordering;

/// A node-level result: the error, if any, behind one pointer.
pub(crate) type Step<T> = Result<T, Box<SimError>>;

/// The outcome of one action: whether the node acted.
type Act = Step<bool>;

const _: () =
    assert!(std::mem::size_of::<Step<StepOutcome>>() <= 16, "a step returns in registers");

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
pub(crate) struct SerState {
    cur: usize,
    pending_unit: bool,
    in_unit: bool,
}

/// An accumulator's values, sorted by coordinate, and the slot to try
/// first: the one after the slot the last value went to. A fiber's
/// coordinates ascend, so within a fiber that slot is the next value's (an
/// append, while the first fiber of a row is read); a coordinate revisited
/// out of order is found by binary search. A stop puts the cursor back to
/// the first slot, and a flush drains the values in coordinate order.
#[derive(Debug, Default)]
pub(crate) struct SortedRun {
    entries: Vec<(u32, Payload)>,
    cursor: usize,
}

impl SortedRun {
    /// The slot that holds `key` (`Ok`), or where it goes (`Err`).
    fn slot(&self, key: u32) -> Result<usize, usize> {
        let e = &self.entries;
        // Past the slot touched last: nothing before the cursor can match.
        let lo = if self.cursor == 0 || e[self.cursor - 1].0 < key { self.cursor } else { 0 };
        match e.get(lo) {
            None => Err(lo),
            Some(&(k, _)) if k == key => Ok(lo),
            Some(&(k, _)) if k > key => Err(lo),
            Some(_) => match e[lo + 1..].binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => Ok(lo + 1 + i),
                Err(i) => Err(lo + 1 + i),
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinMode {
    Intersect,
    Union,
    UnionLeft,
}

/// What a node is and holds: one variant per SAMML primitive, with its
/// parameters and its state, built once from the graph's [`NodeKind`]. Root
/// counts the tokens of `[Ref(0), Done]` it has emitted, Repeat holds the
/// loaded base element, Array the tile it loaded for each stored position of
/// a blocked tensor (a position read again reuses it), Spacc the values
/// accumulated so far as a run sorted by coordinate (one value under 0 at
/// order 0; see [`SortedRun`]), a writer the
/// stream it received (for the output rebuild), and Par the branch the next
/// element goes to.
#[derive(Debug)]
pub(crate) enum Prim {
    Root { emitted: u8 },
    Scan { tensor: usize, level: usize, st: ScanState },
    Repeat { base: Option<Payload> },
    Join(JoinMode),
    Array { tensor: usize, loaded: Vec<Option<Tile>> },
    Alu { op: AluOp },
    Spacc { order: usize, op: ReduceOp, acc: SortedRun },
    CrdWriter { output: usize, level: usize, tokens: Vec<Token> },
    ValWriter { output: usize, tokens: Vec<Token> },
    Par { factor: usize, rr: usize },
    Ser { factor: usize, depth: u8, st: SerState },
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

/// A runtime node: its primitive and its wiring.
pub(crate) struct Rt {
    pub(crate) prim: Prim,
    pub(crate) io: Io,
}

/// One memory request in flight: the cycle it completes, the token it then
/// puts on output port 0, and the one it puts on port 1 (a scanner's
/// reference beside its coordinate, or the same stop or `Done` on both).
/// A writer's entry holds only its timing; its token is dropped.
pub(crate) type InFlight = (u64, Token, Option<Token>);

/// How a node is wired and timed: everything of it but its [`Prim`]. Owns
/// the channel helpers and the `act_*` bodies.
pub(crate) struct Io {
    pub(crate) label: String,
    pub(crate) in_chans: Vec<Option<usize>>,
    pub(crate) outs: Vec<OutPort>,
    /// Sum of the ports' `staged`, kept by [`emit`](Self::emit) and
    /// [`flush_phase`](Self::flush_phase): "anything staged?" is asked
    /// three times a step and must not walk the ports.
    n_staged: usize,
    /// Requests in flight, in issue order: they complete in order, so no
    /// token overtakes one issued before it.
    pub(crate) pending_mem: Ring<InFlight>,
    pub(crate) busy_until: u64,
    pub(crate) done: bool,
    /// Elements produced on connected ports (counted by
    /// [`emit`](Self::emit)), or taken in, for a writer.
    pub(crate) elems: u64,
}

impl Rt {
    pub(crate) fn new(
        kind: &NodeKind,
        label: String,
        in_chans: Vec<Option<usize>>,
        out_chans: Vec<Vec<usize>>,
    ) -> Rt {
        let prim = match *kind {
            NodeKind::Root => Prim::Root { emitted: 0 },
            NodeKind::LevelScanner { tensor, level } => {
                Prim::Scan { tensor, level, st: ScanState::default() }
            }
            NodeKind::Repeat => Prim::Repeat { base: None },
            NodeKind::Intersect => Prim::Join(JoinMode::Intersect),
            NodeKind::Union => Prim::Join(JoinMode::Union),
            NodeKind::UnionLeft => Prim::Join(JoinMode::UnionLeft),
            NodeKind::Array { tensor } => Prim::Array { tensor, loaded: Vec::new() },
            NodeKind::Alu { op } => Prim::Alu { op },
            NodeKind::Spacc { order, op } => Prim::Spacc { order, op, acc: SortedRun::default() },
            NodeKind::CrdWriter { output, level } => {
                Prim::CrdWriter { output, level, tokens: Vec::new() }
            }
            NodeKind::ValWriter { output } => Prim::ValWriter { output, tokens: Vec::new() },
            NodeKind::Parallelizer { factor } => Prim::Par { factor, rr: 0 },
            NodeKind::Serializer { factor, depth } => {
                Prim::Ser { factor, depth, st: SerState::default() }
            }
        };
        let io = Io {
            label,
            in_chans,
            outs: out_chans.into_iter().map(|chans| OutPort { chans, staged: 0 }).collect(),
            n_staged: 0,
            pending_mem: Ring::default(),
            busy_until: 0,
            done: false,
            elems: 0,
        };
        Rt { prim, io }
    }

    pub(crate) fn is_writer(&self) -> bool {
        matches!(self.prim, Prim::CrdWriter { .. } | Prim::ValWriter { .. })
    }

    // -- the per-cycle step ------------------------------------------------

    /// Phase 3: one action, if not busy and the flush left nothing staged
    /// (`clear`, read in [`step`](Self::step) before the retire).
    #[inline]
    fn act_phase(&mut self, ctx: &mut Ctx, clear: bool) -> Act {
        if self.io.done || ctx.now < self.io.busy_until || !clear {
            return Ok(false);
        }
        self.action(ctx)
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
    pub(crate) fn step(&mut self, ctx: &mut Ctx) -> Step<StepOutcome> {
        // Phase 1: send one staged token per output port.
        let mut progress = self.io.flush_phase(ctx);
        let clear = self.io.n_staged == 0;

        // Phase 2: retire completed memory requests onto their output ports
        // (or drop them, for writers). They are staged here and sent by the
        // next step's flush.
        while let Some(&(ready, tok, tok1)) = self.io.pending_mem.front() {
            if ready > ctx.now {
                break;
            }
            self.io.pending_mem.pop_front();
            if !self.is_writer() {
                self.io.emit(ctx, 0, tok);
                if let Some(tok1) = tok1 {
                    self.io.emit(ctx, 1, tok1);
                }
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
        // A finished node arms no timer. After phase 2, any pending-memory
        // head is strictly in the future, so `next_wake` is exact here.
        if self.io.finished() {
            return Ok(StepOutcome::Idle);
        }
        Ok(self.io.next_wake(ctx.now).map_or(StepOutcome::Idle, StepOutcome::SleepingUntil))
    }

    /// The primitive's action, given exactly its own fields.
    fn action(&mut self, ctx: &mut Ctx) -> Act {
        let io = &mut self.io;
        match &mut self.prim {
            Prim::Root { emitted } => io.act_root(ctx, emitted),
            Prim::Scan { tensor, level, st } => io.act_scan(ctx, *tensor, *level, st),
            Prim::Repeat { base } => io.act_repeat(ctx, base),
            Prim::Join(mode) => io.act_join(ctx, *mode),
            Prim::Array { tensor, loaded } => io.act_array(ctx, *tensor, loaded),
            Prim::Alu { op } => io.act_alu(ctx, *op),
            Prim::Spacc { order, op, acc } => io.act_spacc(ctx, *order, *op, acc),
            Prim::CrdWriter { output, tokens, .. } | Prim::ValWriter { output, tokens } => {
                io.act_writer(ctx, *output, tokens)
            }
            Prim::Par { factor, rr } => io.act_par(ctx, *factor, rr),
            Prim::Ser { factor, depth, st } => io.act_ser(ctx, *factor, *depth, st),
        }
    }
}

impl Io {
    pub(crate) fn finished(&self) -> bool {
        self.done && self.n_staged == 0 && self.pending_mem.is_empty()
    }

    /// Earliest future wake-up time held by this node (pending memory
    /// retirements or a busy ALU), if any.
    pub(crate) fn next_wake(&self, now: u64) -> Option<u64> {
        self.pending_mem
            .front()
            .map(|x| x.0)
            .into_iter()
            .chain((self.busy_until > now).then_some(self.busy_until))
            .filter(|&t| t > now)
            .min()
    }

    /// Ends the run with a stream-semantics error naming this node.
    #[cold]
    fn fail<T>(&self, what: impl std::fmt::Display) -> Step<T> {
        Err(Box::new(SimError::Semantics(format!("{what} at {}", self.label))))
    }

    /// The coordinate a crd-port element carries; any other payload there is
    /// an error.
    fn crd(&self, p: Payload) -> Step<u32> {
        match p {
            Payload::Idx(i) => Ok(i),
            other => self.fail(format_args!("coordinate port received {other:?}")),
        }
    }

    /// `Stop(k + by)`, or an error if that level does not fit a stop token.
    fn deeper(&self, k: u8, by: u8) -> Step<Token> {
        match k.checked_add(by) {
            Some(k) => Ok(Token::Stop(k)),
            None => self.fail(format_args!("stop level {k} + {by} exceeds 255")),
        }
    }

    // -- channel access ----------------------------------------------------

    fn peek(&self, ctx: &Ctx, port: usize) -> Option<Token> {
        self.in_chans[port].and_then(|c| ctx.chans[c].head())
    }

    fn connected(&self, port: usize) -> bool {
        self.in_chans[port].is_some()
    }

    fn pop(&self, ctx: &mut Ctx, port: usize) -> Token {
        let c = self.in_chans[port].expect("pop from unconnected port");
        ctx.pop_chan(c)
    }

    /// Produces `tok` on an output port: written once into every fan-out
    /// channel, staged behind the `visible` mark until
    /// [`flush_phase`](Self::flush_phase) sends it. An element on a connected
    /// port counts towards [`elems`](Self::elems) here, once, whatever the
    /// fan-out.
    fn emit(&mut self, ctx: &mut Ctx, port: usize, tok: Token) {
        let out = &mut self.outs[port];
        out.staged += 1;
        self.n_staged += 1;
        if !out.chans.is_empty() && tok.is_elem() {
            self.elems += 1;
        }
        for &c in &out.chans {
            ctx.chans[c].buf.push_back(tok);
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

    /// Phase 1: send one staged token per output port, to all of the port's
    /// fan-out channels or (if any is full) to none. Returns whether it sent
    /// or discarded any. Sending moves each channel's `visible` mark over a
    /// token that is already there.
    #[inline]
    fn flush_phase(&mut self, ctx: &mut Ctx) -> bool {
        if self.n_staged == 0 {
            return false;
        }
        let mut progress = false;
        for OutPort { chans: outs, staged } in &mut self.outs {
            if *staged == 0 {
                continue;
            }
            if outs.is_empty() {
                // Unconnected port: discard. Until here its tokens counted as
                // staged, so the step that produced them did not act again.
                self.n_staged -= *staged;
                *staged = 0;
                continue;
            }
            if outs.iter().any(|&c| ctx.chans[c].is_full()) {
                continue;
            }
            for &c in outs.iter() {
                ctx.publish(c);
            }
            *staged -= 1;
            self.n_staged -= 1;
            progress = true;
        }
        progress
    }

    // -- individual node actions ------------------------------------------

    fn act_root(&mut self, ctx: &mut Ctx, emitted: &mut u8) -> Act {
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

    fn act_scan(&mut self, ctx: &mut Ctx, tensor: usize, level: usize, s: &mut ScanState) -> Act {
        let t = ctx.tensors[tensor];
        let lvl = t.level(level);
        let compressed = matches!(lvl, Level::Compressed { .. });
        let in_dram = ctx.tensor_slots[tensor].location == MemLocation::Dram;
        let outstanding = ctx.cfg.timing.outstanding;

        if s.emitting {
            if s.fidx < s.len {
                // One request per element: one entry, its (crd, ref) pair.
                if self.pending_mem.len() >= outstanding {
                    return Ok(false);
                }
                let ready = if compressed && in_dram {
                    ctx.dram.request(ctx.now, 4, AccessKind::Stream, false)
                } else {
                    ctx.now
                };
                let (c, p) = lvl.fiber_entry(s.parent, s.fidx);
                s.fidx += 1;
                self.pending_mem.push_back((ready, Token::idx(c), Some(Token::idx(p as u32))));
                return Ok(true);
            }
            // Fiber boundary (stops flow through the in-order pending
            // queue so they never overtake memory-delayed elements).
            let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
            let stop = match head {
                Token::Elem(_) | Token::Done => Token::Stop(0),
                Token::Stop(k) => {
                    let stop = self.deeper(k, 1)?;
                    self.pop(ctx, 0);
                    stop
                }
            };
            s.emitting = false;
            self.pending_mem.push_back((ctx.now, stop, Some(stop)));
            return Ok(true);
        }

        // Idle: load the next fiber or forward boundaries.
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        match head {
            Token::Elem(Payload::Idx(r)) => {
                let parent = r as usize;
                if matches!(lvl, Level::Compressed { pos, .. } if parent + 1 >= pos.len()) {
                    return self
                        .fail(format_args!("reference {r} past the fibers of level {level}"));
                }
                self.pop(ctx, 0);
                if compressed && in_dram {
                    // pos-array read for the fiber bounds.
                    let _ = ctx.dram.request(ctx.now, 8, AccessKind::Stream, false);
                }
                *s = ScanState { parent, len: lvl.fiber_len(parent), fidx: 0, emitting: true };
            }
            Token::Elem(Payload::Empty) => {
                self.pop(ctx, 0);
                // An empty reference scans to an empty fiber.
                *s = ScanState { emitting: true, ..ScanState::default() };
            }
            Token::Elem(other) => {
                return self.fail(format_args!("scanner received payload {other:?}"))
            }
            Token::Stop(k) => {
                let stop = self.deeper(k, 1)?;
                self.pop(ctx, 0);
                self.pending_mem.push_back((ctx.now, stop, Some(stop)));
            }
            Token::Done => {
                self.pop(ctx, 0);
                self.pending_mem.push_back((ctx.now, Token::Done, Some(Token::Done)));
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_repeat(&mut self, ctx: &mut Ctx, base: &mut Option<Payload>) -> Act {
        let Some(rep_head) = self.peek(ctx, 1) else { return Ok(false) };
        match rep_head {
            Token::Elem(_) => {
                let p = match *base {
                    Some(p) => p,
                    None => {
                        let p = match self.peek(ctx, 0) {
                            Some(Token::Elem(p)) => p,
                            Some(other) => {
                                return self.fail(format_args!(
                                    "repeat expected base element, found {other:?}"
                                ))
                            }
                            None => return Ok(false),
                        };
                        self.pop(ctx, 0);
                        *base = Some(p);
                        p
                    }
                };
                self.pop(ctx, 1);
                self.emit(ctx, 0, Token::Elem(p));
            }
            Token::Stop(k) => {
                // Close the pairing. The base element of an empty rep fiber
                // was never loaded: take it as soon as it is at the head (that
                // alone is progress), then for k >= 1 wait for the aligned
                // base stop to reach the head.
                let mut took = false;
                if base.is_none() {
                    match self.peek(ctx, 0) {
                        Some(Token::Elem(p)) => {
                            self.pop(ctx, 0);
                            *base = Some(p);
                            took = true;
                        }
                        Some(_) => {}
                        None => return Ok(false),
                    }
                }
                if k >= 1 {
                    match self.peek(ctx, 0) {
                        Some(Token::Stop(bk)) if bk == k - 1 => {
                            self.pop(ctx, 0);
                        }
                        Some(other) => {
                            return self.fail(format_args!(
                                "repeat base misaligned: rep Stop({k}) vs base {other:?}"
                            ))
                        }
                        None => return Ok(took),
                    }
                }
                self.pop(ctx, 1);
                *base = None;
                self.emit(ctx, 0, Token::Stop(k));
            }
            Token::Done => {
                match self.peek(ctx, 0) {
                    Some(Token::Done) => {}
                    Some(other) => {
                        return self
                            .fail(format_args!("repeat base should be Done, found {other:?}"))
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

    fn act_join(&mut self, ctx: &mut Ctx, mode: JoinMode) -> Act {
        let (Some(a), Some(b)) = (self.peek(ctx, 0), self.peek(ctx, 2)) else {
            return Ok(false);
        };
        if !self.side_ready(ctx, 1) || !self.side_ready(ctx, 3) {
            return Ok(false);
        }
        // The side whose head is an element the other side lacks (0 = `a`,
        // 1 = `b`): the smaller coordinate, or the element facing a stop.
        let (side, crd) = match (a, b) {
            (Token::Elem(ca), Token::Elem(cb)) => match self.crd(ca)?.cmp(&self.crd(cb)?) {
                Ordering::Less => (0, ca),
                Ordering::Greater => (1, cb),
                Ordering::Equal => {
                    let pa = self.pop_side(ctx, 0, 1);
                    let pb = self.pop_side(ctx, 2, 3);
                    self.emit(ctx, 0, a);
                    if let Some(t) = pa {
                        self.emit(ctx, 1, t);
                    }
                    if let Some(t) = pb {
                        self.emit(ctx, 2, t);
                    }
                    return Ok(true);
                }
            },
            (Token::Elem(ca), Token::Stop(_)) => (0, ca),
            (Token::Stop(_), Token::Elem(cb)) => (1, cb),
            (Token::Stop(ka), Token::Stop(kb)) if ka != kb => {
                return self.fail(format_args!("join stop mismatch: {ka} vs {kb}"))
            }
            (Token::Stop(_), Token::Stop(_)) | (Token::Done, Token::Done) => {
                let _ = self.pop_side(ctx, 0, 1);
                let _ = self.pop_side(ctx, 2, 3);
                for q in 0..3 {
                    self.emit(ctx, q, a);
                }
                self.done = a == Token::Done;
                return Ok(true);
            }
            (x, y) => return self.fail(format_args!("join token mismatch: {x:?} vs {y:?}")),
        };
        // Dropped without reading its coordinate, or kept with an empty
        // payload for the other side.
        let (crd_port, pay_port) = (2 * side, 2 * side + 1);
        let keep = match mode {
            JoinMode::Intersect => false,
            JoinMode::Union => true,
            JoinMode::UnionLeft => side == 0,
        };
        if !keep {
            let _ = self.pop_side(ctx, crd_port, pay_port);
            return Ok(true);
        }
        let i = self.crd(crd)?;
        let pay = self.pop_side(ctx, crd_port, pay_port);
        self.emit(ctx, 0, Token::idx(i));
        if let Some(t) = pay {
            self.emit(ctx, 1 + side, t);
        }
        self.emit(ctx, 2 - side, Token::Elem(Payload::Empty));
        Ok(true)
    }

    fn act_array(&mut self, ctx: &mut Ctx, tensor: usize, loaded: &mut Vec<Option<Tile>>) -> Act {
        if self.pending_mem.len() >= ctx.cfg.timing.outstanding {
            return Ok(false);
        }
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let t = ctx.tensors[tensor];
        let in_dram = ctx.tensor_slots[tensor].location == MemLocation::Dram;
        match head {
            Token::Elem(Payload::Idx(r)) => {
                let (r, n) = (r as usize, t.block_len());
                let Some(vals) = t.vals().get(r * n..(r + 1) * n) else {
                    let stored = t.stored_positions();
                    return self
                        .fail(format_args!("reference {r} past the {stored} stored positions"));
                };
                self.pop(ctx, 0);
                let (payload, bytes) = if t.is_blocked() {
                    let [b0, b1] = t.block();
                    if loaded.len() <= r {
                        loaded.resize(r + 1, None);
                    }
                    let tile = *loaded[r]
                        .get_or_insert_with(|| ctx.tiles.put(Block::new(b0, b1, vals.to_vec())));
                    (Payload::Blk(tile), (b0 * b1 * 4) as u64)
                } else {
                    (Payload::F(vals[0]), 4)
                };
                let ready = if in_dram {
                    ctx.dram.request(ctx.now, bytes, AccessKind::Random, false)
                } else {
                    ctx.now
                };
                self.pending_mem.push_back((ready, Token::Elem(payload), None));
            }
            Token::Elem(Payload::Empty) => {
                self.pop(ctx, 0);
                let payload = if t.is_blocked() {
                    let [b0, b1] = t.block();
                    Payload::Blk(ctx.tiles.put(Block::new(b0, b1, vec![0.0; b0 * b1])))
                } else {
                    Payload::F(0.0)
                };
                self.pending_mem.push_back((ctx.now, Token::Elem(payload), None));
            }
            Token::Elem(other) => {
                return self.fail(format_args!("array received payload {other:?}"))
            }
            Token::Stop(k) => {
                self.pop(ctx, 0);
                self.pending_mem.push_back((ctx.now, Token::Stop(k), None));
            }
            Token::Done => {
                self.pop(ctx, 0);
                self.pending_mem.push_back((ctx.now, Token::Done, None));
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_alu(&mut self, ctx: &mut Ctx, op: AluOp) -> Act {
        ctx.pending_busy = 0;
        if op.arity() == 1 {
            let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
            match head {
                Token::Elem(p) => {
                    let out = alu_unary(ctx, op, p).or_else(|e| self.fail(e))?;
                    self.pop(ctx, 0);
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
            match (a, b) {
                (Token::Elem(pa), Token::Elem(pb)) => {
                    let out = alu_combine(ctx, op, pa, pb).or_else(|e| self.fail(e))?;
                    self.pop(ctx, 0);
                    self.pop(ctx, 1);
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
                    return self.fail(format_args!("alu stream misalignment: {x:?} vs {y:?}"))
                }
            }
        }
        if ctx.pending_busy > 0 {
            self.busy_until = ctx.now + ctx.pending_busy;
        }
        Ok(true)
    }

    /// A sparse accumulator of order `order` (at most `MAX_SPACC_ORDER`,
    /// which `validate` holds): ports `0..order` carry the coordinates of
    /// the free levels below the reduced one, port `order` the values. Each
    /// value merges into `acc` under its coordinate (all under 0 at order
    /// 0); an absent operand adds nothing. `Stop(k)` with `k < order` only
    /// separates the fibers being accumulated. `Stop(k >= order)` flushes
    /// `acc` in coordinate order, then emits `Stop(k - 1)` on every port if
    /// `k >= 1`. An empty flush at order 0 emits 0: it has no coordinate to
    /// leave out, and a fiber with nothing in it reduces to 0 under every
    /// op, the absent coordinate the interpreter reads.
    fn act_spacc(&mut self, ctx: &mut Ctx, order: usize, op: ReduceOp, acc: &mut SortedRun) -> Act {
        let Some(v) = self.peek(ctx, order) else { return Ok(false) };
        let mut key = 0;
        for port in 0..order {
            let Some(c) = self.peek(ctx, port) else { return Ok(false) };
            match (c, v) {
                (Token::Elem(pc), Token::Elem(_)) => key = self.crd(pc)?,
                (c, v) if c == v => {}
                (c, v) => {
                    return self.fail(format_args!("spacc stream misalignment: {c:?} vs {v:?}"))
                }
            }
        }
        match v {
            Token::Elem(pv) => match acc.slot(key) {
                Err(i) => {
                    acc.entries.insert(i, (key, pv));
                    acc.cursor = i + 1;
                }
                Ok(i) => {
                    let merged = match (acc.entries[i].1, pv) {
                        (Payload::F(a), Payload::F(b)) => {
                            ctx.flops += 1;
                            Payload::F(op.apply(a, b))
                        }
                        (Payload::Blk(a), Payload::Blk(b)) => {
                            let out = zip_tiles(ctx, a, b, 1, |x, y| op.apply(x, y));
                            out.or_else(|m| self.fail(format_args!("spacc: {m}")))?
                        }
                        (Payload::Empty, p) | (p, Payload::Empty) => p,
                        (a, b) => return self.fail(format_args!("spacc operands {a:?} / {b:?}")),
                    };
                    acc.entries[i].1 = merged;
                    acc.cursor = i + 1;
                }
            },
            Token::Stop(k) => {
                acc.cursor = 0;
                if usize::from(k) >= order {
                    if order == 0 && acc.entries.is_empty() {
                        acc.entries.push((0, Payload::F(0.0)));
                    }
                    for (c, v) in acc.entries.drain(..) {
                        for port in 0..order {
                            self.emit(ctx, port, Token::idx(c));
                        }
                        self.emit(ctx, order, Token::Elem(v));
                    }
                    if k >= 1 {
                        for port in 0..=order {
                            self.emit(ctx, port, Token::Stop(k - 1));
                        }
                    }
                }
            }
            Token::Done => {
                if !acc.entries.is_empty() {
                    return self.fail("spacc reached Done with unflushed state");
                }
                for port in 0..=order {
                    self.emit(ctx, port, Token::Done);
                }
                self.done = true;
            }
        }
        for port in 0..=order {
            self.pop(ctx, port);
        }
        Ok(true)
    }

    fn act_writer(&mut self, ctx: &mut Ctx, output: usize, tokens: &mut Vec<Token>) -> Act {
        if self.pending_mem.len() >= ctx.cfg.timing.outstanding {
            return Ok(false);
        }
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let in_dram = ctx.output_slots[output].location == MemLocation::Dram;
        self.pop(ctx, 0);
        if let Token::Elem(p) = head {
            let bytes = match p {
                Payload::Blk(b) => (ctx.tiles.get(b).len() * 4) as u64,
                _ => 4,
            };
            let ready = if in_dram {
                ctx.dram.request(ctx.now, bytes, AccessKind::Stream, true)
            } else {
                ctx.now
            };
            self.pending_mem.push_back((ready, Token::Stop(0), None));
            self.elems += 1;
        }
        if head == Token::Done {
            self.done = true;
        }
        tokens.push(head);
        Ok(true)
    }

    fn act_par(&mut self, ctx: &mut Ctx, factor: usize, rr: &mut usize) -> Act {
        let has_payload = self.connected(1);
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        if has_payload && self.peek(ctx, 1).is_none() {
            return Ok(false);
        }
        match head {
            Token::Elem(_) => {
                let c = self.pop(ctx, 0);
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
                        return self.fail(format_args!(
                            "parallelizer payload misaligned: {p:?} vs Stop({k})"
                        ));
                    }
                }
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

    fn act_ser(&mut self, ctx: &mut Ctx, factor: usize, depth: u8, st: &mut SerState) -> Act {
        let order_port = factor;
        let cur = st.cur;

        if st.in_unit {
            // Pull the current unit's tokens from branch `cur`.
            let Some(head) = self.peek(ctx, cur) else { return Ok(false) };
            match head {
                Token::Elem(_) => {
                    let tok = self.pop(ctx, cur);
                    self.emit(ctx, 0, tok);
                }
                Token::Stop(k) if depth >= 1 && k == depth - 1 => {
                    // Ordinary unit boundary.
                    self.pop(ctx, cur);
                    st.in_unit = false;
                    st.pending_unit = true;
                    st.cur = (cur + 1) % factor;
                }
                Token::Stop(k) if k < depth.saturating_sub(1) => {
                    // Interior stop: part of this unit.
                    let tok = self.pop(ctx, cur);
                    self.emit(ctx, 0, tok);
                }
                Token::Stop(_) => {
                    // The unit's boundary coalesced into a barrier stop: the
                    // unit is over, but the barrier token is consumed later
                    // by the order-stream barrier action.
                    st.in_unit = false;
                    st.pending_unit = true;
                    st.cur = (cur + 1) % factor;
                }
                Token::Done => return self.fail("serializer branch finished mid-unit"),
            }
            return Ok(true);
        }

        let Some(order_head) = self.peek(ctx, order_port) else { return Ok(false) };
        match order_head {
            Token::Elem(_) => {
                if st.pending_unit {
                    // Close the previous unit before starting the next one
                    // (a unit is pending only under `depth >= 1`).
                    self.emit(ctx, 0, Token::Stop(depth - 1));
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
                            st.cur = (cur + 1) % factor;
                        }
                        other => {
                            return self.fail(format_args!(
                                "serializer depth-0 expected element, found {other:?}"
                            ))
                        }
                    }
                } else {
                    // Check for a coalesced-empty unit before committing.
                    let Some(bh) = self.peek(ctx, cur) else { return Ok(false) };
                    let coalesced = matches!(bh, Token::Stop(k) if k >= depth);
                    self.pop(ctx, order_port);
                    if coalesced {
                        st.pending_unit = true;
                        st.cur = (cur + 1) % factor;
                    } else {
                        st.in_unit = true;
                    }
                }
            }
            Token::Stop(k) => {
                // Barrier: every branch holds the corresponding deeper stop.
                let barrier = self.deeper(k, depth)?;
                for b in 0..factor {
                    match self.peek(ctx, b) {
                        Some(t) if t == barrier => {}
                        Some(other) => {
                            return self.fail(format_args!(
                                "serializer barrier mismatch on branch {b}: {other:?} vs \
                                 {barrier:?}"
                            ))
                        }
                        None => return Ok(false),
                    }
                }
                self.pop(ctx, order_port);
                for b in 0..factor {
                    self.pop(ctx, b);
                }
                self.emit(ctx, 0, barrier);
                st.pending_unit = false;
                st.cur = 0;
            }
            Token::Done => {
                for b in 0..factor {
                    match self.peek(ctx, b) {
                        Some(Token::Done) => {}
                        Some(other) => {
                            return self.fail(format_args!(
                                "serializer expected branch Done, found {other:?}"
                            ))
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

// -- Payload combiners (charge FLOPs / occupancy through the context) -------
//
// A tile operand is read through its handle and a tile result is stored as a
// new tile. Every tile operation checks the shapes it needs first: two
// blocked tensors of different tile shapes can meet in one graph that passes
// `validate`, and `Block` asserts.

/// Names two tile shapes that do not fit `what`.
fn misfit(what: &str, x: &Block, y: &Block) -> String {
    format!("tiles of {}x{} and {}x{} do not fit {what}", x.rows(), x.cols(), y.rows(), y.cols())
}

/// `f` over two tiles of one shape, as a new tile, at `flops` per element.
fn zip_tiles(
    ctx: &mut Ctx,
    a: Tile,
    b: Tile,
    flops: u64,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Payload, String> {
    let (x, y) = (ctx.tiles.get(a), ctx.tiles.get(b));
    if (x.rows(), x.cols()) != (y.rows(), y.cols()) {
        return Err(misfit("an elementwise op", x, y));
    }
    ctx.flops += x.len() as u64 * flops;
    let z = x.zip(y, f);
    Ok(Payload::Blk(ctx.tiles.put(z)))
}

fn alu_combine(ctx: &mut Ctx, op: AluOp, a: Payload, b: Payload) -> Result<Payload, String> {
    // A scalar operand; an absent one reads as zero.
    let scalar = |p| match p {
        Payload::F(v) => Some(v),
        Payload::Empty => Some(0.0),
        _ => None,
    };
    let unfit = || Err(format!("alu operands {a:?} / {b:?}"));
    Ok(match (a, b) {
        (Payload::Empty, Payload::Empty) => Payload::F(op.apply_scalar(0.0, 0.0)),
        (Payload::Blk(hx), Payload::Blk(hy)) if op != AluOp::Mul => {
            return zip_tiles(ctx, hx, hy, op.flops_per_elem(), |p, q| op.apply_scalar(p, q));
        }
        (Payload::Blk(hx), Payload::Blk(hy)) => {
            let (x, y) = (ctx.tiles.get(hx), ctx.tiles.get(hy));
            if x.cols() != y.rows() {
                return Err(misfit("a matmul", x, y));
            }
            // Tile contraction: b^2-lane unit retires one column per cycle.
            ctx.flops += 2 * (x.rows() * x.cols() * y.cols()) as u64;
            let busy = y.cols() as u64;
            let blk = x.matmul(y);
            ctx.busy(busy);
            Payload::Blk(ctx.tiles.put(blk))
        }
        // A tile beside a scalar: the scalar meets every element, on its side.
        (Payload::Blk(h), other) | (other, Payload::Blk(h)) => {
            let Some(s) = scalar(other) else { return unfit() };
            let tile_first = matches!(a, Payload::Blk(_));
            let x = ctx.tiles.get(h);
            ctx.flops += x.len() as u64;
            let blk =
                x.map(|v| if tile_first { op.apply_scalar(v, s) } else { op.apply_scalar(s, v) });
            Payload::Blk(ctx.tiles.put(blk))
        }
        _ => match (scalar(a), scalar(b)) {
            (Some(x), Some(y)) => {
                ctx.flops += op.flops_per_elem();
                Payload::F(op.apply_scalar(x, y))
            }
            _ => return unfit(),
        },
    })
}

fn alu_unary(ctx: &mut Ctx, op: AluOp, a: Payload) -> Result<Payload, String> {
    Ok(match a {
        Payload::F(x) => {
            ctx.flops += op.flops_per_elem();
            Payload::F(op.apply_scalar(x, 0.0))
        }
        Payload::Empty => Payload::F(op.apply_scalar(0.0, 0.0)),
        Payload::Blk(h) => {
            let x = ctx.tiles.get(h);
            ctx.flops += x.len() as u64 * op.flops_per_elem();
            let blk = x.map(|v| op.apply_scalar(v, 0.0));
            Payload::Blk(ctx.tiles.put(blk))
        }
        Payload::Idx(i) => return Err(format!("alu operand Idx({i})")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::{Chan, NO_NODE};
    use crate::{simulate, Scheduler, SimConfig, TensorEnv};
    use fuseflow_sam::SamGraph;
    use fuseflow_tensor::{Format, SparseTensor};

    fn f(v: f32) -> Token {
        Token::Elem(Payload::F(v))
    }

    /// An order-1 `Spacc` drains a three-entry map (and the stop behind it) in one
    /// action into a port that fans out to two channels of capacity 1: four
    /// tokens staged on a port whose channels hold one. They must come out in
    /// order, at most one per cycle, and to both channels or neither, also
    /// while one of the two readers lags.
    #[test]
    fn port_staging_more_than_the_capacity_delivers_in_order_one_per_cycle() {
        let cfg = SimConfig::default();
        let crd = vec![Token::idx(3), Token::idx(1), Token::idx(2), Token::Stop(1), Token::Done];
        let val = vec![f(30.0), f(10.0), f(20.0), Token::Stop(1), Token::Done];
        let out = || Chan::new(1, 0, NO_NODE);
        let chans = vec![Chan::seeded(crd), Chan::seeded(val), out(), out(), out()];
        let mut ctx = Ctx::bare(chans, &cfg, 1);
        let mut rt = Rt::new(
            &NodeKind::Spacc { order: 1, op: ReduceOp::Sum },
            "spacc".into(),
            vec![Some(0), Some(1)],
            vec![vec![2, 3], vec![4]],
        );

        let mut got: [Vec<Token>; 3] = Default::default();
        let mut most_staged = 0;
        for cycle in 0..64 {
            ctx.now = cycle;
            let sent_before = got.each_ref().map(Vec::len);
            let outcome = rt.step(&mut ctx).unwrap();
            most_staged = most_staged.max(rt.io.outs[0].staged);
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
            if outcome == StepOutcome::Idle && rt.io.finished() {
                break;
            }
        }
        assert!(rt.io.finished(), "not drained in 64 cycles");
        assert_eq!(most_staged, 4, "the drain should stage the whole map at once");
        let crd_out =
            vec![Token::idx(1), Token::idx(2), Token::idx(3), Token::Stop(0), Token::Done];
        assert_eq!(got[0], crd_out);
        assert_eq!(got[1], crd_out);
        let val_out = vec![f(10.0), f(20.0), f(30.0), Token::Stop(0), Token::Done];
        assert_eq!(got[2], val_out);
    }

    /// Closing an empty repeat fiber under `Stop(1)`, `Repeat` takes the base
    /// element it never loaded as soon as that element is at the head, then
    /// waits for the base stop to reach the head. It reads heads only, so the
    /// stop's publish lands in an empty channel and wakes it like any reader.
    #[test]
    fn repeat_takes_an_unloaded_base_element_before_its_stop_arrives() {
        let cfg = SimConfig::default();
        // The node under test has rank 1; rank 0 stands for the base's writer.
        let mut base = Chan::new(8, 0, 1);
        base.buf.extend([f(5.0), Token::Stop(0)]);
        let chans = vec![base, Chan::seeded([Token::Stop(1)]), Chan::new(8, 1, NO_NODE)];
        let mut ctx = Ctx::bare(chans, &cfg, 2);
        let mut rt =
            Rt::new(&NodeKind::Repeat, "repeat".into(), vec![Some(0), Some(1)], vec![vec![2]]);
        ctx.publish(0);
        assert_eq!(ctx.cur.pop_ge(0), Some(1), "empty -> non-empty");
        assert_eq!(rt.step(&mut ctx).unwrap(), StepOutcome::Progressed, "took the element");
        assert!(matches!(rt.prim, Prim::Repeat { base: Some(Payload::F(5.0)) }));
        assert_eq!(ctx.chans[0].visible, 0);
        assert!(ctx.chans[2].buf.is_empty(), "the fiber is not closed yet");
        assert_eq!(rt.step(&mut ctx).unwrap(), StepOutcome::Idle, "on an empty base");
        ctx.publish(0);
        assert_eq!(ctx.cur.pop_ge(0), Some(1), "the stop lands in an empty channel");
        assert_eq!(rt.step(&mut ctx).unwrap(), StepOutcome::Progressed);
        assert!(matches!(rt.prim, Prim::Repeat { base: None }));
        assert_eq!(ctx.chans[0].buf.len(), 0, "element and stop both consumed");
        assert_eq!(ctx.chans[2].buf.iter().last(), Some(&Token::Stop(1)));

        // The same state reached by a whole graph. The base values leave a
        // slow `Array`, which gathers them from DRAM one at a time
        // (`outstanding` = 1, a random-access latency apart), while the
        // repeat stream, two empty fibers, is there at once: `Repeat` closes
        // the first fiber, idles, then takes the second base value a cycle
        // before the base stop arrives behind it.
        let mut g = SamGraph::new();
        let v = g.add_tensor("V", MemLocation::Dram);
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
        cfg.timing.outstanding = 1;
        let [event, sweep] = [Scheduler::Event, Scheduler::Sweep]
            .map(|s| simulate(&g, &env, &cfg.clone().with_scheduler(s)).unwrap());
        assert_eq!(event.stats.semantic(), sweep.stats.semantic());
        assert_eq!(event.outputs, sweep.outputs);
        let latency = cfg.timing.dram_random_latency;
        assert!(event.stats.cycles > 2 * latency, "the gathers should have paced the run");
        assert_eq!(event.stats.cycles, 139);
    }
}
