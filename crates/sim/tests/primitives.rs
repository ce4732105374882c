//! Unit-level semantics tests for each SAMML primitive, driven through
//! `run_node_standalone` with literal token streams.

use fuseflow_sam::{AluOp, GraphError, NodeKind, ReduceOp, MAX_SPACC_ORDER};
use fuseflow_sim::{run_node_standalone, Block, Payload, SimError, Tiles, Token};
use fuseflow_tensor::{DenseTensor, Format, SparseTensor};

/// Runs `kind` on streams that carry no tile.
fn standalone(
    kind: NodeKind,
    inputs: Vec<Vec<Token>>,
    tensors: Vec<SparseTensor>,
) -> Result<Vec<Vec<Token>>, SimError> {
    run_node_standalone(kind, inputs, tensors, &mut Tiles::default())
}

fn idx(i: u32) -> Token {
    Token::idx(i)
}

fn val(v: f32) -> Token {
    Token::Elem(Payload::F(v))
}

fn s(k: u8) -> Token {
    Token::Stop(k)
}

const D: Token = Token::Done;

#[test]
fn root_emits_reference_and_done() {
    let out = standalone(NodeKind::Root, vec![], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(0), D]);
}

#[test]
fn scanner_csr_outer_level() {
    // 3x4 matrix with rows {0: [0,2], 1: [], 2: [3]} in CSR.
    let dense =
        DenseTensor::from_vec(vec![3, 4], vec![1., 0., 2., 0., 0., 0., 0., 0., 0., 0., 0., 3.]);
    let t = SparseTensor::from_dense(&dense, &Format::csr());
    // Dense outer level scanned from root.
    let out =
        standalone(NodeKind::LevelScanner { tensor: 0, level: 0 }, vec![vec![idx(0), D]], vec![t])
            .unwrap();
    assert_eq!(out[0], vec![idx(0), idx(1), idx(2), s(0), D]);
    assert_eq!(out[1], vec![idx(0), idx(1), idx(2), s(0), D]);
}

#[test]
fn scanner_csr_inner_level_nests_stops() {
    let dense =
        DenseTensor::from_vec(vec![3, 4], vec![1., 0., 2., 0., 0., 0., 0., 0., 0., 0., 0., 3.]);
    let t = SparseTensor::from_dense(&dense, &Format::csr());
    let refs = vec![idx(0), idx(1), idx(2), s(0), D];
    let out =
        standalone(NodeKind::LevelScanner { tensor: 0, level: 1 }, vec![refs], vec![t]).unwrap();
    // Row 1 is empty: bare stop (adjacent stops convention).
    assert_eq!(out[0], vec![idx(0), idx(2), s(0), s(0), idx(3), s(1), D]);
    // References address the stored positions 0..3.
    assert_eq!(out[1], vec![idx(0), idx(1), s(0), s(0), idx(2), s(1), D]);
}

#[test]
fn scanner_forwards_empty_payloads_as_empty_fibers() {
    let dense = DenseTensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
    let t = SparseTensor::from_dense(&dense, &Format::csr());
    let refs = vec![Token::Elem(Payload::Empty), idx(1), s(0), D];
    let out =
        standalone(NodeKind::LevelScanner { tensor: 0, level: 1 }, vec![refs], vec![t]).unwrap();
    assert_eq!(out[0], vec![s(0), idx(0), idx(1), s(1), D]);
}

#[test]
fn repeat_root_per_coordinate() {
    // Repeat X's root reference once per i coordinate.
    let base = vec![idx(0), D];
    let rep = vec![idx(3), idx(7), s(0), D];
    let out = standalone(NodeKind::Repeat, vec![base, rep], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(0), idx(0), s(0), D]);
}

#[test]
fn repeat_values_across_inner_fibers() {
    // Base values per (i,k); rep stream is the j-coordinate stream.
    let base = vec![val(10.0), val(20.0), s(0), val(30.0), s(1), D];
    let rep = vec![idx(0), idx(1), s(0), idx(2), s(1), idx(0), s(2), D];
    let out = standalone(NodeKind::Repeat, vec![base, rep], vec![]).unwrap();
    assert_eq!(out[0], vec![val(10.0), val(10.0), s(0), val(20.0), s(1), val(30.0), s(2), D]);
}

#[test]
fn repeat_discards_base_for_empty_rep_fiber() {
    let base = vec![val(1.0), val(2.0), s(0), D];
    let rep = vec![s(0), idx(5), s(1), D]; // first fiber empty
    let out = standalone(NodeKind::Repeat, vec![base, rep], vec![]).unwrap();
    assert_eq!(out[0], vec![s(0), val(2.0), s(1), D]);
}

/// The second rep fiber is empty and closed under `Stop(1)`: its base
/// element was never loaded, and goes with the base stop behind it.
#[test]
fn repeat_closes_an_empty_fiber_under_stop_1_with_an_unloaded_base() {
    let base = vec![val(1.0), val(2.0), s(0), D];
    let rep = vec![idx(5), s(0), s(1), D];
    let out = standalone(NodeKind::Repeat, vec![base, rep], vec![]).unwrap();
    assert_eq!(out[0], vec![val(1.0), s(0), s(1), D]);

    // A base element where the base stop belongs is still misaligned.
    let base = vec![val(1.0), val(2.0), D];
    let err = standalone(NodeKind::Repeat, vec![base, vec![s(1), D]], vec![]).unwrap_err();
    let named = |m: &str| m.contains("repeat base misaligned: rep Stop(1) vs base Elem(F(2.0))");
    assert!(matches!(&err, SimError::Semantics(m) if named(m)), "{err}");
}

#[test]
fn intersect_matches_coordinates() {
    let ca = vec![idx(0), idx(2), idx(5), s(0), D];
    let pa = vec![idx(10), idx(12), idx(15), s(0), D];
    let cb = vec![idx(2), idx(3), idx(5), s(0), D];
    let pb = vec![idx(22), idx(23), idx(25), s(0), D];
    let out = standalone(NodeKind::Intersect, vec![ca, pa, cb, pb], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(2), idx(5), s(0), D]);
    assert_eq!(out[1], vec![idx(12), idx(15), s(0), D]);
    assert_eq!(out[2], vec![idx(22), idx(25), s(0), D]);
}

#[test]
fn intersect_handles_disjoint_fibers() {
    let ca = vec![idx(0), s(0), idx(1), s(1), D];
    let pa = vec![idx(0), s(0), idx(1), s(1), D];
    let cb = vec![idx(1), s(0), idx(1), s(1), D];
    let pb = vec![idx(9), s(0), idx(9), s(1), D];
    let out = standalone(NodeKind::Intersect, vec![ca, pa, cb, pb], vec![]).unwrap();
    assert_eq!(out[0], vec![s(0), idx(1), s(1), D]);
}

#[test]
fn union_emits_empty_placeholders() {
    let ca = vec![idx(0), idx(2), s(0), D];
    let pa = vec![idx(10), idx(12), s(0), D];
    let cb = vec![idx(1), idx(2), s(0), D];
    let pb = vec![idx(21), idx(22), s(0), D];
    let out = standalone(NodeKind::Union, vec![ca, pa, cb, pb], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(0), idx(1), idx(2), s(0), D]);
    assert_eq!(out[1], vec![idx(10), Token::Elem(Payload::Empty), idx(12), s(0), D]);
    assert_eq!(out[2], vec![Token::Elem(Payload::Empty), idx(21), idx(22), s(0), D]);
}

#[test]
fn union_drains_longer_side_after_stop() {
    let ca = vec![idx(0), s(0), D];
    let pa = vec![idx(10), s(0), D];
    let cb = vec![idx(0), idx(4), idx(6), s(0), D];
    let pb = vec![idx(20), idx(24), idx(26), s(0), D];
    let out = standalone(NodeKind::Union, vec![ca, pa, cb, pb], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(0), idx(4), idx(6), s(0), D]);
}

/// Every join mode against the four ways one side's head is an element the
/// other side lacks: a smaller coordinate on either side, or an element
/// facing a stop on either side. `Intersect` drops the lone element, `Union`
/// keeps it with an empty payload on the other side, and `UnionLeft` keeps
/// it only from the left (`a`). Payload streams are the coordinates + 10
/// (`a`) and + 20 (`b`).
#[test]
fn joins_keep_or_drop_a_lone_element_by_mode_and_side() {
    let e = Token::Elem(Payload::Empty);
    let pay = |c: &[Token], by: u32| -> Vec<Token> {
        c.iter()
            .map(|&t| if let Token::Elem(Payload::Idx(i)) = t { idx(i + by) } else { t })
            .collect()
    };
    let cases: [(&str, Vec<Token>, Vec<Token>); 4] = [
        ("a < b", vec![idx(1), idx(2), s(0), D], vec![idx(2), s(0), D]),
        ("a > b", vec![idx(2), s(0), D], vec![idx(1), idx(2), s(0), D]),
        ("(elem, stop)", vec![idx(1), s(0), D], vec![s(0), D]),
        ("(stop, elem)", vec![s(0), D], vec![idx(1), s(0), D]),
    ];
    let stops = vec![s(0), D];
    #[rustfmt::skip]
    let want: [(NodeKind, [[Vec<Token>; 3]; 4]); 3] = [
        (NodeKind::Intersect, [
            [vec![idx(2), s(0), D], vec![idx(12), s(0), D], vec![idx(22), s(0), D]],
            [vec![idx(2), s(0), D], vec![idx(12), s(0), D], vec![idx(22), s(0), D]],
            [stops.clone(), stops.clone(), stops.clone()],
            [stops.clone(), stops.clone(), stops.clone()],
        ]),
        (NodeKind::Union, [
            [vec![idx(1), idx(2), s(0), D], vec![idx(11), idx(12), s(0), D], vec![e, idx(22), s(0), D]],
            [vec![idx(1), idx(2), s(0), D], vec![e, idx(12), s(0), D], vec![idx(21), idx(22), s(0), D]],
            [vec![idx(1), s(0), D], vec![idx(11), s(0), D], vec![e, s(0), D]],
            [vec![idx(1), s(0), D], vec![e, s(0), D], vec![idx(21), s(0), D]],
        ]),
        (NodeKind::UnionLeft, [
            [vec![idx(1), idx(2), s(0), D], vec![idx(11), idx(12), s(0), D], vec![e, idx(22), s(0), D]],
            [vec![idx(2), s(0), D], vec![idx(12), s(0), D], vec![idx(22), s(0), D]],
            [vec![idx(1), s(0), D], vec![idx(11), s(0), D], vec![e, s(0), D]],
            [stops.clone(), stops.clone(), stops.clone()],
        ]),
    ];
    for (kind, outs) in want {
        for ((case, ca, cb), want) in cases.iter().zip(outs) {
            let ins = vec![ca.clone(), pay(ca, 10), cb.clone(), pay(cb, 20)];
            let out = standalone(kind.clone(), ins, vec![]).unwrap();
            assert_eq!(out, want, "{kind:?}, {case}");
        }
    }

    // A dropped lone element is never read as a coordinate; a kept one is.
    let v = val(9.0);
    for (kind, ca, cb, kept) in [
        (NodeKind::Intersect, vec![v, s(0), D], vec![s(0), D], false),
        (NodeKind::Intersect, vec![s(0), D], vec![v, s(0), D], false),
        (NodeKind::UnionLeft, vec![s(0), D], vec![v, s(0), D], false),
        (NodeKind::UnionLeft, vec![v, s(0), D], vec![s(0), D], true),
        (NodeKind::Union, vec![s(0), D], vec![v, s(0), D], true),
    ] {
        let ran = standalone(kind.clone(), vec![ca.clone(), ca, cb.clone(), cb], vec![]);
        match ran {
            Ok(out) => assert!(!kept && out[0] == stops, "{kind:?}: {out:?}"),
            Err(SimError::Semantics(m)) => {
                assert!(kept && m.contains("coordinate port received F(9.0)"), "{kind:?}: {m}")
            }
            Err(e) => panic!("{kind:?}: {e}"),
        }
    }
}

#[test]
fn alu_binary_add() {
    let a = vec![val(1.0), val(2.0), s(0), D];
    let b = vec![val(10.0), val(20.0), s(0), D];
    let out = standalone(NodeKind::Alu { op: AluOp::Add }, vec![a, b], vec![]).unwrap();
    assert_eq!(out[0], vec![val(11.0), val(22.0), s(0), D]);
}

#[test]
fn alu_add_treats_empty_as_zero() {
    let a = vec![Token::Elem(Payload::Empty), val(2.0), s(0), D];
    let b = vec![val(10.0), Token::Elem(Payload::Empty), s(0), D];
    let out = standalone(NodeKind::Alu { op: AluOp::Add }, vec![a, b], vec![]).unwrap();
    assert_eq!(out[0], vec![val(10.0), val(2.0), s(0), D]);
}

#[test]
fn alu_unary_relu() {
    let a = vec![val(-1.0), val(3.0), s(0), D];
    let out = standalone(NodeKind::Alu { op: AluOp::Relu }, vec![a], vec![]).unwrap();
    assert_eq!(out[0], vec![val(0.0), val(3.0), s(0), D]);
}

#[test]
fn reduce_sums_inner_fibers() {
    let v = vec![val(1.0), val(2.0), s(0), val(5.0), s(1), D];
    let out = standalone(NodeKind::Spacc { order: 0, op: ReduceOp::Sum }, vec![v], vec![]).unwrap();
    assert_eq!(out[0], vec![val(3.0), val(5.0), s(0), D]);
}

#[test]
fn reduce_emits_identity_for_empty_fiber() {
    let v = vec![s(0), val(4.0), s(1), D];
    let out = standalone(NodeKind::Spacc { order: 0, op: ReduceOp::Sum }, vec![v], vec![]).unwrap();
    assert_eq!(out[0], vec![val(0.0), val(4.0), s(0), D]);
}

#[test]
fn reduce_max() {
    let v = vec![val(1.0), val(7.0), val(3.0), s(1), D];
    let out = standalone(NodeKind::Spacc { order: 0, op: ReduceOp::Max }, vec![v], vec![]).unwrap();
    assert_eq!(out[0], vec![val(7.0), s(0), D]);
}

/// An absent operand (`Empty`) beside a value adds nothing, in either
/// order: the value passes with its bits, a NaN under `Max` and a `-0.0`
/// under `Sum` included, as the interpreter skips an absent coordinate. A
/// tile passes as the same tile.
#[test]
fn reduce_passes_a_value_beside_an_absent_one_as_it_is() {
    let empty = Token::Elem(Payload::Empty);
    for (op, v) in [(ReduceOp::Max, f32::NAN), (ReduceOp::Sum, -0.0)] {
        for fiber in [[val(v), empty], [empty, val(v)]] {
            let stream = [fiber.as_slice(), &[s(0), D]].concat();
            let out = standalone(NodeKind::Spacc { order: 0, op }, vec![stream], vec![]).unwrap();
            let [Token::Elem(Payload::F(got)), Token::Done] = out[0][..] else {
                panic!("{op:?}: {:?}", out[0]);
            };
            assert_eq!(got.to_bits(), v.to_bits(), "{op:?} over {fiber:?}");
        }
    }
    let mut tiles = Tiles::default();
    let tile = Token::Elem(Payload::Blk(tiles.put(Block::new(2, 2, vec![1.0; 4]))));
    for fiber in [[tile, empty], [empty, tile]] {
        let stream = [fiber.as_slice(), &[s(0), D]].concat();
        let reduce = NodeKind::Spacc { order: 0, op: ReduceOp::Sum };
        let out = run_node_standalone(reduce, vec![stream], vec![], &mut tiles);
        assert_eq!(out, Ok(vec![vec![tile, D]]), "over {fiber:?}");
    }
}

#[test]
fn spacc_accumulates_across_inner_boundaries() {
    // Two k-fibers for i0: {j0: 1, j2: 2} then {j0: 10, j1: 20}; one for i1.
    let crd = vec![idx(0), idx(2), s(0), idx(0), idx(1), s(1), idx(3), s(2), D];
    let vals = vec![val(1.), val(2.), s(0), val(10.), val(20.), s(1), val(3.), s(2), D];
    let out = standalone(NodeKind::Spacc { order: 1, op: ReduceOp::Sum }, vec![crd, vals], vec![])
        .unwrap();
    assert_eq!(out[0], vec![idx(0), idx(1), idx(2), s(0), idx(3), s(1), D]);
    assert_eq!(out[1], vec![val(11.0), val(20.0), val(2.0), s(0), val(3.0), s(1), D]);
}

#[test]
fn spacc_flushes_empty_fiber_for_empty_accumulation() {
    let crd = vec![s(1), idx(2), s(2), D];
    let vals = vec![s(1), val(5.0), s(2), D];
    let out = standalone(NodeKind::Spacc { order: 1, op: ReduceOp::Sum }, vec![crd, vals], vec![])
        .unwrap();
    assert_eq!(out[0], vec![s(0), idx(2), s(1), D]);
    assert_eq!(out[1], vec![s(0), val(5.0), s(1), D]);
}

/// `Done` with values still in the map is an error at every order (order
/// 0 used to drop them), and an order past `MAX_SPACC_ORDER` is refused
/// before the run, as `validate` refuses it in a graph.
#[test]
fn spacc_refuses_unflushed_state_at_done_and_an_order_it_lacks() {
    let unflushed = |order: usize| {
        let ins = [vec![idx(1), D], vec![val(1.0), D]];
        let kind = NodeKind::Spacc { order, op: ReduceOp::Sum };
        standalone(kind, ins[1 - order..].to_vec(), vec![]).unwrap_err()
    };
    for order in [0, 1] {
        let want = "spacc reached Done with unflushed state at standalone";
        assert_eq!(unflushed(order), SimError::Semantics(want.into()), "order {order}");
    }
    let order = MAX_SPACC_ORDER + 1;
    let deep = NodeKind::Spacc { order, op: ReduceOp::Sum };
    let err = standalone(deep, vec![vec![s(0), D]; MAX_SPACC_ORDER + 2], vec![]).unwrap_err();
    assert_eq!(err, SimError::Validation(GraphError::DeepAccumulator { node: 0, order }));
}

/// A value as a test compares it: tiles by their elements, floats by bits.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Idx(u32),
    F(u32),
    Blk(Vec<u32>),
    Empty,
    Stop(u8),
    Done,
}

fn seen(tok: Token, tiles: &Tiles) -> Seen {
    match tok {
        Token::Elem(Payload::Idx(i)) => Seen::Idx(i),
        Token::Elem(Payload::F(v)) => Seen::F(v.to_bits()),
        Token::Elem(Payload::Blk(b)) => {
            Seen::Blk(tiles.get(b).data().iter().map(|v| v.to_bits()).collect())
        }
        Token::Elem(Payload::Empty) => Seen::Empty,
        Token::Stop(k) => Seen::Stop(k),
        Token::Done => Seen::Done,
    }
}

/// An accumulator value of the model: a scalar, a tile's elements, or absent.
#[derive(Debug, Clone)]
enum ModelVal {
    F(f32),
    Blk(Vec<f32>),
    Empty,
}

impl ModelVal {
    fn merge(self, other: ModelVal, op: ReduceOp) -> ModelVal {
        match (self, other) {
            (ModelVal::F(a), ModelVal::F(b)) => ModelVal::F(op.apply(a, b)),
            (ModelVal::Blk(a), ModelVal::Blk(b)) => {
                ModelVal::Blk(a.iter().zip(&b).map(|(&x, &y)| op.apply(x, y)).collect())
            }
            (ModelVal::Empty, p) | (p, ModelVal::Empty) => p,
            (a, b) => panic!("the generator mixed {a:?} and {b:?}"),
        }
    }

    fn seen(&self) -> Seen {
        match self {
            ModelVal::F(v) => Seen::F(v.to_bits()),
            ModelVal::Blk(d) => Seen::Blk(d.iter().map(|v| v.to_bits()).collect()),
            ModelVal::Empty => Seen::Empty,
        }
    }
}

/// A small deterministic generator (xorshift64*), so the test needs no
/// random-number crate and every failure is reproducible from its seed.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
    }
}

/// The `Spacc` of order 0 and 1 against a `BTreeMap` model, through
/// `run_node_standalone`. Each case is a few output rows (flushed by a stop
/// of level `order` or above), each made of fibers whose coordinates
/// ascend, with coordinates revisited out of order from one fiber to the
/// next (and, now and then, a fiber in descending order), under `Sum` and
/// `Max`, with scalar or 2x2 tile payloads and some `Empty` operands.
#[test]
fn spacc_matches_a_btreemap_model() {
    for seed in 1..=200u64 {
        let mut g = Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let order = (seed % 2) as usize;
        let op = if seed % 4 < 2 { ReduceOp::Sum } else { ReduceOp::Max };
        let tiled = seed % 8 >= 4;
        let mut tiles = Tiles::default();
        let (mut crd_in, mut val_in) = (Vec::new(), Vec::new());
        let (mut crd_want, mut val_want) = (Vec::new(), Vec::new());
        let rows = 1 + g.below(4);
        for row in 0..rows {
            let mut model: std::collections::BTreeMap<u32, ModelVal> = Default::default();
            // At order 0 every stop flushes, so a row is one fiber.
            let fibers = if order == 0 { 1 } else { 1 + g.below(4) };
            for fiber in 0..fibers {
                let mut crds: Vec<u32> = (0..8).filter(|_| g.below(3) == 0).collect();
                if order == 0 {
                    crds.truncate(g.below(4) as usize);
                    crds.iter_mut().for_each(|c| *c = 0);
                } else if g.below(6) == 0 {
                    crds.reverse();
                }
                for c in crds {
                    let v = if g.below(6) == 0 {
                        ModelVal::Empty
                    } else if tiled {
                        ModelVal::Blk((0..4).map(|_| g.below(9) as f32 - 4.0).collect())
                    } else {
                        ModelVal::F(g.below(9) as f32 - 4.0)
                    };
                    let payload = match &v {
                        ModelVal::F(x) => Payload::F(*x),
                        ModelVal::Blk(d) => Payload::Blk(tiles.put(Block::new(2, 2, d.clone()))),
                        ModelVal::Empty => Payload::Empty,
                    };
                    crd_in.push(idx(c));
                    val_in.push(Token::Elem(payload));
                    let merged = match model.remove(&c) {
                        Some(old) => old.merge(v, op),
                        None => v,
                    };
                    model.insert(c, merged);
                }
                // Stops below `order` separate fibers; the row's last closes it.
                let last_row = row + 1 == rows;
                let k = match (fiber + 1 == fibers, last_row) {
                    (false, _) => 0,
                    (true, false) => order as u8,
                    (true, true) => order as u8 + 1,
                };
                crd_in.push(s(k));
                val_in.push(s(k));
            }
            if order == 0 && model.is_empty() {
                model.insert(0, ModelVal::F(0.0));
            }
            for (c, v) in model {
                crd_want.push(Seen::Idx(c));
                val_want.push(v.seen());
            }
            let k = if row + 1 == rows { order as u8 + 1 } else { order as u8 };
            if k >= 1 {
                crd_want.push(Seen::Stop(k - 1));
                val_want.push(Seen::Stop(k - 1));
            }
        }
        crd_in.push(D);
        val_in.push(D);
        crd_want.push(Seen::Done);
        val_want.push(Seen::Done);

        let kind = NodeKind::Spacc { order, op };
        let ins = if order == 0 { vec![val_in] } else { vec![crd_in, val_in] };
        let out = run_node_standalone(kind, ins, vec![], &mut tiles)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let got: Vec<Vec<Seen>> =
            out.iter().map(|p| p.iter().map(|&t| seen(t, &tiles)).collect()).collect();
        let case = format!("seed {seed}, order {order}, {op:?}, tiled {tiled}");
        if order == 1 {
            assert_eq!(got[0], crd_want, "{case}: coordinates");
        }
        assert_eq!(got[order], val_want, "{case}: values");
    }
}

#[test]
fn parallelizer_round_robins_elements_and_broadcasts_stops() {
    let crd = vec![idx(0), idx(1), idx(2), s(0), D];
    let refs = vec![idx(10), idx(11), idx(12), s(0), D];
    let out = standalone(NodeKind::Parallelizer { factor: 2 }, vec![crd, refs], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(0), idx(2), s(0), D]); // branch 0 crd
    assert_eq!(out[1], vec![idx(10), idx(12), s(0), D]); // branch 0 ref
    assert_eq!(out[2], vec![idx(1), s(0), D]); // branch 1 crd
    assert_eq!(out[3], vec![idx(11), s(0), D]); // branch 1 ref
}

#[test]
fn serializer_merges_depth0_elements() {
    let b0 = vec![idx(0), idx(2), s(0), D];
    let b1 = vec![idx(1), s(0), D];
    let order = vec![idx(0), idx(1), idx(2), s(0), D];
    let out = standalone(NodeKind::Serializer { factor: 2, depth: 0 }, vec![b0, b1, order], vec![])
        .unwrap();
    assert_eq!(out[0], vec![idx(0), idx(1), idx(2), s(0), D]);
}

#[test]
fn serializer_merges_depth1_fibers() {
    // Branch 0 carries rows 0 and 2; branch 1 carries rows 1 and 3.
    let b0 = vec![val(1.0), val(2.0), s(0), val(5.0), s(1), D];
    let b1 = vec![val(3.0), s(0), val(7.0), val(8.0), s(1), D];
    let order = vec![idx(0), idx(1), idx(2), idx(3), s(0), D];
    let out = standalone(NodeKind::Serializer { factor: 2, depth: 1 }, vec![b0, b1, order], vec![])
        .unwrap();
    assert_eq!(
        out[0],
        vec![val(1.0), val(2.0), s(0), val(3.0), s(0), val(5.0), s(0), val(7.0), val(8.0), s(1), D]
    );
}

#[test]
fn serializer_handles_empty_coalesced_unit() {
    // Branch 0's second unit (row 2) is empty and its boundary coalesced
    // into the barrier stop; the order stream disambiguates it.
    let b0 = vec![val(1.0), s(0), s(1), D];
    let b1 = vec![val(3.0), s(0), val(7.0), s(1), D];
    let order = vec![idx(0), idx(1), idx(2), idx(3), s(0), D];
    let out = standalone(NodeKind::Serializer { factor: 2, depth: 1 }, vec![b0, b1, order], vec![])
        .unwrap();
    assert_eq!(out[0], vec![val(1.0), s(0), val(3.0), s(0), s(0), val(7.0), s(1), D]);
}

#[test]
fn serializer_handles_starved_branch() {
    // Only 3 units for 4 branches: branch 3 receives just the broadcast
    // barrier and must not contribute a phantom unit.
    let b0 = vec![val(1.0), s(1), D];
    let b1 = vec![val(2.0), s(1), D];
    let b2 = vec![val(3.0), s(1), D];
    let b3 = vec![s(1), D];
    let order = vec![idx(0), idx(1), idx(2), s(0), D];
    let out = standalone(
        NodeKind::Serializer { factor: 4, depth: 1 },
        vec![b0, b1, b2, b3, order],
        vec![],
    )
    .unwrap();
    assert_eq!(out[0], vec![val(1.0), s(0), val(2.0), s(0), val(3.0), s(1), D]);
}

#[test]
fn array_reads_values_and_zeros_for_empty() {
    let dense = DenseTensor::from_vec(vec![4], vec![5., 6., 7., 8.]);
    let t = SparseTensor::from_dense(&dense, &Format::dense_vec());
    let refs = vec![idx(2), Token::Elem(Payload::Empty), idx(0), s(0), D];
    let out = standalone(NodeKind::Array { tensor: 0 }, vec![refs], vec![t]).unwrap();
    assert_eq!(out[0], vec![val(7.0), val(0.0), val(5.0), s(0), D]);
}

#[test]
fn blocked_array_and_matmul_alu() {
    let a = SparseTensor::from_blocks(
        vec![2, 2],
        [2, 2],
        vec![(vec![0, 0], vec![1., 2., 3., 4.])],
        &Format::csr(),
    )
    .unwrap();
    let mut tiles = Tiles::default();
    let refs = vec![idx(0), s(0), D];
    let array = NodeKind::Array { tensor: 0 };
    let out = run_node_standalone(array, vec![refs], vec![a], &mut tiles).unwrap();
    let Token::Elem(Payload::Blk(b)) = out[0][0] else { panic!("expected block") };
    assert_eq!(tiles.get(b).data(), &[1., 2., 3., 4.]);

    // Tile contraction through the Mul ALU, on the tile the array left in
    // the table.
    let lhs = vec![out[0][0], s(0), D];
    let mul = NodeKind::Alu { op: AluOp::Mul };
    let prod = run_node_standalone(mul, vec![lhs.clone(), lhs], vec![], &mut tiles).unwrap();
    let Token::Elem(Payload::Blk(p)) = prod[0][0] else { panic!("expected block") };
    assert_eq!(tiles.get(p).data(), &[7., 10., 15., 22.]);
}

/// A `Stop(255)` into a scanner has no deeper stop to become.
#[test]
fn scanner_stop_past_255_is_a_typed_error() {
    let t = SparseTensor::from_dense(
        &DenseTensor::from_vec(vec![2], vec![1., 2.]),
        &Format::dense_vec(),
    );
    let refs = vec![s(255), D];
    let err = standalone(NodeKind::LevelScanner { tensor: 0, level: 0 }, vec![refs], vec![t])
        .unwrap_err();
    assert_eq!(err, SimError::Semantics("stop level 255 + 1 exceeds 255 at standalone".into()));
}

/// Accumulating a 4x4 tile into a 2x2 one is a typed error at both
/// accumulator orders.
#[test]
fn reducers_refuse_tiles_of_different_shapes() {
    let mut tiles = Tiles::default();
    let mut tile =
        |n: usize| Token::Elem(Payload::Blk(tiles.put(Block::new(n, n, vec![1.0; n * n]))));
    let v = vec![tile(2), tile(4), s(0), D];
    let vals = vec![tile(2), tile(4), s(1), D];
    let want = SimError::Semantics(
        "spacc: tiles of 2x2 and 4x4 do not fit an elementwise op at standalone".into(),
    );
    let reduce = NodeKind::Spacc { order: 0, op: ReduceOp::Sum };
    let err = run_node_standalone(reduce, vec![v], vec![], &mut tiles).unwrap_err();
    assert_eq!(err, want);
    let crd = vec![idx(3), idx(3), s(1), D];
    let spacc = NodeKind::Spacc { order: 1, op: ReduceOp::Sum };
    let err = run_node_standalone(spacc, vec![crd, vals], vec![], &mut tiles).unwrap_err();
    assert_eq!(err, want);
}

/// A tile keeps dimensions past `u16::MAX`: a 65537x1 tile and a 1x1 tile
/// in one elementwise ALU are a shape mismatch, not a 1x1 sum.
#[test]
fn a_tile_of_65537_rows_keeps_its_shape() {
    let tall = Block::new(65537, 1, vec![1.0; 65537]);
    assert_eq!((tall.rows(), tall.cols()), (65537, 1));
    let mut tiles = Tiles::default();
    let a = vec![Token::Elem(Payload::Blk(tiles.put(tall))), s(0), D];
    let b = vec![Token::Elem(Payload::Blk(tiles.put(Block::new(1, 1, vec![1.0])))), s(0), D];
    let add = NodeKind::Alu { op: AluOp::Add };
    let err = run_node_standalone(add, vec![a, b], vec![], &mut tiles).unwrap_err();
    let want = "tiles of 65537x1 and 1x1 do not fit an elementwise op at standalone";
    assert_eq!(err, SimError::Semantics(want.into()));
}

/// The standalone runner checks what it is given: a stream count that is
/// not the node's port count, or a tile handle from another table, is a
/// typed error.
#[test]
fn standalone_refuses_a_wrong_stream_count_and_a_tile_it_does_not_hold() {
    let add = NodeKind::Alu { op: AluOp::Add };
    let err = standalone(add, vec![vec![val(1.0), D]], vec![]).unwrap_err();
    let want = "Alu { op: Add } takes 2 input streams (empty = unconnected), got 1";
    assert_eq!(err, SimError::Config(want.into()));

    let mut other = Tiles::default();
    let foreign = Token::Elem(Payload::Blk(other.put(Block::new(1, 1, vec![1.0]))));
    let err = standalone(NodeKind::Alu { op: AluOp::Relu }, vec![vec![foreign, D]], vec![]);
    let want = "Elem(Blk(Tile(0))) names a tile the table does not hold";
    assert_eq!(err.unwrap_err(), SimError::Config(want.into()));
}

/// A writer writes an output and has no stream to return: refused before it
/// runs, whatever its input.
#[test]
fn standalone_refuses_a_writer() {
    let writer = NodeKind::ValWriter { output: 0 };
    let err = standalone(writer, vec![vec![val(1.0), D]], vec![]).unwrap_err();
    let want = "ValWriter { output: 0 } writes an output, not a stream";
    assert_eq!(err, SimError::Config(want.into()));
    let writer = NodeKind::CrdWriter { output: 0, level: 0 };
    let err = standalone(writer, vec![vec![idx(0), D]], vec![]).unwrap_err();
    assert!(matches!(err, SimError::Config(_)), "{err:?}");
}

/// A `Parallelizer` or `Serializer` with no branch is refused before it runs,
/// as `validate` refuses it in a graph: dealing elements to, or merging them
/// from, zero branches divides by zero.
#[test]
fn standalone_refuses_a_zero_branch_factor() {
    let crd = vec![idx(0), idx(1), s(0), D];
    for kind in [NodeKind::Parallelizer { factor: 0 }, NodeKind::Serializer { factor: 0, depth: 0 }]
    {
        let inputs = vec![crd.clone(); kind.input_ports().len()];
        let err = standalone(kind, inputs, vec![]).unwrap_err();
        assert_eq!(err, SimError::Validation(GraphError::ZeroFactor { node: 0 }));
    }
}

/// An `Array` or `LevelScanner` naming a tensor it was not given names a
/// slot its one-node graph lacks: a `BadSlot`, as `validate` refuses it.
#[test]
fn standalone_refuses_a_tensor_it_was_not_given() {
    let refs = vec![idx(0), D];
    let bad_slot = SimError::Validation(GraphError::BadSlot { node: 0 });
    let err = standalone(NodeKind::Array { tensor: 0 }, vec![refs.clone()], vec![]).unwrap_err();
    assert_eq!(err, bad_slot);
    let a = SparseTensor::from_dense(
        &DenseTensor::from_vec(vec![2], vec![1.0, 2.0]),
        &Format::sparse_vec(),
    );
    let scan = NodeKind::LevelScanner { tensor: 1, level: 0 };
    let err = standalone(scan, vec![refs], vec![a]).unwrap_err();
    assert_eq!(err, bad_slot);
}

/// A `LevelScanner` past its tensor's levels is a `LevelOutOfRange` naming
/// the scanner by its anchor, as in `simulate`.
#[test]
fn standalone_refuses_a_level_its_tensor_lacks() {
    let a = SparseTensor::from_dense(
        &DenseTensor::from_vec(vec![2], vec![1.0, 2.0]),
        &Format::sparse_vec(),
    );
    let scan = NodeKind::LevelScanner { tensor: 0, level: 1 };
    let err = standalone(scan, vec![vec![idx(0), D]], vec![a]).unwrap_err();
    let want = SimError::LevelOutOfRange {
        node: "LS[t0.l1]#0".into(),
        tensor: "t0".into(),
        level: 1,
        order: 1,
    };
    assert_eq!(err, want);
}
