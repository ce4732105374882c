//! Reconstruction of output tensors from writer token streams.
//!
//! The tensor-construction region of a SAMML graph sends one coordinate
//! stream per output level plus a value stream to writers. This module
//! replays the tokens the writers recorded into COO entries and hands them,
//! scalar or tile alike, to the one fibertree builder
//! ([`SparseTensor::from_blocks`]), reading each tile payload from the run's
//! [`Tiles`]. Empty fibers (bare stop tokens) simply skip their parent
//! coordinate, which is how this reproduction realizes the paper's
//! coordinate-dropper semantics at the writer. A position the output format
//! stores and no writer sent (under a dense level) is zero, a zero tile when
//! blocked; a coordinate sent twice sums.

use crate::tok::{Payload, Tiles, Token};
use fuseflow_sam::OutputSlot;
use fuseflow_tensor::{Crd, SparseTensor};

/// Replays the writer streams of an `order`-level output into
/// `(coordinates, payload)` entries.
///
/// `crd_streams[k]` is the coordinate stream of level `k`; `vals` pairs 1:1
/// with the innermost coordinate stream.
///
/// # Errors
///
/// Returns a description of the first structural mismatch (streams are
/// produced by the simulator, so a failure indicates a compiler bug).
pub(crate) fn streams_to_entries(
    crd_streams: &[Vec<Token>],
    vals: &[Token],
) -> Result<Vec<(Vec<Crd>, Payload)>, String> {
    let order = crd_streams.len();
    if order == 0 {
        return Err("output must have at least one level".into());
    }
    let inner = &crd_streams[order - 1];
    let n_outer = order - 1;
    // Lazy cursors over outer levels.
    let mut iters: Vec<std::slice::Iter<'_, Token>> =
        crd_streams[..n_outer].iter().map(|s| s.iter()).collect();
    let mut cur: Vec<Option<Crd>> = vec![None; n_outer];
    let mut skip: Vec<usize> = vec![0; n_outer];
    let mut out = Vec::new();

    let mut vi = vals.iter();
    for &tok in inner {
        let &vtok = vi.next().ok_or("value stream shorter than inner coordinate stream")?;
        match (tok, vtok) {
            (Token::Elem(c), Token::Elem(p)) => {
                let mut coords = Vec::with_capacity(order);
                for k in 0..n_outer {
                    while cur[k].is_none() {
                        match iters[k].next() {
                            Some(&Token::Elem(e)) => {
                                if skip[k] > 0 {
                                    skip[k] -= 1;
                                } else {
                                    cur[k] = Some(crd(e)?);
                                }
                            }
                            Some(_) => {} // stops of outer streams carry no extra info
                            None => return Err(format!("outer stream {k} exhausted early")),
                        }
                    }
                    coords.push(cur[k].expect("populated above"));
                }
                coords.push(crd(c)?);
                out.push((coords, p));
            }
            (Token::Stop(s), Token::Stop(s2)) => {
                if s != s2 {
                    return Err(format!("crd/val stop mismatch: {s} vs {s2}"));
                }
                // Stop(s) closes the innermost fiber plus `s` enclosing
                // levels: invalidate the parents of each closed fiber.
                for j in 0..=(s as usize) {
                    if j < n_outer {
                        let k = n_outer - 1 - j;
                        if cur[k].is_some() {
                            cur[k] = None;
                        } else {
                            skip[k] += 1;
                        }
                    }
                }
            }
            (Token::Done, Token::Done) => break,
            (a, b) => return Err(format!("crd/val token mismatch: {a:?} vs {b:?}")),
        }
    }
    Ok(out)
}

/// The coordinate a coordinate-stream element carries.
fn crd(p: Payload) -> Result<Crd, String> {
    match p {
        Payload::Idx(i) => Ok(i),
        other => Err(format!("coordinate stream carries {other:?}")),
    }
}

/// Assembles an output tensor from writer streams according to its slot
/// description (format, shape, block): each payload becomes a tile, of one
/// value for a scalar output (an empty one is zero), read from `tiles` for a
/// blocked one, and the entries go to the one fibertree builder,
/// [`SparseTensor::from_blocks`].
///
/// # Errors
///
/// Propagates structural errors from [`streams_to_entries`] and payload or
/// bound mismatches.
pub(crate) fn assemble_output(
    slot: &OutputSlot,
    crd_streams: &[Vec<Token>],
    vals: &[Token],
    tiles: &Tiles,
) -> Result<SparseTensor, String> {
    let entries = streams_to_entries(crd_streams, vals)?
        .into_iter()
        .map(|(c, p)| match p {
            Payload::F(v) => Ok((c, vec![v])),
            Payload::Empty => Ok((c, vec![0.0; slot.block[0] * slot.block[1]])),
            Payload::Blk(b) => Ok((c, tiles.get(b).data().to_vec())),
            other @ Payload::Idx(_) => Err(format!("output received payload {other:?}")),
        })
        .collect::<Result<_, String>>()?;
    SparseTensor::from_blocks(slot.shape.clone(), slot.block, entries, &slot.format)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tok::Block;
    use fuseflow_sam::MemLocation;
    use fuseflow_tensor::Format;

    fn idx(i: u32) -> Token {
        Token::idx(i)
    }

    fn val(v: f32) -> Token {
        Token::Elem(Payload::F(v))
    }

    #[test]
    fn two_level_reconstruction() {
        // Matrix rows: i0 -> {j0, j2}, i1 -> {j1}.
        let crd0 = vec![idx(0), idx(1), Token::Stop(0), Token::Done];
        let crd1 = vec![idx(0), idx(2), Token::Stop(0), idx(1), Token::Stop(1), Token::Done];
        let vals = vec![val(1.0), val(2.0), Token::Stop(0), val(3.0), Token::Stop(1), Token::Done];
        let e = streams_to_entries(&[crd0, crd1], &vals).unwrap();
        assert_eq!(e.len(), 3);
        assert_eq!(e[0].0, vec![0, 0]);
        assert_eq!(e[1].0, vec![0, 2]);
        assert_eq!(e[2].0, vec![1, 1]);
        assert_eq!(e[2].1, Payload::F(3.0));
    }

    #[test]
    fn empty_fiber_skips_parent() {
        // i0 has an empty j-fiber (adjacent stops), i1 holds one element.
        let crd0 = vec![idx(0), idx(1), Token::Stop(0), Token::Done];
        let crd1 = vec![Token::Stop(0), idx(4), Token::Stop(1), Token::Done];
        let vals = vec![Token::Stop(0), val(9.0), Token::Stop(1), Token::Done];
        let e = streams_to_entries(&[crd0, crd1], &vals).unwrap();
        assert_eq!(e, vec![(vec![1, 4], Payload::F(9.0))]);
    }

    #[test]
    fn vector_output() {
        let crd0 = vec![idx(2), idx(5), Token::Stop(0), Token::Done];
        let vals = vec![val(1.5), val(2.5), Token::Stop(0), Token::Done];
        let e = streams_to_entries(&[crd0], &vals).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e[1], (vec![5], Payload::F(2.5)));
    }

    #[test]
    fn three_level_stop_bookkeeping() {
        // (i, k, j): i0 -> k0 -> {j0}, i0 -> k1 -> {j1}, i1 -> k0 -> {j0}.
        let crd0 = vec![idx(0), idx(1), Token::Stop(0), Token::Done];
        let crd1 = vec![idx(0), idx(1), Token::Stop(0), idx(0), Token::Stop(1), Token::Done];
        let crd2 = vec![
            idx(0),
            Token::Stop(0),
            idx(1),
            Token::Stop(1),
            idx(0),
            Token::Stop(2),
            Token::Done,
        ];
        let vals = vec![
            val(1.0),
            Token::Stop(0),
            val(2.0),
            Token::Stop(1),
            val(3.0),
            Token::Stop(2),
            Token::Done,
        ];
        let e = streams_to_entries(&[crd0, crd1, crd2], &vals).unwrap();
        assert_eq!(
            e.iter().map(|x| x.0.clone()).collect::<Vec<_>>(),
            vec![vec![0, 0, 0], vec![0, 1, 1], vec![1, 0, 0]]
        );
    }

    #[test]
    fn mismatched_streams_error() {
        let crd0 = vec![idx(0), Token::Stop(0), Token::Done];
        let vals = vec![val(1.0), Token::Done];
        assert!(streams_to_entries(&[crd0], &vals).is_err());
    }

    #[test]
    fn values_on_a_coordinate_stream_error() {
        let crd0 = vec![val(1.0), Token::Stop(0), Token::Done];
        let vals = vec![val(1.0), Token::Stop(0), Token::Done];
        let err = streams_to_entries(&[crd0], &vals).unwrap_err();
        assert!(err.contains("coordinate stream carries F(1.0)"), "{err}");
    }

    #[test]
    fn assemble_scalar_output() {
        let slot = OutputSlot {
            name: "T".into(),
            shape: vec![2, 3],
            format: Format::csr(),
            block: [1, 1],
            location: MemLocation::Dram,
        };
        let crd0 = vec![idx(0), idx(1), Token::Stop(0), Token::Done];
        let crd1 = vec![idx(1), Token::Stop(0), idx(2), Token::Stop(1), Token::Done];
        let vals = vec![val(7.0), Token::Stop(0), val(8.0), Token::Stop(1), Token::Done];
        let t = assemble_output(&slot, &[crd0, crd1], &vals, &Tiles::default()).unwrap();
        assert_eq!(t.to_dense().get(&[0, 1]), 7.0);
        assert_eq!(t.to_dense().get(&[1, 2]), 8.0);
    }

    /// A 4x4 output of 2x2 tiles, stored at tile coordinates (0, 1) and
    /// (1, 0): the value stream carries handles, and the data comes from the
    /// table.
    #[test]
    fn assemble_blocked_output() {
        let slot = OutputSlot {
            name: "T".into(),
            shape: vec![4, 4],
            format: Format::csr(),
            block: [2, 2],
            location: MemLocation::Dram,
        };
        let mut tiles = Tiles::default();
        let mut tile =
            |v: [f32; 4]| Token::Elem(Payload::Blk(tiles.put(Block::new(2, 2, v.into()))));
        let vals = vec![tile([1., 2., 3., 4.]), Token::Stop(0), tile([5., 6., 7., 8.])];
        let vals = [vals, vec![Token::Stop(1), Token::Done]].concat();
        let crd0 = vec![idx(0), idx(1), Token::Stop(0), Token::Done];
        let crd1 = vec![idx(1), Token::Stop(0), idx(0), Token::Stop(1), Token::Done];
        let t = assemble_output(&slot, &[crd0, crd1], &vals, &tiles).unwrap().to_dense();
        #[rustfmt::skip]
        let want = [
            0., 0., 1., 2.,
            0., 0., 3., 4.,
            5., 6., 0., 0.,
            7., 8., 0., 0.,
        ];
        assert_eq!(t.data(), &want);
    }
}
