//! The token the simulator moves: one word.
//!
//! A stream token of the Sparse Abstract Machine is a coordinate, a
//! reference, a value, or a stop/done, so the simulator's channels, staged
//! tokens, in-flight memory and writer streams hold [`Tok`], an 8-byte
//! `Copy` twin of [`fuseflow_sam::Token`] with the same variants. A dense
//! tile does not fit in a word: a tile payload is a [`Tile`] handle into the
//! run's [`Tiles`], which the machine context owns for one `simulate` call
//! and which only grows (a tile is never freed before the run ends). So
//! moving, fanning out or repeating a token is a copy of eight bytes, with
//! no reference count to update and nothing to drop. The public `Token` is
//! built only at the edges: from the writers' streams when outputs are
//! rebuilt, and from and to the literal streams of `run_node_standalone`.

use fuseflow_sam::{Block, Payload, Token};

/// A handle to a tile of the run's [`Tiles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tile(u32);

/// The payload of an element: [`Payload`] with a tile by handle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Pay {
    Idx(u32),
    F(f32),
    Blk(Tile),
    Empty,
}

/// One token of a stream: [`Token`] with a tile by handle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Tok {
    Elem(Pay),
    Stop(u8),
    Done,
}

const _: () = assert!(std::mem::size_of::<Tok>() == 8, "a token is one word");

impl Tok {
    pub(crate) fn idx(i: u32) -> Tok {
        Tok::Elem(Pay::Idx(i))
    }

    pub(crate) fn is_elem(self) -> bool {
        matches!(self, Tok::Elem(_))
    }
}

/// The tiles of one run, by handle.
#[derive(Debug, Default)]
pub(crate) struct Tiles(Vec<Block>);

impl Tiles {
    /// Stores a tile for the rest of the run.
    pub(crate) fn put(&mut self, b: Block) -> Tile {
        let h = u32::try_from(self.0.len()).expect("fewer than 2^32 tiles in one run");
        self.0.push(b);
        Tile(h)
    }

    pub(crate) fn get(&self, t: Tile) -> &Block {
        &self.0[t.0 as usize]
    }

    /// The simulator's token for a public one; a tile is stored.
    pub(crate) fn import(&mut self, t: &Token) -> Tok {
        match t {
            Token::Elem(p) => Tok::Elem(match p {
                Payload::Idx(i) => Pay::Idx(*i),
                Payload::F(v) => Pay::F(*v),
                Payload::Blk(b) => Pay::Blk(self.put(b.clone())),
                Payload::Empty => Pay::Empty,
            }),
            Token::Stop(k) => Tok::Stop(*k),
            Token::Done => Tok::Done,
        }
    }

    /// The public token for one of the simulator's.
    pub(crate) fn export(&self, t: Tok) -> Token {
        match t {
            Tok::Elem(p) => Token::Elem(match p {
                Pay::Idx(i) => Payload::Idx(i),
                Pay::F(v) => Payload::F(v),
                Pay::Blk(h) => Payload::Blk(self.get(h).clone()),
                Pay::Empty => Payload::Empty,
            }),
            Tok::Stop(k) => Token::Stop(k),
            Tok::Done => Token::Done,
        }
    }
}
