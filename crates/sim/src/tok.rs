//! The stream token: one word, and the only token type there is.
//!
//! A SAMML stream is a linearization of one fibertree level: `Stop(k)`
//! closes the current fiber plus `k` enclosing levels, `Done` ends the
//! stream, and an empty fiber is a bare stop. A stream token of the Sparse
//! Abstract Machine is a coordinate, a reference, a value, or a stop/done,
//! so [`Token`] is an 8-byte `Copy` enum. Channels, staged tokens, in-flight
//! memory and writer streams hold it, the output rebuild reads it, and
//! `run_node_standalone` takes and returns it. A dense tile does not fit in
//! a word: a tile payload is a [`Tile`] handle into a [`Tiles`] table, which
//! the machine context owns for one `simulate` call and which only grows (a
//! tile is never freed before the run ends). So moving, fanning out or
//! repeating a token is a copy of eight bytes, with no reference count to
//! update and nothing to drop.

/// A dense tile carried by blocked streams (Section 7, "Sparsity
/// Blocking"), row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Block {
    /// Creates a block of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or the block is empty.
    pub fn new(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "block must be non-empty");
        assert_eq!(data.len(), rows * cols, "block data length mismatch");
        Block { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major elements.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Elementwise combination of two same-shaped blocks.
    pub(crate) fn zip(&self, other: &Block, f: impl Fn(f32, f32) -> f32) -> Block {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "block shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Block::new(self.rows, self.cols, data)
    }

    pub(crate) fn map(&self, f: impl Fn(f32) -> f32) -> Block {
        Block::new(self.rows, self.cols, self.data.iter().map(|&v| f(v)).collect())
    }

    /// Dense tile matmul: `(r x k) * (k x c) -> (r x c)`.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Block) -> Block {
        assert_eq!(self.cols, other.rows, "block matmul inner mismatch");
        let (r, k, c) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for kk in 0..k {
                let a = self.data[i * k + kk];
                if a == 0.0 {
                    continue;
                }
                for j in 0..c {
                    out[i * c + j] += a * other.data[kk * c + j];
                }
            }
        }
        Block::new(r, c, out)
    }
}

/// A handle to a tile of a [`Tiles`] table; only [`Tiles::put`] makes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile(u32);

/// The payload of a data token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// A coordinate or reference (position) index.
    Idx(u32),
    /// A scalar value.
    F(f32),
    /// A dense tile (block-sparse streams), by handle.
    Blk(Tile),
    /// The "no element here" payload a union emits for a coordinate present
    /// on one side only; arrays and ALUs read it as zero.
    Empty,
}

/// One token of a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token {
    /// A data element.
    Elem(Payload),
    /// End of the current fiber plus `k` enclosing fibers.
    Stop(u8),
    /// End of stream.
    Done,
}

const _: () = assert!(std::mem::size_of::<Token>() == 8, "a token is one word");

impl Token {
    /// An index element.
    pub fn idx(i: u32) -> Token {
        Token::Elem(Payload::Idx(i))
    }

    /// `true` for [`Token::Elem`].
    pub fn is_elem(self) -> bool {
        matches!(self, Token::Elem(_))
    }
}

/// The tiles of one run, by handle.
#[derive(Debug, Default)]
pub struct Tiles(Vec<Block>);

impl Tiles {
    /// Stores a tile for the life of the table.
    pub fn put(&mut self, b: Block) -> Tile {
        let h = u32::try_from(self.0.len()).expect("fewer than 2^32 tiles in one run");
        self.0.push(b);
        Tile(h)
    }

    /// The tile behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if this table holds no tile under `t`.
    pub fn get(&self, t: Tile) -> &Block {
        &self.0[t.0 as usize]
    }

    /// Whether this table holds the tile `t` carries, if it carries one.
    pub(crate) fn holds(&self, t: Token) -> bool {
        match t {
            Token::Elem(Payload::Blk(h)) => (h.0 as usize) < self.0.len(),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_matmul_small() {
        let a = Block::new(2, 2, vec![1., 2., 3., 4.]);
        let b = Block::new(2, 2, vec![5., 6., 7., 8.]);
        assert_eq!(a.matmul(&b).data(), &[19., 22., 43., 50.]);
    }
}
