//! The SAM stream/token model.
//!
//! A SAMML stream is a linearization of one fibertree level (Section 2): a
//! sequence of payload tokens punctuated by hierarchical stop tokens.
//! `Stop(k)` closes the current fiber **plus `k` enclosing levels**; `Done`
//! terminates the stream. Empty fibers contribute a bare stop token, so
//! adjacent stops are legal and denote empty fibers (this reproduction's
//! analogue of SAM's empty-fiber handling).

use std::sync::Arc;

/// A dense tile carried by blocked streams (Section 7, "Sparsity Blocking").
///
/// Tiles are immutable and reference-counted so fan-out and repetition are
/// cheap, matching hardware streams that move block handles rather than
/// copies.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    rows: u16,
    cols: u16,
    data: Arc<Vec<f32>>,
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
        Block { rows: rows as u16, cols: cols as u16, data: Arc::new(data) }
    }

    /// A zero block of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Block::new(rows, cols, vec![0.0; rows * cols])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols as usize
    }

    /// Row-major elements.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols as usize + c]
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false; blocks are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Elementwise combination of two same-shaped blocks.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Block, f: impl Fn(f32, f32) -> f32) -> Block {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "block shape mismatch");
        Block::new(
            self.rows(),
            self.cols(),
            self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        )
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Block {
        Block::new(self.rows(), self.cols(), self.data.iter().map(|&v| f(v)).collect())
    }

    /// Dense tile matmul: `(r x k) * (k x c) -> (r x c)`.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Block) -> Block {
        assert_eq!(self.cols, other.rows, "block matmul inner mismatch");
        let (r, k, c) = (self.rows(), self.cols(), other.cols());
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for kk in 0..k {
                let a = self.get(i, kk);
                if a == 0.0 {
                    continue;
                }
                for j in 0..c {
                    out[i * c + j] += a * other.get(kk, j);
                }
            }
        }
        Block::new(r, c, out)
    }
}

/// The payload of a data token.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A coordinate or reference (position) index.
    Idx(u32),
    /// A scalar value.
    F(f32),
    /// A dense tile (block-sparse streams).
    Blk(Block),
    /// The "no element here" payload emitted by [`Union`] for coordinates
    /// present on only one side; arrays turn it into a zero value.
    ///
    /// [`Union`]: crate::NodeKind::Union
    Empty,
}

/// One token of a SAMML stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A data element.
    Elem(Payload),
    /// End of the current fiber plus `k` enclosing fibers.
    Stop(u8),
    /// End of stream.
    Done,
}

impl Token {
    /// Convenience constructor for index elements.
    pub fn idx(i: u32) -> Token {
        Token::Elem(Payload::Idx(i))
    }

    /// Convenience constructor for value elements.
    pub fn val(v: f32) -> Token {
        Token::Elem(Payload::F(v))
    }

    /// `true` for [`Token::Elem`].
    pub fn is_elem(&self) -> bool {
        matches!(self, Token::Elem(_))
    }
}

/// The kind of data a stream carries, used for graph validation and
/// visualization (solid/dashed/double arrows in the paper's figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Coordinate stream.
    Crd,
    /// Reference (position) stream.
    Ref,
    /// Value stream.
    Val,
}

impl std::fmt::Display for StreamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamKind::Crd => write!(f, "crd"),
            StreamKind::Ref => write!(f, "ref"),
            StreamKind::Val => write!(f, "val"),
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
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }
}
