//! Flat, id-addressed vector storage.

use std::fmt;

/// Identifier of a vector / graph vertex.
///
/// The paper indexes vertices with 4-byte IDs (§IV-B's layout discussion),
/// so `u32` is used throughout the workspace.
pub type VectorId = u32;

/// A dense collection of equal-dimension `f32` feature vectors.
///
/// Storage is a single flat buffer (`len * dim` floats), which mirrors how
/// the feature vectors sit in NAND pages and keeps the simulator's byte
/// accounting trivial.
///
/// # Example
/// ```
/// use ndsearch_vector::Dataset;
/// let ds = Dataset::from_rows(2, vec![vec![0.0, 1.0], vec![2.0, 3.0]]).unwrap();
/// assert_eq!(ds.vector(1), &[2.0, 3.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Dataset {
    dim: usize,
    data: Vec<f32>,
    /// Bytes a single stored vector occupies on flash. Defaults to
    /// `dim * 4` but presets override it to match the source dataset's
    /// element width (e.g. sift stores `u8` components).
    stored_vector_bytes: usize,
}

/// Error produced when constructing a [`Dataset`] from malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    expected_dim: usize,
    row: usize,
    got_dim: usize,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "row {} has dimension {}, expected {}",
            self.row, self.got_dim, self.expected_dim
        )
    }
}

impl std::error::Error for ShapeError {}

impl Dataset {
    /// Creates an empty dataset of the given dimensionality.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
            stored_vector_bytes: dim * 4,
        }
    }

    /// Builds a dataset from row vectors.
    ///
    /// # Errors
    /// Returns [`ShapeError`] if any row's length differs from `dim`.
    pub fn from_rows(dim: usize, rows: Vec<Vec<f32>>) -> Result<Self, ShapeError> {
        let mut ds = Self::new(dim);
        for (i, row) in rows.into_iter().enumerate() {
            if row.len() != dim {
                return Err(ShapeError {
                    expected_dim: dim,
                    row: i,
                    got_dim: row.len(),
                });
            }
            ds.data.extend_from_slice(&row);
        }
        Ok(ds)
    }

    /// Builds a dataset from a flat buffer of `len * dim` floats.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        Self {
            dim,
            data,
            stored_vector_bytes: dim * 4,
        }
    }

    /// Appends one vector, returning its newly assigned id.
    ///
    /// This is the ingestion entry point of the online-update path: the
    /// serving layer pushes the vector first, then links the returned id
    /// into the live graph overlay.
    ///
    /// # Errors
    /// Returns [`ShapeError`] if `v.len() != self.dim()`.
    pub fn try_push(&mut self, v: &[f32]) -> Result<VectorId, ShapeError> {
        self.check_row(v)?;
        self.data.extend_from_slice(v);
        Ok((self.len() - 1) as VectorId)
    }

    /// The check [`try_push`](Self::try_push) makes, without the push.
    ///
    /// # Errors
    /// Returns [`ShapeError`] if `v.len() != self.dim()`.
    pub fn check_row(&self, v: &[f32]) -> Result<(), ShapeError> {
        if v.len() != self.dim {
            return Err(ShapeError {
                expected_dim: self.dim,
                row: self.len(),
                got_dim: v.len(),
            });
        }
        Ok(())
    }

    /// Number of vectors stored.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the dataset holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow of vector `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn vector(&self, id: VectorId) -> &[f32] {
        let i = id as usize;
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Fallible borrow of vector `id`.
    pub fn get(&self, id: VectorId) -> Option<&[f32]> {
        let i = id as usize;
        if i < self.len() {
            Some(self.vector(id))
        } else {
            None
        }
    }

    /// Iterates `(id, vector)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VectorId, &[f32])> {
        self.data
            .chunks_exact(self.dim)
            .enumerate()
            .map(|(i, v)| (i as VectorId, v))
    }

    /// The flat underlying buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Overrides the on-flash byte footprint of one vector (used by presets
    /// whose source datasets store narrower element types, e.g. `u8` sift
    /// components or `i8` spacev components).
    ///
    /// # Panics
    /// Panics if `bytes == 0`.
    pub fn set_stored_vector_bytes(&mut self, bytes: usize) {
        assert!(bytes > 0, "stored vector bytes must be positive");
        self.stored_vector_bytes = bytes;
    }

    /// Bytes one vector occupies in NAND (element width × dim).
    pub fn stored_vector_bytes(&self) -> usize {
        self.stored_vector_bytes
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataset")
            .field("len", &self.len())
            .field("dim", &self.dim)
            .field("stored_vector_bytes", &self.stored_vector_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let ds = Dataset::from_rows(3, vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.vector(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.vector(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Dataset::from_rows(2, vec![vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert_eq!(err.to_string(), "row 1 has dimension 1, expected 2");
    }

    #[test]
    fn get_is_fallible() {
        let ds = Dataset::from_rows(1, vec![vec![9.0]]).unwrap();
        assert_eq!(ds.get(0), Some(&[9.0][..]));
        assert_eq!(ds.get(1), None);
    }

    #[test]
    fn iter_yields_all_vectors() {
        let ds = Dataset::from_rows(2, vec![vec![0.0, 1.0], vec![2.0, 3.0]]).unwrap();
        let collected: Vec<_> = ds.iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[1].0, 1);
        assert_eq!(collected[1].1, &[2.0, 3.0]);
    }

    #[test]
    fn try_push_appends_and_reports_shape_errors() {
        let mut ds = Dataset::new(2);
        assert_eq!(ds.try_push(&[1.0, 2.0]), Ok(0));
        assert_eq!(ds.try_push(&[3.0, 4.0]), Ok(1));
        assert_eq!(ds.vector(1), &[3.0, 4.0]);
        let err = ds.try_push(&[5.0]).unwrap_err();
        assert_eq!(err.to_string(), "row 2 has dimension 1, expected 2");
        // A rejected push leaves the dataset untouched.
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn stored_bytes_default_and_override() {
        let mut ds = Dataset::from_rows(4, vec![vec![0.0; 4]]).unwrap();
        assert_eq!(ds.stored_vector_bytes(), 16);
        ds.set_stored_vector_bytes(4); // e.g. u8 elements
        assert_eq!(ds.stored_vector_bytes(), 4);
    }

    #[test]
    fn from_flat_checks_multiple() {
        let ds = Dataset::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_partial_rows() {
        Dataset::from_flat(2, vec![1.0, 2.0, 3.0]);
    }
}
