//! Flat vector container.
//!
//! [`Dataset`] stores `n` vectors of a fixed dimensionality `d` in one
//! contiguous `Vec<f32>`. This is the layout everything else in the
//! workspace assumes: distance kernels get tight slices, serialization is a
//! `memcpy`, and the RDMA layout code can compute byte offsets directly.

use crate::{Error, Result};

/// A set of fixed-dimension `f32` vectors stored contiguously.
///
/// # Example
///
/// ```rust
/// use vecsim::Dataset;
///
/// # fn main() -> Result<(), vecsim::Error> {
/// let mut ds = Dataset::new(3);
/// ds.push(&[1.0, 2.0, 3.0])?;
/// ds.push(&[4.0, 5.0, 6.0])?;
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.get(1), &[4.0, 5.0, 6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    dim: usize,
    data: Vec<f32>,
}

impl Dataset {
    /// Creates an empty dataset for vectors of dimensionality `dim`.
    ///
    /// A `dim` of zero is permitted only for the `Default` empty value;
    /// pushing into a zero-dimension dataset returns an error.
    pub fn new(dim: usize) -> Self {
        Dataset {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty dataset with capacity for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        Dataset {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Builds a dataset from a flat buffer of `n * dim` floats.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `dim` is zero or the buffer
    /// length is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Result<Self> {
        if dim == 0 {
            return Err(Error::InvalidParameter("dim must be non-zero".into()));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(Error::InvalidParameter(format!(
                "flat buffer length {} is not a multiple of dim {}",
                data.len(),
                dim
            )));
        }
        Ok(Dataset { dim, data })
    }

    /// Builds a dataset from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if any row disagrees with the
    /// first row's length, or [`Error::InvalidParameter`] on empty input
    /// rows of zero length.
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Result<Self> {
        let dim = rows.first().map(|r| r.as_ref().len()).unwrap_or(0);
        if !rows.is_empty() && dim == 0 {
            return Err(Error::InvalidParameter("rows must be non-empty".into()));
        }
        let mut ds = Dataset::with_capacity(dim.max(1), rows.len());
        ds.dim = if rows.is_empty() { 0 } else { dim };
        for r in rows {
            ds.push(r.as_ref())?;
        }
        Ok(ds)
    }

    /// The dimensionality of every vector in this dataset.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors stored.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Whether the dataset holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the `i`-th vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &[f32] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Returns the `i`-th vector, or `None` when out of bounds.
    #[inline]
    pub fn try_get(&self, i: usize) -> Option<&[f32]> {
        if i < self.len() {
            Some(self.get(i))
        } else {
            None
        }
    }

    /// Appends a vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `v.len() != self.dim()`, and
    /// [`Error::InvalidParameter`] when the dataset was created with a zero
    /// dimension.
    pub fn push(&mut self, v: &[f32]) -> Result<()> {
        if self.dim == 0 {
            return Err(Error::InvalidParameter(
                "cannot push into a zero-dimension dataset".into(),
            ));
        }
        if v.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                got: v.len(),
            });
        }
        self.data.extend_from_slice(v);
        Ok(())
    }

    /// Iterates over vectors as slices.
    pub fn iter(&self) -> Iter<'_> {
        Iter { ds: self, next: 0 }
    }

    /// The underlying flat buffer, `len() * dim()` floats.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Returns a new dataset containing the rows selected by `ids`, in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of bounds.
    pub fn select(&self, ids: &[u32]) -> Dataset {
        let mut out = Dataset::with_capacity(self.dim, ids.len());
        for &id in ids {
            out.data.extend_from_slice(self.get(id as usize));
        }
        out
    }

    /// Total payload size in bytes (`len * dim * 4`).
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Iterator over dataset rows produced by [`Dataset::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    ds: &'a Dataset,
    next: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a [f32];

    fn next(&mut self) -> Option<Self::Item> {
        let out = self.ds.try_get(self.next)?;
        self.next += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.ds.len().saturating_sub(self.next);
        (rem, Some(rem))
    }
}

impl<'a> ExactSizeIterator for Iter<'a> {}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a [f32];
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0, 2.0]).unwrap();
        ds.push(&[3.0, 4.0]).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.get(0), &[1.0, 2.0]);
        assert_eq!(ds.get(1), &[3.0, 4.0]);
    }

    #[test]
    fn push_wrong_dim_is_rejected() {
        let mut ds = Dataset::new(3);
        let err = ds.push(&[1.0]).unwrap_err();
        assert!(matches!(
            err,
            Error::DimensionMismatch {
                expected: 3,
                got: 1
            }
        ));
    }

    #[test]
    fn push_into_zero_dim_is_rejected() {
        let mut ds = Dataset::default();
        assert!(ds.push(&[]).is_err());
    }

    #[test]
    fn from_flat_validates_multiple() {
        assert!(Dataset::from_flat(3, vec![0.0; 7]).is_err());
        assert!(Dataset::from_flat(0, vec![]).is_err());
        let ds = Dataset::from_flat(3, vec![0.0; 9]).unwrap();
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = [[1.0f32, 2.0], [3.0, 4.0], [5.0, 6.0]];
        let ds = Dataset::from_rows(&rows).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.get(2), &[5.0, 6.0]);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let rows: [&[f32]; 2] = [&[1.0, 2.0], &[3.0]];
        assert!(Dataset::from_rows(&rows).is_err());
    }

    #[test]
    fn from_rows_empty_gives_empty_dataset() {
        let rows: [&[f32]; 0] = [];
        let ds = Dataset::from_rows(&rows).unwrap();
        assert!(ds.is_empty());
    }

    #[test]
    fn iter_visits_rows_in_order() {
        let ds = Dataset::from_flat(1, vec![10.0, 20.0, 30.0]).unwrap();
        let rows: Vec<f32> = ds.iter().map(|r| r[0]).collect();
        assert_eq!(rows, vec![10.0, 20.0, 30.0]);
        assert_eq!(ds.iter().len(), 3);
    }

    #[test]
    fn select_extracts_rows_in_requested_order() {
        let ds = Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]).unwrap();
        let sel = ds.select(&[2, 0]);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.get(0), &[2.0, 2.0]);
        assert_eq!(sel.get(1), &[0.0, 0.0]);
    }

    #[test]
    fn try_get_out_of_bounds_is_none() {
        let ds = Dataset::from_flat(2, vec![0.0; 4]).unwrap();
        assert!(ds.try_get(2).is_none());
        assert!(ds.try_get(1).is_some());
    }

    #[test]
    fn byte_len_counts_payload() {
        let ds = Dataset::from_flat(4, vec![0.0; 8]).unwrap();
        assert_eq!(ds.byte_len(), 32);
    }
}
