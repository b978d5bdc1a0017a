//! Readers and writers for the TEXMEX vector file formats.
//!
//! SIFT1M and GIST1M ship in `fvecs` (float vectors). Each record is a
//! little-endian `i32` dimensionality followed by that many components.
//! Supplying the real files makes the benchmark harness evaluate on them
//! instead of the synthetic stand-ins.
//!
//! All functions take generic readers/writers by value; pass `&mut r` to
//! keep using the reader afterwards.

use std::io::{Read, Write};

use crate::{Dataset, Error, Result};

/// Upper bound on a plausible vector dimensionality; guards against
/// misaligned or corrupt files allocating absurd buffers.
const MAX_DIM: usize = 1 << 20;

fn read_dim<R: Read>(r: &mut R) -> Result<Option<usize>> {
    let mut buf = [0u8; 4];
    match r.read_exact(&mut buf) {
        Ok(()) => {
            let d = i32::from_le_bytes(buf);
            if d <= 0 || d as usize > MAX_DIM {
                return Err(Error::InvalidFormat(format!(
                    "vector dimensionality {d} out of range"
                )));
            }
            Ok(Some(d as usize))
        }
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Decodes a section of little-endian 4-byte words in one pass, e.g.
/// `le_words(bytes, f32::from_le_bytes).collect::<Vec<f32>>()`. Bytes past
/// the last whole word are ignored: callers size the section first.
pub fn le_words<'a, T: 'a>(
    bytes: &'a [u8],
    from_le: impl Fn([u8; 4]) -> T + 'a,
) -> impl Iterator<Item = T> + 'a {
    bytes
        .chunks_exact(4)
        .map(move |c| from_le(c.try_into().expect("chunks_exact(4) yields 4 bytes")))
}

/// Reads an entire `fvecs` stream into a [`Dataset`].
///
/// # Errors
///
/// [`Error::InvalidFormat`] on non-positive or inconsistent per-record
/// dimensions or a truncated record; [`Error::Io`] on read failures.
///
/// # Example
///
/// ```rust
/// use vecsim::io::{read_fvecs, write_fvecs};
/// use vecsim::Dataset;
///
/// # fn main() -> Result<(), vecsim::Error> {
/// let ds = Dataset::from_rows(&[[1.0f32, 2.0], [3.0, 4.0]])?;
/// let mut buf = Vec::new();
/// write_fvecs(&mut buf, &ds)?;
/// let back = read_fvecs(&buf[..])?;
/// assert_eq!(back, ds);
/// # Ok(())
/// # }
/// ```
pub fn read_fvecs<R: Read>(mut r: R) -> Result<Dataset> {
    let mut ds: Option<Dataset> = None;
    while let Some(dim) = read_dim(&mut r)? {
        let mut bytes = vec![0u8; dim * 4];
        r.read_exact(&mut bytes)
            .map_err(|_| Error::InvalidFormat("truncated fvecs record".into()))?;
        let row: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        match &mut ds {
            None => ds = Some(Dataset::from_flat(dim, row)?),
            Some(d) => d.push(&row)?,
        }
    }
    Ok(ds.unwrap_or_default())
}

/// Writes a [`Dataset`] as an `fvecs` stream.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_fvecs<W: Write>(mut w: W, data: &Dataset) -> Result<()> {
    for row in data.iter() {
        w.write_all(&(row.len() as i32).to_le_bytes())?;
        for &x in row {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fvecs_round_trip() {
        let ds = Dataset::from_rows(&[[1.5f32, -2.0, 3.25], [0.0, 0.5, -0.5]]).unwrap();
        let mut buf = Vec::new();
        write_fvecs(&mut buf, &ds).unwrap();
        assert_eq!(buf.len(), 2 * (4 + 3 * 4));
        let back = read_fvecs(&buf[..]).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn empty_stream_gives_empty_dataset() {
        let ds = read_fvecs(&[][..]).unwrap();
        assert!(ds.is_empty());
    }

    #[test]
    fn truncated_record_is_invalid_format() {
        // dim = 3 but only one float of payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3i32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        let err = read_fvecs(&buf[..]).unwrap_err();
        assert!(matches!(err, Error::InvalidFormat(_)), "{err}");
    }

    #[test]
    fn negative_dim_is_invalid_format() {
        let buf = (-4i32).to_le_bytes();
        assert!(matches!(
            read_fvecs(&buf[..]).unwrap_err(),
            Error::InvalidFormat(_)
        ));
    }

    #[test]
    fn absurd_dim_is_rejected_without_allocation() {
        let buf = (i32::MAX).to_le_bytes();
        assert!(matches!(
            read_fvecs(&buf[..]).unwrap_err(),
            Error::InvalidFormat(_)
        ));
    }

    #[test]
    fn inconsistent_dims_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1i32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        buf.extend_from_slice(&2i32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        buf.extend_from_slice(&2.0f32.to_le_bytes());
        assert!(read_fvecs(&buf[..]).is_err());
    }

    #[test]
    fn readers_accept_mut_references() {
        // C-RW-VALUE: a &mut reader satisfies the bound.
        let ds = Dataset::from_rows(&[[1.0f32]]).unwrap();
        let mut buf = Vec::new();
        write_fvecs(&mut buf, &ds).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_fvecs(&mut cursor).unwrap();
        assert_eq!(back, ds);
    }
}
