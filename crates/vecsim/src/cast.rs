//! The one place a byte buffer becomes `&[u32]` / `&[f32]` — and the only
//! `unsafe` in the workspace.
//!
//! Serialized clusters are little-endian 4-byte words from end to end, so
//! on a little-endian host the bytes a fetch landed *are* the `u32` ids
//! and `f32` components a search reads, provided they sit on a 4-byte
//! boundary. [`le_u32s`] and [`le_f32s`] reinterpret a slice in place and
//! return `None` unless the length is whole words, the first byte is
//! 4-aligned and the host is little-endian: every condition the cast
//! relies on is checked on every call, never assumed from the caller.
//! [`AlignedBytes`] is the owner that makes the alignment check pass: it
//! adopts a buffer whose payload already starts on a boundary (what an
//! allocator hands out, in practice) without touching it, and otherwise
//! copies the payload once to one that does.

#![allow(unsafe_code)]

/// Whether `bytes` may be read in place as little-endian 4-byte words.
fn castable(bytes: &[u8]) -> bool {
    cfg!(target_endian = "little")
        && bytes.len().is_multiple_of(4)
        && (bytes.as_ptr() as usize).is_multiple_of(4)
}

/// `bytes` as the little-endian `u32` words they hold, in place; `None`
/// unless the length is a multiple of 4, the slice starts on a 4-byte
/// boundary and the host is little-endian.
pub fn le_u32s(bytes: &[u8]) -> Option<&[u32]> {
    if !castable(bytes) {
        return None;
    }
    // SAFETY: `castable` just checked that the pointer is aligned for
    // `u32` (4) and that `len / 4` words cover exactly the `len` bytes of
    // `bytes`, which are initialised and stay borrowed, immutably, for
    // the returned lifetime. Every bit pattern is a valid `u32`, and on
    // this little-endian host its value is the `from_le_bytes` one.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) })
}

/// `bytes` as the little-endian `f32` values they hold, in place; `None`
/// under the same conditions as [`le_u32s`].
pub fn le_f32s(bytes: &[u8]) -> Option<&[f32]> {
    if !castable(bytes) {
        return None;
    }
    // SAFETY: as in `le_u32s` — `f32` has `u32`'s size and alignment and
    // no invalid bit patterns (NaN payloads included).
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), bytes.len() / 4) })
}

/// An owned byte buffer whose payload starts on a 4-byte boundary, so the
/// casts above succeed on any whole-word section that sits a whole number
/// of words into it.
#[derive(Debug, Clone)]
pub struct AlignedBytes {
    buf: Vec<u8>,
    start: usize,
}

impl AlignedBytes {
    /// Takes `buf[start..]` as the payload. Where that already begins on
    /// a 4-byte boundary nothing moves; otherwise the payload is copied,
    /// once, into a buffer padded so that it does.
    ///
    /// # Panics
    ///
    /// Panics if `start > buf.len()`.
    pub fn adopt(buf: Vec<u8>, start: usize) -> Self {
        if (buf[start..].as_ptr() as usize).is_multiple_of(4) {
            return AlignedBytes { buf, start };
        }
        AlignedBytes::copy_of(&buf[start..])
    }

    /// An aligned copy of `bytes`.
    pub fn copy_of(bytes: &[u8]) -> Self {
        // Three spare bytes always reach the next boundary, and a vector
        // within its capacity never moves.
        let mut buf = Vec::with_capacity(bytes.len() + 3);
        let start = (buf.as_ptr() as usize).wrapping_neg() % 4;
        buf.resize(start, 0);
        buf.extend_from_slice(bytes);
        AlignedBytes { buf, start }
    }

    /// The payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Twelve payload bytes starting at each offset of a buffer, so the
    /// payload meets every alignment class.
    fn at_every_offset(mut check: impl FnMut(&[u8], bool)) {
        let backing: Vec<u8> = (0u8..32).collect();
        let base = backing.as_ptr() as usize;
        for off in 0..8 {
            check(&backing[off..off + 12], (base + off).is_multiple_of(4));
        }
    }

    #[test]
    fn casts_read_little_endian_words_in_place() {
        let mut seen_aligned = 0;
        at_every_offset(|bytes, aligned| {
            let words = le_u32s(bytes);
            assert_eq!(words.is_some(), aligned && cfg!(target_endian = "little"));
            assert_eq!(le_f32s(bytes).is_some(), words.is_some());
            if let Some(words) = words {
                seen_aligned += 1;
                let want: Vec<u32> = crate::io::le_words(bytes, u32::from_le_bytes).collect();
                assert_eq!(words, want);
                assert_eq!(
                    words.as_ptr() as usize,
                    bytes.as_ptr() as usize,
                    "not a copy"
                );
                let floats = le_f32s(bytes).unwrap();
                assert!(floats.iter().zip(&want).all(|(f, w)| f.to_bits() == *w));
            }
        });
        assert_eq!(
            seen_aligned,
            if cfg!(target_endian = "little") { 2 } else { 0 }
        );
    }

    #[test]
    fn a_ragged_length_is_refused_whatever_the_alignment() {
        at_every_offset(|bytes, _| {
            for cut in [1, 2, 3] {
                assert!(le_u32s(&bytes[..bytes.len() - cut]).is_none());
                assert!(le_f32s(&bytes[..bytes.len() - cut]).is_none());
            }
        });
    }

    #[test]
    fn adopt_keeps_an_aligned_payload_and_moves_any_other_once() {
        let payload: Vec<u8> = (100u8..120).collect();
        let (mut kept, mut moved) = (0, 0);
        for start in 0..8 {
            let mut buf = vec![0u8; start];
            buf.extend_from_slice(&payload);
            let before = buf[start..].as_ptr() as usize;
            let owned = AlignedBytes::adopt(buf, start);
            assert_eq!(owned.as_bytes(), &payload[..]);
            let after = owned.as_bytes().as_ptr() as usize;
            assert!(after.is_multiple_of(4));
            if before.is_multiple_of(4) {
                assert_eq!(after, before, "an aligned payload must not move");
                kept += 1;
            } else {
                moved += 1;
            }
            assert_eq!(
                le_u32s(owned.as_bytes()).is_some(),
                cfg!(target_endian = "little")
            );
        }
        assert_eq!((kept, moved), (2, 6));
        assert_eq!(AlignedBytes::copy_of(&[]).as_bytes(), &[] as &[u8]);
    }
}
