//! Versioned binary encoding for [`Mask3`] — the word-packed section format
//! used inside on-disk session artifacts.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "MSK3"
//!      4     2  format version (currently 1)
//!      6     2  reserved (zero)
//!      8     8  nx
//!     16     8  ny
//!     24     8  nz
//!     32     8  word count
//!     40  8*nw  packed words (bit i%64 of word i/64 is voxel i)
//! ```
//!
//! The encoding is self-delimiting: [`decode_mask`] reports how many bytes it
//! consumed so several masks can be packed back to back in one section. Like
//! [`crate::io`], every malformed input maps to a typed [`MaskIoError`] —
//! corrupted headers must never panic or allocate unbounded memory.

use crate::dims::Dims3;
use crate::framing::{Reader, Shortfall};
use crate::mask::{Mask3, MaskWordsError};

/// Magic bytes opening every encoded mask.
pub const MASK_MAGIC: [u8; 4] = *b"MSK3";
/// Current format version written by [`encode_mask`].
pub const MASK_FORMAT_VERSION: u16 = 1;
/// Fixed header size in bytes (before the packed words).
pub const MASK_HEADER_LEN: usize = 40;

/// Errors raised while decoding a binary mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaskIoError {
    /// Input ended before the header or payload was complete.
    Truncated { needed: usize, got: usize },
    /// The first four bytes were not `MSK3`.
    BadMagic,
    /// The version field names a format this build cannot read.
    UnsupportedVersion { found: u16, supported: u16 },
    /// An axis was zero or the voxel count overflowed `usize`.
    BadDims { nx: u64, ny: u64, nz: u64 },
    /// The stored word count disagrees with the dimensions.
    WordCountMismatch { expected: usize, got: u64 },
    /// Bits were set past the end of the voxel range in the last word.
    TailBitsSet,
}

impl std::fmt::Display for MaskIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaskIoError::Truncated { needed, got } => {
                write!(f, "truncated mask: needed {needed} bytes, got {got}")
            }
            MaskIoError::BadMagic => write!(f, "bad mask magic (expected \"MSK3\")"),
            MaskIoError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported mask version {found} (supported: {supported})"
                )
            }
            MaskIoError::BadDims { nx, ny, nz } => {
                write!(f, "invalid mask dimensions {nx}x{ny}x{nz}")
            }
            MaskIoError::WordCountMismatch { expected, got } => {
                write!(
                    f,
                    "mask word count mismatch: expected {expected}, got {got}"
                )
            }
            MaskIoError::TailBitsSet => {
                write!(f, "mask has bits set past the end of the voxel range")
            }
        }
    }
}

impl std::error::Error for MaskIoError {}

impl From<Shortfall> for MaskIoError {
    fn from(s: Shortfall) -> Self {
        MaskIoError::Truncated {
            needed: s.at.saturating_add(s.need),
            got: s.len,
        }
    }
}

/// Append the binary encoding of `mask` to `out`.
pub fn encode_mask_into(out: &mut Vec<u8>, mask: &Mask3) {
    let d = mask.dims();
    out.extend_from_slice(&MASK_MAGIC);
    out.extend_from_slice(&MASK_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(d.nx as u64).to_le_bytes());
    out.extend_from_slice(&(d.ny as u64).to_le_bytes());
    out.extend_from_slice(&(d.nz as u64).to_le_bytes());
    out.extend_from_slice(&(mask.words().len() as u64).to_le_bytes());
    for &w in mask.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Encode `mask` as a standalone byte vector.
pub fn encode_mask(mask: &Mask3) -> Vec<u8> {
    let mut out = Vec::with_capacity(MASK_HEADER_LEN + mask.words().len() * 8);
    encode_mask_into(&mut out, mask);
    out
}

/// Decode one mask from the front of `buf`, returning it together with the
/// number of bytes consumed (so callers can decode packed sequences).
///
/// All validation is done with checked arithmetic *before* any allocation, so
/// a corrupted header cannot trigger an overflow panic or a huge allocation:
/// the payload length implied by the header must actually be present in `buf`.
pub fn decode_mask(buf: &[u8]) -> Result<(Mask3, usize), MaskIoError> {
    let mut r = Reader::new(buf);
    let mut h = Reader::new(r.take(MASK_HEADER_LEN)?);
    if h.array()? != MASK_MAGIC {
        return Err(MaskIoError::BadMagic);
    }
    let version = h.u16()?;
    if version != MASK_FORMAT_VERSION {
        return Err(MaskIoError::UnsupportedVersion {
            found: version,
            supported: MASK_FORMAT_VERSION,
        });
    }
    let _reserved = h.u16()?;
    let (nx, ny, nz) = (h.u64()?, h.u64()?, h.u64()?);
    let nwords = h.u64()?;
    let bad_dims = MaskIoError::BadDims { nx, ny, nz };
    if nx == 0 || ny == 0 || nz == 0 {
        return Err(bad_dims);
    }
    let len = usize::try_from(nx)
        .ok()
        .and_then(|a| usize::try_from(ny).ok().and_then(|b| a.checked_mul(b)))
        .and_then(|ab| usize::try_from(nz).ok().and_then(|c| ab.checked_mul(c)))
        .ok_or(bad_dims.clone())?;
    let expected_words = len.div_ceil(64);
    if nwords != expected_words as u64 {
        return Err(MaskIoError::WordCountMismatch {
            expected: expected_words,
            got: nwords,
        });
    }
    // expected_words <= len/64 + 1 <= usize::MAX/64 + 1, so * 8 cannot
    // overflow after len fit in usize; still use checked math for clarity.
    let payload = expected_words.checked_mul(8).ok_or(bad_dims)?;
    let words: Vec<u64> = r
        .take(payload)?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    // Axes are non-zero and the product fit in usize, so the `Dims3` literal
    // is as valid as one from `Dims3::new` without risking its assert.
    let dims = Dims3 {
        nx: nx as usize,
        ny: ny as usize,
        nz: nz as usize,
    };
    let mask = Mask3::from_words(dims, words).map_err(|e| match e {
        MaskWordsError::WordCountMismatch { expected, got } => MaskIoError::WordCountMismatch {
            expected,
            got: got as u64,
        },
        MaskWordsError::TailBitsSet => MaskIoError::TailBitsSet,
    })?;
    Ok((mask, r.pos()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_mask(d: Dims3) -> Mask3 {
        Mask3::from_fn(d, |x, y, z| (x + 2 * y + 3 * z) % 3 == 0)
    }

    #[test]
    fn roundtrip_single() {
        for d in [Dims3::new(1, 1, 1), Dims3::new(5, 3, 2), Dims3::cube(8)] {
            let m = ramp_mask(d);
            let bytes = encode_mask(&m);
            let (back, used) = decode_mask(&bytes).unwrap();
            assert_eq!(back, m);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn roundtrip_packed_sequence() {
        let masks = vec![
            ramp_mask(Dims3::cube(4)),
            Mask3::full(Dims3::new(3, 1, 7)),
            Mask3::empty(Dims3::new(2, 9, 1)),
        ];
        let mut buf = Vec::new();
        for m in &masks {
            encode_mask_into(&mut buf, m);
        }
        let mut at = 0;
        for m in &masks {
            let (back, used) = decode_mask(&buf[at..]).unwrap();
            assert_eq!(&back, m);
            at += used;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn truncation_at_every_length_is_typed() {
        let bytes = encode_mask(&ramp_mask(Dims3::cube(5)));
        for cut in 0..bytes.len() {
            match decode_mask(&bytes[..cut]) {
                Err(MaskIoError::Truncated { needed, got }) => {
                    assert_eq!(got, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_mask(&ramp_mask(Dims3::cube(3)));
        bytes[0] ^= 0xff;
        assert_eq!(decode_mask(&bytes).unwrap_err(), MaskIoError::BadMagic);
    }

    #[test]
    fn version_bump_rejected() {
        let mut bytes = encode_mask(&ramp_mask(Dims3::cube(3)));
        bytes[4] = 2;
        assert_eq!(
            decode_mask(&bytes).unwrap_err(),
            MaskIoError::UnsupportedVersion {
                found: 2,
                supported: MASK_FORMAT_VERSION
            }
        );
    }

    #[test]
    fn zero_axis_rejected() {
        let mut bytes = encode_mask(&ramp_mask(Dims3::cube(3)));
        bytes[8..16].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode_mask(&bytes),
            Err(MaskIoError::BadDims { nx: 0, .. })
        ));
    }

    #[test]
    fn huge_dims_do_not_allocate() {
        // An adversarial header claiming u64::MAX voxels must fail fast with
        // a typed error (the payload check fires before any allocation).
        let mut bytes = encode_mask(&ramp_mask(Dims3::cube(3)));
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_mask(&bytes).is_err());
    }

    #[test]
    fn word_count_mismatch_rejected() {
        let mut bytes = encode_mask(&ramp_mask(Dims3::cube(3)));
        bytes[32..40].copy_from_slice(&99u64.to_le_bytes());
        assert!(matches!(
            decode_mask(&bytes),
            Err(MaskIoError::WordCountMismatch { got: 99, .. })
        ));
    }

    #[test]
    fn tail_bits_rejected() {
        // 3^3 = 27 bits: flipping a high bit in the only word breaks the
        // tail-zero invariant and must be caught, not silently accepted.
        let mut bytes = encode_mask(&Mask3::empty(Dims3::cube(3)));
        let last = bytes.len() - 1;
        bytes[last] |= 0x80;
        assert_eq!(decode_mask(&bytes).unwrap_err(), MaskIoError::TailBitsSet);
    }
}
