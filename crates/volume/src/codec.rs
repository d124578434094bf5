//! Bricked frame compression: byte-shuffled delta + RLE over fixed-size
//! bricks of `f32` voxels.
//!
//! The paper's out-of-core regime is bandwidth-bound — "as the data set
//! grows ... it becomes impractical to load the entire data onto a single
//! computer" (§4.2.3) — so the byte budget of the paging cache is worth
//! exactly as many frames as a byte buys. This codec multiplies that:
//! frames are split into fixed-size bricks, each encoded independently so a
//! reader can validate (and in principle decode) bricks in parallel:
//!
//! 1. **byte shuffle** — the brick's `f32` little-endian words are
//!    transposed into four byte planes (all byte 0s, then all byte 1s, ...),
//!    a pure lane permutation that vectorizes trivially;
//! 2. **delta** — each plane is difference-coded byte-wise (wrapping), so
//!    smooth fields collapse the exponent/high-mantissa planes to near-zero
//!    runs;
//! 3. **RLE** — a PackBits-style run-length pass over the planes.
//!
//! A brick whose encoded form would be no smaller than its raw bytes is
//! *stored* verbatim, so the worst-case overhead is the container (header +
//! one table entry per brick), never a blow-up of the voxel payload. The
//! encoding is exactly invertible on bit patterns: NaN payloads, signed
//! zeros, infinities and denormals all round-trip bit-identically.
//!
//! Every byte of a compressed frame is integrity-checked: the header and
//! brick table are covered by a CRC-32, and each brick payload carries its
//! own CRC-32. Any single corrupted byte surfaces as a typed
//! [`CodecError`] — never a panic, never silently-wrong voxels.

use crate::framing::{crc32, crc32_update, Reader, Shortfall};

/// Sidecar `dtype` marking a compressed frame file (see [`crate::io`]).
pub const DTYPE: &str = "f32le+ifz1";

/// File magic of the compressed container.
pub const MAGIC: [u8; 4] = *b"IFZ1";

/// Container format version.
pub const VERSION: u32 = 1;

/// Voxels per brick (16 KiB of raw `f32`s). The tail brick may be shorter.
pub const BRICK_VOXELS: usize = 4096;

/// magic + version + voxel count + brick voxels + brick count + header CRC.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 4 + 4 + 4;

/// Brick table entry: mode byte + encoded length + payload CRC.
pub const ENTRY_LEN: usize = 1 + 4 + 4;

/// Brick stored as raw little-endian bytes (incompressible data).
const MODE_STORED: u8 = 0;

/// Brick encoded as byte-shuffled delta + RLE.
const MODE_PACKED: u8 = 1;

/// Typed decode failures. Each names the first check that failed; decoding
/// stops there, so corrupt data can never leak into a caller's voxels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the header, table, or a brick payload does.
    Truncated { need: usize, have: usize },
    /// The file does not start with [`MAGIC`].
    Magic,
    /// Unknown container version.
    Version(u32),
    /// The CRC over header fields and brick table does not match.
    HeaderCrc,
    /// The header's voxel count disagrees with the sidecar dims.
    VoxelCount { expected: u64, got: u64 },
    /// Header brick geometry is internally inconsistent.
    BrickLayout {
        voxels: u64,
        brick_voxels: u32,
        brick_count: u32,
    },
    /// A table entry carries an unknown mode byte.
    BrickMode { brick: usize, mode: u8 },
    /// A brick payload fails its CRC.
    BrickCrc { brick: usize },
    /// A brick decoded to the wrong number of bytes.
    BrickSize {
        brick: usize,
        expected: usize,
        got: usize,
    },
    /// A brick's RLE stream is malformed (token runs past its payload).
    BrickData { brick: usize },
    /// Bytes remain after the last brick payload.
    TrailingBytes { extra: usize },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(
                    f,
                    "compressed frame truncated: need {need} bytes, have {have}"
                )
            }
            CodecError::Magic => write!(f, "bad compressed-frame magic"),
            CodecError::Version(v) => write!(f, "unsupported compressed-frame version {v}"),
            CodecError::HeaderCrc => write!(f, "compressed-frame header CRC mismatch"),
            CodecError::VoxelCount { expected, got } => {
                write!(
                    f,
                    "voxel count mismatch: sidecar says {expected}, header says {got}"
                )
            }
            CodecError::BrickLayout {
                voxels,
                brick_voxels,
                brick_count,
            } => write!(
                f,
                "inconsistent brick layout: {voxels} voxels, {brick_voxels} per brick, \
                 {brick_count} bricks"
            ),
            CodecError::BrickMode { brick, mode } => {
                write!(f, "brick {brick}: unknown mode {mode}")
            }
            CodecError::BrickCrc { brick } => write!(f, "brick {brick}: payload CRC mismatch"),
            CodecError::BrickSize {
                brick,
                expected,
                got,
            } => write!(f, "brick {brick}: decoded {got} bytes, expected {expected}"),
            CodecError::BrickData { brick } => {
                write!(f, "brick {brick}: malformed RLE stream")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after last brick")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<Shortfall> for CodecError {
    fn from(s: Shortfall) -> Self {
        CodecError::Truncated {
            need: s.at.saturating_add(s.need),
            have: s.len,
        }
    }
}

/// Shuffle a brick's raw little-endian bytes into four byte planes, then
/// difference-code each plane byte-wise (wrapping).
fn shuffle_delta(raw: &[u8]) -> Vec<u8> {
    debug_assert_eq!(raw.len() % 4, 0);
    let n = raw.len() / 4;
    let mut out = vec![0u8; raw.len()];
    for p in 0..4 {
        let plane = &mut out[p * n..(p + 1) * n];
        let mut prev = 0u8;
        for (j, slot) in plane.iter_mut().enumerate() {
            let b = raw[4 * j + p];
            *slot = b.wrapping_sub(prev);
            prev = b;
        }
    }
    out
}

/// Exact inverse of [`shuffle_delta`].
fn undelta_unshuffle(planes: &[u8]) -> Vec<u8> {
    debug_assert_eq!(planes.len() % 4, 0);
    let n = planes.len() / 4;
    let mut out = vec![0u8; planes.len()];
    for p in 0..4 {
        let plane = &planes[p * n..(p + 1) * n];
        let mut prev = 0u8;
        for (j, &d) in plane.iter().enumerate() {
            prev = prev.wrapping_add(d);
            out[4 * j + p] = prev;
        }
    }
    out
}

/// Longest run length a single repeat token can carry.
const MAX_RUN: usize = 130;
/// Shortest run worth a repeat token.
const MIN_RUN: usize = 3;
/// Longest literal block a single literal token can carry.
const MAX_LITERAL: usize = 128;

/// PackBits-style RLE: control byte `c < 0x80` introduces `c + 1` literal
/// bytes; `c >= 0x80` repeats the next byte `c - 0x80 + 3` times.
fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let mut i = 0;
    let mut lit_start = 0;
    while i < data.len() {
        let mut run = 1;
        while i + run < data.len() && data[i + run] == data[i] && run < MAX_RUN {
            run += 1;
        }
        if run >= MIN_RUN {
            flush_literals(&mut out, &data[lit_start..i]);
            out.push(0x80 + (run - MIN_RUN) as u8);
            out.push(data[i]);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, &data[lit_start..]);
    out
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let take = lits.len().min(MAX_LITERAL);
        out.push((take - 1) as u8);
        out.extend_from_slice(&lits[..take]);
        lits = &lits[take..];
    }
}

/// Decode an RLE stream to exactly `expected` bytes; anything else is an
/// error (`None`), including trailing input or a token past the end.
fn rle_decode(data: &[u8], expected: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(expected);
    let mut i = 0;
    while i < data.len() {
        let c = data[i];
        i += 1;
        if c < 0x80 {
            let take = c as usize + 1;
            if i + take > data.len() || out.len() + take > expected {
                return None;
            }
            out.extend_from_slice(&data[i..i + take]);
            i += take;
        } else {
            let run = (c - 0x80) as usize + MIN_RUN;
            if i >= data.len() || out.len() + run > expected {
                return None;
            }
            out.extend(std::iter::repeat(data[i]).take(run));
            i += 1;
        }
    }
    (out.len() == expected).then_some(out)
}

/// Encode `values` into the compressed container. Infallible: bricks that
/// do not compress are stored verbatim, so the output is never larger than
/// the raw frame plus the (small) container overhead.
///
/// Emits the `volume.codec.ratio_pct` runtime counter: encoded size as a
/// percentage of raw size for this frame (100 = break-even).
pub fn encode_frame(values: &[f32]) -> Vec<u8> {
    let brick_count = values.len().div_ceil(BRICK_VOXELS);
    let mut table = Vec::with_capacity(brick_count * ENTRY_LEN);
    let mut payloads = Vec::new();
    for brick in values.chunks(BRICK_VOXELS) {
        let mut raw = Vec::with_capacity(brick.len() * 4);
        for &v in brick {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        let packed = rle_encode(&shuffle_delta(&raw));
        let (mode, payload) = if packed.len() < raw.len() {
            (MODE_PACKED, packed)
        } else {
            (MODE_STORED, raw)
        };
        table.push(mode);
        table.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        table.extend_from_slice(&crc32(&payload).to_le_bytes());
        payloads.extend_from_slice(&payload);
    }

    let mut out = Vec::with_capacity(HEADER_LEN + table.len() + payloads.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    out.extend_from_slice(&(BRICK_VOXELS as u32).to_le_bytes());
    out.extend_from_slice(&(brick_count as u32).to_le_bytes());
    let crc = crc32_update(crc32(&out), &table);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&table);
    out.extend_from_slice(&payloads);

    let raw_total = (values.len() * 4).max(1) as u64;
    ifet_obs::counter_runtime(
        "volume.codec.ratio_pct",
        (out.len() as u64 * 100).div_ceil(raw_total),
    );
    ifet_obs::counter_runtime("volume.codec.bytes_encoded", out.len() as u64);
    out
}

/// Decode a container produced by [`encode_frame`]. `expected_voxels` comes
/// from the sidecar dims and is cross-checked against the header, so a
/// frame can never decode to the wrong shape.
pub fn decode_frame(bytes: &[u8], expected_voxels: usize) -> Result<Vec<f32>, CodecError> {
    let mut r = Reader::new(bytes);
    let header = r.take(HEADER_LEN)?;
    let mut h = Reader::new(header);
    if h.array()? != MAGIC {
        return Err(CodecError::Magic);
    }
    let version = h.u32()?;
    if version != VERSION {
        return Err(CodecError::Version(version));
    }
    let voxels = h.u64()?;
    let brick_voxels = h.u32()?;
    let brick_count = h.u32()? as usize;
    let stored_crc = h.u32()?;

    // Bound the table before trusting any of it. The header CRC covers
    // every header field before it, then the table.
    let table = r.take(brick_count.saturating_mul(ENTRY_LEN))?;
    if crc32_update(crc32(&header[..HEADER_LEN - 4]), table) != stored_crc {
        return Err(CodecError::HeaderCrc);
    }
    if voxels != expected_voxels as u64 {
        return Err(CodecError::VoxelCount {
            expected: expected_voxels as u64,
            got: voxels,
        });
    }
    if brick_voxels == 0 || (voxels.div_ceil(brick_voxels as u64)) != brick_count as u64 {
        return Err(CodecError::BrickLayout {
            voxels,
            brick_voxels,
            brick_count: brick_count as u32,
        });
    }

    let mut out = Vec::with_capacity(expected_voxels);
    let mut entries = Reader::new(table);
    for b in 0..brick_count {
        let mode = entries.u8()?;
        let enc_len = entries.u32()? as usize;
        let payload_crc = entries.u32()?;
        let payload = r.take(enc_len)?;
        if crc32(payload) != payload_crc {
            return Err(CodecError::BrickCrc { brick: b });
        }
        let n = (voxels as usize - b * brick_voxels as usize).min(brick_voxels as usize);
        let raw_len = n * 4;
        let raw = match mode {
            MODE_STORED => {
                if payload.len() != raw_len {
                    return Err(CodecError::BrickSize {
                        brick: b,
                        expected: raw_len,
                        got: payload.len(),
                    });
                }
                payload.to_vec()
            }
            MODE_PACKED => {
                let planes =
                    rle_decode(payload, raw_len).ok_or(CodecError::BrickData { brick: b })?;
                undelta_unshuffle(&planes)
            }
            m => return Err(CodecError::BrickMode { brick: b, mode: m }),
        };
        out.extend(
            raw.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
    }
    r.finish()
        .map_err(|extra| CodecError::TrailingBytes { extra })?;
    ifet_obs::counter_runtime("volume.codec.bytes_decoded", bytes.len() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[f32]) {
        let enc = encode_frame(values);
        let dec = decode_frame(&enc, values.len()).unwrap();
        assert_eq!(dec.len(), values.len());
        for (a, b) in values.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exactness violated");
        }
    }

    #[test]
    fn empty_frame_roundtrips() {
        roundtrip(&[]);
    }

    #[test]
    fn constant_brick_compresses_hard() {
        let values = vec![0.0f32; BRICK_VOXELS * 2];
        let enc = encode_frame(&values);
        roundtrip(&values);
        assert!(
            enc.len() * 20 < values.len() * 4,
            "constant data must compress >20x, got {} of {}",
            enc.len(),
            values.len() * 4
        );
    }

    #[test]
    fn smooth_ramp_compresses() {
        let values: Vec<f32> = (0..10_000).map(|i| i as f32 * 0.25).collect();
        let enc = encode_frame(&values);
        roundtrip(&values);
        assert!(enc.len() < values.len() * 4, "smooth data must shrink");
    }

    #[test]
    fn ragged_tail_brick_roundtrips() {
        let values: Vec<f32> = (0..BRICK_VOXELS + 37).map(|i| (i as f32).sin()).collect();
        roundtrip(&values);
    }

    #[test]
    fn special_values_roundtrip_bitwise() {
        let values = [
            f32::NAN,
            f32::from_bits(0x7fc0_dead), // NaN with payload
            f32::from_bits(0xffc0_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 2.0, // denormal
            f32::from_bits(1),
            f32::MAX,
            f32::MIN,
        ];
        roundtrip(&values);
    }

    #[test]
    fn incompressible_data_stays_bounded() {
        // splitmix64-ish noise: RLE finds nothing, bricks fall back to
        // stored mode, overhead is container-only.
        let mut x = 0x1234_5678_9abc_def0u64;
        let values: Vec<f32> = (0..BRICK_VOXELS * 2 + 11)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                f32::from_bits((x >> 32) as u32)
            })
            .collect();
        let enc = encode_frame(&values);
        roundtrip(&values);
        let raw = values.len() * 4;
        assert!(
            enc.len() <= raw + HEADER_LEN + 3 * ENTRY_LEN + 64,
            "worst case must be container overhead only: {} vs raw {raw}",
            enc.len()
        );
    }

    #[test]
    fn ratio_counter_is_sane() {
        let values = vec![1.5f32; 5000];
        let (_, trace) = ifet_obs::capture("codec.test", || encode_frame(&values));
        let ratio = trace.root.counter("volume.codec.ratio_pct").unwrap();
        assert!((1..=200).contains(&ratio), "ratio {ratio}% out of range");
    }

    #[test]
    fn rle_tokens_are_exact() {
        for data in [
            vec![],
            vec![7u8],
            vec![1, 2, 3],
            vec![5; 1000],
            (0..=255u8).collect::<Vec<_>>(),
            vec![0, 0, 0, 1, 1, 2, 2, 2, 2],
        ] {
            let enc = rle_encode(&data);
            assert_eq!(rle_decode(&enc, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn rle_decode_rejects_bad_streams() {
        // Literal token promising more bytes than remain.
        assert!(rle_decode(&[10, 1, 2], 11).is_none());
        // Repeat token with no value byte.
        assert!(rle_decode(&[0x85], 8).is_none());
        // Output longer than expected.
        assert!(rle_decode(&[0x80 + 127, 9], 4).is_none());
        // Output shorter than expected.
        assert!(rle_decode(&[0x00, 5], 2).is_none());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let values: Vec<f32> = (0..600).map(|i| (i % 7) as f32).collect();
        let enc = encode_frame(&values);
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_frame(&bad, values.len()).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn wrong_expected_voxels_is_typed() {
        let enc = encode_frame(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            decode_frame(&enc, 4),
            Err(CodecError::VoxelCount {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let enc = encode_frame(&[1.0; 100]);
        for cut in [0, 10, HEADER_LEN, enc.len() - 1] {
            assert!(matches!(
                decode_frame(&enc[..cut], 100),
                Err(CodecError::Truncated { .. } | CodecError::HeaderCrc)
            ));
        }
    }
}
