//! The versioned pathline artifact: `<name>.plz` binary plus a JSON
//! sidecar, in the same mold as `.rawz` frames — little-endian layout, a
//! trailing CRC-32 over everything after the magic, and *typed* corruption
//! errors down to single byte flips.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   8B  "IFETPLZ1"
//! version u32
//! dims    3 × u32
//! frames  u32
//! count   u32                  particles
//! rk4_dt  f64 bits
//! steps   frames × u32
//! per particle:
//!   seed    3 × f64 bits
//!   ending  u8 (0 completed / 1 left domain / 2 non-finite) + f64 time
//!   npoints u32, then npoints × 3 × f64
//! crc     u32                  CRC-32 of bytes [8, len-4)
//! ```
//!
//! The CRC is verified over the raw bytes *before* any field is parsed, so
//! a flipped byte anywhere after the magic is a [`PathlineIoError::Checksum`]
//! — never a bogus length that sends the parser off a cliff. Encoding is a
//! pure function of the [`PathlineSet`] (f64 bit patterns, no maps, no
//! timestamps), so save → load → save is byte-identical.

use crate::advect::{ParticleEnding, Pathline, PathlineSet};
use ifet_obs as obs;
use ifet_volume::framing::{crc32, Reader, Shortfall};
use ifet_volume::Dims3;
use std::io::Write as _;
use std::path::Path;

const MAGIC: &[u8; 8] = b"IFETPLZ1";
const VERSION: u32 = 1;

/// Why a pathline artifact failed to load (or save). Corruption variants
/// name what disagreed so tests can pin single-byte flips to typed errors.
#[derive(Debug)]
pub enum PathlineIoError {
    Io(std::io::Error),
    /// The file does not start with the pathline magic.
    BadMagic,
    /// A future (or mangled) format version.
    UnsupportedVersion {
        got: u32,
    },
    /// The file ends before its own structure says it should.
    Truncated {
        needed: usize,
        got: usize,
    },
    /// The trailing CRC-32 disagrees with the bytes.
    Checksum {
        expected: u32,
        got: u32,
    },
    /// Structurally impossible field values (with the CRC intact).
    Malformed(&'static str),
}

impl std::fmt::Display for PathlineIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathlineIoError::Io(e) => write!(f, "pathline i/o failed: {e}"),
            PathlineIoError::BadMagic => write!(f, "not a pathline artifact (bad magic)"),
            PathlineIoError::UnsupportedVersion { got } => {
                write!(f, "unsupported pathline format version {got}")
            }
            PathlineIoError::Truncated { needed, got } => {
                write!(
                    f,
                    "pathline artifact truncated: need {needed} bytes, have {got}"
                )
            }
            PathlineIoError::Checksum { expected, got } => write!(
                f,
                "pathline artifact corrupt: crc {got:#010x}, expected {expected:#010x}"
            ),
            PathlineIoError::Malformed(what) => {
                write!(f, "pathline artifact malformed: {what}")
            }
        }
    }
}

impl std::error::Error for PathlineIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PathlineIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Shortfall> for PathlineIoError {
    fn from(s: Shortfall) -> Self {
        PathlineIoError::Truncated {
            needed: s.at + s.need,
            got: s.len,
        }
    }
}

impl From<std::io::Error> for PathlineIoError {
    fn from(e: std::io::Error) -> Self {
        PathlineIoError::Io(e)
    }
}

fn ending_code(e: ParticleEnding) -> (u8, f64) {
    match e {
        ParticleEnding::Completed => (0, 0.0),
        ParticleEnding::LeftDomain { time } => (1, time),
        ParticleEnding::NonFinite { time } => (2, time),
    }
}

fn ending_from(code: u8, time: f64) -> Result<ParticleEnding, PathlineIoError> {
    match code {
        0 => Ok(ParticleEnding::Completed),
        1 => Ok(ParticleEnding::LeftDomain { time }),
        2 => Ok(ParticleEnding::NonFinite { time }),
        _ => Err(PathlineIoError::Malformed("unknown particle ending code")),
    }
}

/// Encode `set` to its canonical byte form (magic through trailing CRC).
pub fn pathlines_to_bytes(set: &PathlineSet) -> Vec<u8> {
    let mut b = Vec::with_capacity(64 + set.pathlines.len() * 128);
    b.extend_from_slice(MAGIC);
    push_u32(&mut b, VERSION);
    for n in [set.dims.nx, set.dims.ny, set.dims.nz] {
        push_u32(&mut b, n as u32);
    }
    push_u32(&mut b, set.steps.len() as u32);
    push_u32(&mut b, set.pathlines.len() as u32);
    b.extend_from_slice(&set.rk4_dt.to_bits().to_le_bytes());
    for &s in &set.steps {
        push_u32(&mut b, s);
    }
    for p in &set.pathlines {
        for c in p.seed {
            b.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        let (code, time) = ending_code(p.ending);
        b.push(code);
        b.extend_from_slice(&time.to_bits().to_le_bytes());
        push_u32(&mut b, p.points.len() as u32);
        for pt in &p.points {
            for c in pt {
                b.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
    }
    let crc = crc32(&b[MAGIC.len()..]);
    push_u32(&mut b, crc);
    b
}

/// Decode the canonical byte form back into a [`PathlineSet`].
pub fn pathlines_from_bytes(bytes: &[u8]) -> Result<PathlineSet, PathlineIoError> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err(PathlineIoError::Truncated {
            needed: MAGIC.len() + 4,
            got: bytes.len(),
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(PathlineIoError::BadMagic);
    }
    // Authenticate everything before parsing anything: a flipped length
    // byte must surface as a checksum error, not a wild allocation.
    let (body, crc) = bytes[MAGIC.len()..].split_at(bytes.len() - MAGIC.len() - 4);
    let stored = Reader::new(crc).u32()?;
    let actual = crc32(body);
    if stored != actual {
        return Err(PathlineIoError::Checksum {
            expected: actual,
            got: stored,
        });
    }
    let mut r = Reader::new(body);
    let version = r.u32()?;
    if version != VERSION {
        return Err(PathlineIoError::UnsupportedVersion { got: version });
    }
    let (nx, ny, nz) = (r.u32()? as usize, r.u32()? as usize, r.u32()? as usize);
    if nx == 0 || ny == 0 || nz == 0 {
        return Err(PathlineIoError::Malformed("zero-sized dims"));
    }
    let frames = r.u32()? as usize;
    let count = r.u32()? as usize;
    let rk4_dt = r.f64()?;
    let mut steps = Vec::with_capacity(frames.min(1 << 20));
    for _ in 0..frames {
        steps.push(r.u32()?);
    }
    let mut pathlines = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let seed = [r.f64()?, r.f64()?, r.f64()?];
        let code = r.u8()?;
        let time = r.f64()?;
        let ending = ending_from(code, time)?;
        let npoints = r.u32()? as usize;
        if npoints > frames {
            return Err(PathlineIoError::Malformed("pathline longer than schedule"));
        }
        let mut points = Vec::with_capacity(npoints);
        for _ in 0..npoints {
            points.push([r.f64()?, r.f64()?, r.f64()?]);
        }
        if points.is_empty() {
            return Err(PathlineIoError::Malformed("pathline without its seed"));
        }
        pathlines.push(Pathline {
            seed,
            points,
            ending,
        });
    }
    r.finish()
        .map_err(|_| PathlineIoError::Malformed("trailing bytes after particles"))?;
    Ok(PathlineSet {
        dims: Dims3::new(nx, ny, nz),
        steps,
        rk4_dt,
        pathlines,
    })
}

/// Write `set` to `path` plus a human-readable `<path>.json` sidecar.
pub fn save_pathlines(path: &Path, set: &PathlineSet) -> Result<(), PathlineIoError> {
    let _span = obs::span("trace.artifact.save");
    let bytes = pathlines_to_bytes(set);
    obs::counter("trace.artifact.bytes", bytes.len() as u64);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    let sidecar = serde_json::to_string_pretty(&SidecarMeta {
        format: "ifet-pathlines".to_string(),
        version: VERSION,
        dims: [set.dims.nx, set.dims.ny, set.dims.nz],
        frames: set.steps.len(),
        particles: set.pathlines.len(),
        completed: set.completed(),
        rk4_dt: set.rk4_dt,
    })
    .expect("sidecar meta serializes");
    std::fs::write(sidecar_path(path), sidecar)?;
    Ok(())
}

/// Load a pathline artifact written by [`save_pathlines`]. Only the binary
/// is authoritative; the sidecar is advisory and never read back.
pub fn load_pathlines(path: &Path) -> Result<PathlineSet, PathlineIoError> {
    let _span = obs::span("trace.artifact.load");
    let bytes = std::fs::read(path)?;
    pathlines_from_bytes(&bytes)
}

fn sidecar_path(path: &Path) -> std::path::PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".json");
    std::path::PathBuf::from(p)
}

#[derive(serde::Serialize)]
struct SidecarMeta {
    format: String,
    version: u32,
    dims: [usize; 3],
    frames: usize,
    particles: usize,
    completed: usize,
    rk4_dt: f64,
}

fn push_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> PathlineSet {
        PathlineSet {
            dims: Dims3::new(8, 9, 10),
            steps: vec![0, 5, 10, 15],
            rk4_dt: 0.25,
            pathlines: vec![
                Pathline {
                    seed: [1.0, 2.0, 3.0],
                    points: vec![
                        [1.0, 2.0, 3.0],
                        [1.5, 2.0, 3.0],
                        [2.0, 2.0, 3.0],
                        [2.5, 2.0, 3.0],
                    ],
                    ending: ParticleEnding::Completed,
                },
                Pathline {
                    seed: [6.5, 1.0, 1.0],
                    points: vec![[6.5, 1.0, 1.0], [7.0, 1.0, 1.0]],
                    ending: ParticleEnding::LeftDomain { time: 7.5 },
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_lossless_and_byte_identical() {
        let set = sample_set();
        let bytes = pathlines_to_bytes(&set);
        let back = pathlines_from_bytes(&bytes).unwrap();
        assert_eq!(back, set);
        assert_eq!(pathlines_to_bytes(&back), bytes);
    }

    #[test]
    fn every_single_byte_flip_is_a_typed_error() {
        let bytes = pathlines_to_bytes(&sample_set());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let err = pathlines_from_bytes(&bad).expect_err("flip must not load");
            if i < MAGIC.len() {
                assert!(matches!(err, PathlineIoError::BadMagic), "byte {i}: {err}");
            } else {
                assert!(
                    matches!(err, PathlineIoError::Checksum { .. }),
                    "byte {i}: {err}"
                );
            }
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = pathlines_to_bytes(&sample_set());
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            let err = pathlines_from_bytes(&bytes[..cut]).expect_err("truncation must not load");
            assert!(
                matches!(
                    err,
                    PathlineIoError::Truncated { .. } | PathlineIoError::Checksum { .. }
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn future_version_is_refused() {
        let set = sample_set();
        let mut bytes = pathlines_to_bytes(&set);
        // Bump the version field and re-seal the CRC.
        bytes[8] = 9;
        let len = bytes.len();
        let crc = crc32(&bytes[8..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            pathlines_from_bytes(&bytes),
            Err(PathlineIoError::UnsupportedVersion { got: 9 })
        ));
    }
}
