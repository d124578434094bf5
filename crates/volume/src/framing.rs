//! Shared byte framing for every binary format in the workspace: `.rawz`
//! frames ([`crate::codec`]), MSK3 masks ([`crate::maskio`]), `.ifet`
//! session artifacts, `.plz` pathlines and serve wire frames.
//!
//! Each format owns its layout, magic, version gate and typed errors; this
//! module owns only the two pieces they all need:
//!
//! - [`crc32`] — CRC-32 (IEEE 802.3, reflected, table-driven bytewise),
//!   with [`crc32_update`] to extend a checksum over non-contiguous bytes;
//! - [`Reader`] — a bounds-checked little-endian cursor whose only failure
//!   is a [`Shortfall`], which each format maps onto its own truncation
//!   variant.
//!
//! Writers need no helper: `out.extend_from_slice(&v.to_le_bytes())`.

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Extend `crc`, the CRC-32 of some bytes `a`, to the CRC-32 of `a`
/// followed by `data`: `crc32_update(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// A read that needed more bytes than the buffer holds: `need` bytes at
/// offset `at` of a `len`-byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shortfall {
    pub at: usize,
    pub need: usize,
    pub len: usize,
}

/// Sequential little-endian reader over a byte slice. Every read is
/// bounds-checked and fails with a [`Shortfall`] without advancing.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Shortfall> {
        if self.remaining() < n {
            return Err(Shortfall {
                at: self.pos,
                need: n,
                len: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Shortfall> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub fn u8(&mut self) -> Result<u8, Shortfall> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, Shortfall> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, Shortfall> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, Shortfall> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f32` stored as its IEEE bit pattern (lossless, NaN payloads too).
    pub fn f32(&mut self) -> Result<f32, Shortfall> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// An `f64` stored as its IEEE bit pattern.
    pub fn f64(&mut self) -> Result<f64, Shortfall> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The unconsumed tail, without consuming it.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// `Err(extra)` if `extra > 0` bytes remain after the last field.
    pub fn finish(&self) -> Result<(), usize> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(extra),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_update_extends_a_checksum() {
        let data = b"the quick brown fox";
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(data));
        }
    }

    #[test]
    fn reader_decodes_little_endian_fields() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0xBEEFu16.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&(-1.5f32).to_bits().to_le_bytes());
        bytes.extend_from_slice(&0.25f64.to_bits().to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f32(), Ok(-1.5));
        assert_eq!(r.f64(), Ok(0.25));
        assert_eq!((r.pos(), r.remaining()), (bytes.len(), 0));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn shortfall_reports_position_and_does_not_advance() {
        let bytes = [1u8, 2, 3, 4, 5];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u16(), Ok(0x0201));
        let short = Shortfall {
            at: 2,
            need: 4,
            len: 5,
        };
        assert_eq!(r.u32(), Err(short));
        assert_eq!(
            r.take(usize::MAX),
            Err(Shortfall {
                need: usize::MAX,
                ..short
            })
        );
        assert_eq!(r.rest(), &[3, 4, 5]);
        assert_eq!(r.finish(), Err(3));
        assert_eq!(r.take(3), Ok(&[3u8, 4, 5][..]));
        assert_eq!(
            r.u8(),
            Err(Shortfall {
                at: 5,
                need: 1,
                len: 5
            })
        );
    }
}
