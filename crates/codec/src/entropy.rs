//! Varint + run-length entropy coding for quantized DCT blocks.
//!
//! Layout per block: `signed_varint(dc_delta)` followed by zero or more
//! `(unsigned_varint(zero_run), signed_varint(value))` pairs and a
//! terminating end-of-block marker. The EOB marker is an unsigned run of
//! `RUN_EOB`, a value no legal run can take (runs are < 64).

use crate::{ZIGZAG, ZIGZAG_POS};
use bytes::Bytes;
use std::error::Error;
use std::fmt;

/// Sentinel run value marking end-of-block.
const RUN_EOB: u32 = 0x7F;

/// Errors produced while decoding a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended mid-symbol.
    Truncated,
    /// The payload decoded to an impossible structure.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "encoded payload ended unexpectedly"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl Error for CodecError {}

/// Zig-zag maps signed to unsigned so small magnitudes stay small.
#[inline]
fn zigzag_encode(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

#[inline]
fn zigzag_decode(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// Bit-packing writer (LEB128 varints into a byte buffer).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Writes an unsigned varint.
    #[inline]
    pub fn write_unsigned(&mut self, mut v: u32) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Writes a signed varint (zig-zag mapped).
    #[inline]
    pub fn write_signed(&mut self, v: i32) {
        self.write_unsigned(zigzag_encode(v));
    }

    /// Writes the end-of-block marker.
    #[inline]
    pub fn write_eob(&mut self) {
        self.write_unsigned(RUN_EOB);
    }

    /// Writes one quantized block: `dc` as a signed varint, a
    /// `(zero_run, value)` pair for each nonzero AC coefficient in
    /// zig-zag order, then EOB.
    ///
    /// `mask` is the raster nonzero mask `quantize_8x8` returned with
    /// `quantized`. Only its set bits are visited: they are moved to
    /// their zig-zag positions, and the runs fall out of the gaps
    /// between consecutive positions, so a block costs its nonzero
    /// count rather than 63 scan steps.
    #[inline]
    pub fn write_block(&mut self, dc: i32, quantized: &[i32; 64], mask: u64) {
        self.write_signed(dc);
        let mut raster = mask & !1;
        let mut scan = 0u64;
        while raster != 0 {
            scan |= 1 << ZIGZAG_POS[raster.trailing_zeros() as usize];
            raster &= raster - 1;
        }
        let mut next = 1;
        while scan != 0 {
            let pos = scan.trailing_zeros();
            self.write_unsigned(pos - next);
            self.write_signed(quantized[ZIGZAG[pos as usize]]);
            next = pos + 1;
            scan &= scan - 1;
        }
        self.write_eob();
    }

    /// Finalizes into an immutable byte buffer holding exactly the
    /// written bytes. The bytes are copied into a fresh allocation of
    /// their own length rather than trimmed in place: a trimmed buffer
    /// leaves a hole no later working buffer fits, and a server holding
    /// thousands of payloads grew its heap by most of their size.
    pub fn into_bytes(self) -> Bytes {
        Bytes::copy_from_slice(&self.buf)
    }
}

/// A decoded run symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// `zeros` zero coefficients followed by `value`.
    Pair {
        /// Number of zeros preceding the value.
        zeros: u32,
        /// The non-zero coefficient.
        value: i32,
    },
    /// End of block.
    Eob,
}

/// Varint reader over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at the start of the payload.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Reads an unsigned varint.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the payload ends mid-varint, or
    /// [`CodecError::Malformed`] if the varint overflows 32 bits.
    #[inline]
    pub fn read_unsigned(&mut self) -> Result<u32, CodecError> {
        // Fast path: almost every symbol (runs, small quantized
        // coefficients) fits one byte.
        let byte = *self.data.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        if byte & 0x80 == 0 {
            return Ok(byte as u32);
        }
        self.read_unsigned_slow((byte & 0x7F) as u32)
    }

    /// Continuation bytes of a multi-byte varint (first byte's payload
    /// already in `result`). The fifth byte may carry only the top four
    /// bits of a `u32` and must end the varint.
    #[cold]
    fn read_unsigned_slow(&mut self, mut result: u32) -> Result<u32, CodecError> {
        let mut shift = 7u32;
        loop {
            let byte = *self.data.get(self.pos).ok_or(CodecError::Truncated)?;
            self.pos += 1;
            if shift == 28 && byte > 0x0F {
                return Err(CodecError::Malformed("varint overflow"));
            }
            result |= ((byte & 0x7F) as u32) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads a signed varint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Reader::read_unsigned`].
    #[inline]
    pub fn read_signed(&mut self) -> Result<i32, CodecError> {
        Ok(zigzag_decode(self.read_unsigned()?))
    }

    /// Reads the next run symbol (a `(zeros, value)` pair or EOB).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Reader::read_unsigned`], plus
    /// [`CodecError::Malformed`] for an impossible run length.
    #[inline]
    pub fn read_run(&mut self) -> Result<Run, CodecError> {
        let run = self.read_unsigned()?;
        if run == RUN_EOB {
            return Ok(Run::Eob);
        }
        if run >= 64 {
            return Err(CodecError::Malformed("zero-run exceeds block size"));
        }
        let value = self.read_signed()?;
        Ok(Run::Pair { zeros: run, value })
    }

    /// Bytes consumed so far.
    #[allow(dead_code)] // exercised by unit tests; useful for diagnostics
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for v in [-1000, -2, -1, 0, 1, 2, 1000, i32::MIN / 2, i32::MAX / 2] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes map small.
        assert!(zigzag_encode(-1) <= 2);
        assert!(zigzag_encode(1) <= 2);
    }

    #[test]
    fn varint_roundtrip() {
        let mut w = Writer::default();
        let values = [0u32, 1, 127, 128, 300, 65_535, 1 << 20, u32::MAX / 2];
        for &v in &values {
            w.write_unsigned(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_unsigned().unwrap(), v);
        }
        assert_eq!(r.position(), bytes.len());
    }

    #[test]
    fn signed_roundtrip() {
        let mut w = Writer::default();
        let values = [-100_000, -1, 0, 1, 7, 100_000];
        for &v in &values {
            w.write_signed(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_signed().unwrap(), v);
        }
    }

    #[test]
    fn run_roundtrip_with_eob() {
        let mut w = Writer::default();
        w.write_unsigned(3);
        w.write_signed(-7);
        w.write_unsigned(0);
        w.write_signed(12);
        w.write_eob();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.read_run().unwrap(),
            Run::Pair {
                zeros: 3,
                value: -7
            }
        );
        assert_eq!(
            r.read_run().unwrap(),
            Run::Pair {
                zeros: 0,
                value: 12
            }
        );
        assert_eq!(r.read_run().unwrap(), Run::Eob);
    }

    #[test]
    fn truncated_payload_errors() {
        let mut w = Writer::default();
        w.write_unsigned(5);
        w.write_signed(9);
        let bytes = w.into_bytes();
        // Cut mid-pair.
        let mut r = Reader::new(&bytes[..1]);
        assert_eq!(r.read_run(), Err(CodecError::Truncated));
    }

    #[test]
    fn illegal_run_is_malformed() {
        let mut w = Writer::default();
        w.write_unsigned(80); // not EOB (127), not a legal run (<64)
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.read_run(), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn continuation_bits_never_terminate() {
        // 5 bytes with continuation set but no terminator -> overflow.
        let data = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF];
        let mut r = Reader::new(&data);
        assert!(matches!(
            r.read_unsigned(),
            Err(CodecError::Malformed("varint overflow"))
        ));
    }

    #[test]
    fn five_byte_varints_past_u32_are_malformed() {
        // 2^32 and 2^35 - 1: the fifth byte carries bits a u32 cannot
        // hold, so neither may wrap to a value.
        for data in [
            [0x80u8, 0x80, 0x80, 0x80, 0x10],
            [0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
        ] {
            let mut r = Reader::new(&data);
            assert_eq!(
                r.read_unsigned(),
                Err(CodecError::Malformed("varint overflow")),
                "{data:02x?}"
            );
        }
        // u32::MAX itself is the largest legal five-byte varint.
        let mut w = Writer::default();
        w.write_unsigned(u32::MAX);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..], &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        assert_eq!(Reader::new(&bytes).read_unsigned(), Ok(u32::MAX));
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", CodecError::Truncated).contains("unexpectedly"));
        assert!(format!("{}", CodecError::Malformed("x")).contains("x"));
    }
}
