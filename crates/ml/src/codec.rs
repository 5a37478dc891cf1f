//! Compact binary model serialisation — the PKL-file analogue.
//!
//! The paper persists each trained model to a pickle file and reports
//! "Model Size (Kb)" as a sustainability metric. This module provides a
//! small, dependency-free binary codec; a model's size metric is the
//! length of its encoding.

use std::fmt;

/// Error decoding a model blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the field needed.
    UnexpectedEof,
    /// A magic/version marker did not match.
    BadMagic {
        /// What the decoder expected.
        expected: u32,
        /// What it found.
        found: u32,
    },
    /// A length or enum discriminant was out of range.
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => f.write_str("unexpected end of model blob"),
            DecodeError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:#x}, found {found:#x}")
            }
            DecodeError::Corrupt(what) => write!(f, "corrupt model blob: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A little-endian binary writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_f64(v);
        }
    }

    /// Writes a length-prefixed `usize` slice.
    pub fn put_usize_slice(&mut self, values: &[usize]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_usize(v);
        }
    }

    /// Finishes and returns the blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A little-endian binary reader over a model blob.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps a blob for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn get_usize(&mut self) -> Result<usize, DecodeError> {
        Ok(self.get_u64()? as usize)
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.get_usize()?;
        if n > self.buf.len() / 8 + 1 {
            return Err(DecodeError::Corrupt("f64 slice length"));
        }
        (0..n).map(|_| self.get_f64()).collect()
    }

    /// Reads a length-prefixed `usize` slice.
    pub fn get_usize_slice(&mut self) -> Result<Vec<usize>, DecodeError> {
        let n = self.get_usize()?;
        if n > self.buf.len() / 8 + 1 {
            return Err(DecodeError::Corrupt("usize slice length"));
        }
        (0..n).map(|_| self.get_usize()).collect()
    }

    /// Verifies a magic marker.
    pub fn expect_magic(&mut self, expected: u32) -> Result<(), DecodeError> {
        let found = self.get_u32()?;
        if found != expected {
            return Err(DecodeError::BadMagic { expected, found });
        }
        Ok(())
    }

    /// Ends decoding: a blob must be used up exactly, so bytes after
    /// the last field are an error rather than silently ignored.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Corrupt`] when bytes remain.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Corrupt("trailing bytes"))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use crate::matrix::{FeatureMatrix, MatrixView};
    use netsim::rng::SimRng;

    /// 26-wide rows, the IDS's width: benign ones on a line, one in four
    /// anomalous.
    pub(crate) fn wide_data(n: usize, rng: &mut SimRng) -> (FeatureMatrix, Vec<usize>) {
        let mut x = FeatureMatrix::new(26);
        let mut y = Vec::new();
        for i in 0..n {
            let anomaly = i % 4 == 0;
            let t = rng.standard_normal();
            let row: Vec<f64> = (0..26)
                .map(|j| {
                    if anomaly {
                        rng.uniform_range(-3.0, 3.0)
                    } else {
                        t * (j as f64 / 13.0 - 1.0)
                    }
                })
                .collect();
            x.push_row(&row);
            y.push(usize::from(anomaly));
        }
        (x, y)
    }

    /// Structure-aware decoder fuzzing for blobs built of `usize` words
    /// and length-prefixed slices: the `usize` word at each byte offset
    /// in `words` is set in turn to 0, 1, the value of each neighbouring
    /// word in `words`, `u32::MAX` and `2^63`. Each mutant must fail to
    /// decode or decode to a model that predicts every row of `probe`;
    /// every truncation of `blob` and `blob` plus one byte must fail to
    /// decode, and `blob` itself must round-trip. Returns how many
    /// mutants decoded.
    pub(crate) fn usize_mutants_error_or_predict<M: Classifier>(
        blob: &[u8],
        words: &[usize],
        decode: impl Fn(&[u8]) -> Result<M, DecodeError>,
        probe: MatrixView<'_>,
    ) -> usize {
        let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
        let mut decoded = 0;
        for (j, &at) in words.iter().enumerate() {
            let neighbours = [j.wrapping_sub(1), j + 1]
                .into_iter()
                .filter_map(|n| words.get(n).map(|&n| word(n)));
            for value in [0, 1, u64::from(u32::MAX), 1 << 63]
                .into_iter()
                .chain(neighbours)
            {
                let mut mutant = blob.to_vec();
                mutant[at..at + 8].copy_from_slice(&value.to_le_bytes());
                if let Ok(model) = decode(&mutant) {
                    decoded += 1;
                    for row in probe.rows() {
                        let _ = model.predict(row);
                    }
                }
            }
        }
        for cut in 0..blob.len() {
            assert!(decode(&blob[..cut]).is_err(), "truncated at {cut}");
        }
        assert_trailing_byte_rejected(blob, &decode);
        decoded
    }

    /// `blob` round-trips through `decode`, and `blob` plus one byte
    /// fails to decode.
    pub(crate) fn assert_trailing_byte_rejected<M: Classifier>(
        blob: &[u8],
        decode: impl Fn(&[u8]) -> Result<M, DecodeError>,
    ) {
        let model = decode(blob).expect("the untouched blob decodes");
        assert_eq!(model.encode(), blob, "the untouched blob round-trips");
        let mut longer = blob.to_vec();
        longer.push(0);
        assert_eq!(
            decode(&longer).err(),
            Some(DecodeError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xdead_beef);
        e.put_u64(42);
        e.put_f64(std::f64::consts::PI);
        let blob = e.finish();
        let mut d = Decoder::new(&blob);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64().unwrap(), 42);
        assert_eq!(d.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(d.finish(), Ok(()));
    }

    #[test]
    fn slice_roundtrip() {
        let mut e = Encoder::new();
        e.put_f64_slice(&[1.0, -2.5, 3.75]);
        e.put_usize_slice(&[9, 8, 7]);
        let blob = e.finish();
        let mut d = Decoder::new(&blob);
        assert_eq!(d.get_f64_slice().unwrap(), vec![1.0, -2.5, 3.75]);
        assert_eq!(d.get_usize_slice().unwrap(), vec![9, 8, 7]);
    }

    #[test]
    fn eof_is_detected() {
        let mut d = Decoder::new(&[1, 2]);
        assert_eq!(d.get_u32(), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut e = Encoder::new();
        e.put_u32(0x1111);
        let blob = e.finish();
        let mut d = Decoder::new(&blob);
        assert!(matches!(d.expect_magic(0x2222), Err(DecodeError::BadMagic { .. })));
    }

    #[test]
    fn corrupt_lengths_are_rejected() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX); // absurd slice length
        let blob = e.finish();
        let mut d = Decoder::new(&blob);
        assert!(matches!(d.get_f64_slice(), Err(DecodeError::Corrupt(_))));
    }
}
