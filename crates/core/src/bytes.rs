//! The one little-endian byte codec under every binary format: snapshots,
//! WAL records and rule content hashes.
//!
//! [`Writer`] appends fixed-width integers and u32-length-prefixed byte
//! strings. [`Reader`] reads them back and is the only place a length or
//! count taken from untrusted input is checked: a byte string longer than
//! the input left, or an element count larger than it (every element
//! encodes to at least one byte), is refused before anything is
//! allocated, so a corrupt length cannot demand a huge reservation.

/// Appends little-endian fields to a growing buffer.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Writer {
        Writer { buf: Vec::with_capacity(n) }
    }
    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// A little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }
    /// A little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }
    /// A little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }
    /// Bytes as they are, with no length prefix.
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// A u32 length, then the bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(u32::try_from(b.len()).expect("byte string exceeds u32"));
        self.raw(b);
    }
    /// A string as [`bytes`](Self::bytes) of its UTF-8.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    /// Bytes written so far: where the next field starts.
    pub fn pos(&self) -> usize {
        self.buf.len()
    }
    /// Overwrites the u32 written at `at` (a count known only later).
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Why a [`Reader`] refused a field. Decoders stop at the first one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The input ended mid-field, or a length or count ran past it.
    Truncated,
    /// A string field was not valid UTF-8.
    BadUtf8,
}

/// Reads what a [`Writer`] wrote, refusing every length or count larger
/// than the bytes left. The position only moves forward.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }
    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if n > self.remaining() {
            return Err(ReadError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }
    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }
    /// A little-endian u32.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }
    /// A little-endian u64.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }
    fn bounded(&self, n: u64) -> Result<usize, ReadError> {
        if n > self.remaining() as u64 {
            return Err(ReadError::Truncated);
        }
        Ok(n as usize)
    }
    /// A u64 element count, refused when larger than the bytes left.
    pub fn count(&mut self) -> Result<usize, ReadError> {
        let n = self.u64()?;
        self.bounded(n)
    }
    /// A u32 element count, refused when larger than the bytes left.
    pub fn count32(&mut self) -> Result<usize, ReadError> {
        let n = self.u32()?;
        self.bounded(u64::from(n))
    }
    /// A u32 length, then that many bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], ReadError> {
        let n = self.count32()?;
        self.take(n)
    }
    /// A string written by [`Writer::str`].
    pub fn str(&mut self) -> Result<String, ReadError> {
        let s = std::str::from_utf8(self.bytes()?).map_err(|_| ReadError::BadUtf8)?;
        Ok(s.to_string())
    }
    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn writer_and_reader_roundtrip() {
        let mut w = Writer::with_capacity(8);
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0);
        w.u64(u64::MAX - 1);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        w.patch_u32(3, 3);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.take(2), Ok(&0xBEEFu16.to_le_bytes()[..]));
        assert_eq!(r.count32(), Ok(3));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.str().as_deref(), Ok("héllo"));
        assert_eq!(r.bytes(), Ok(&[1, 2, 3][..]));
        assert_eq!((r.pos(), r.remaining()), (bytes.len(), 0));
        assert_eq!(r.u8(), Err(ReadError::Truncated));
    }

    #[test]
    fn oversized_lengths_and_bad_utf8_are_refused() {
        let mut r = Reader::new(&[0xff, 0xff, 0xff, 0xff, 0]);
        assert_eq!(r.count32(), Err(ReadError::Truncated));
        let mut r = Reader::new(&[5, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4]);
        assert_eq!(r.count(), Err(ReadError::Truncated));
        let mut r = Reader::new(&[2, 0, 0, 0, 0xc3, 0x28]);
        assert_eq!(r.str(), Err(ReadError::BadUtf8));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// Hostile input, proven once for every decoder built on
        /// [`Reader`]: any read sequence over any bytes never panics,
        /// never yields a count larger than the bytes left, and never
        /// moves the position backwards.
        #[test]
        fn any_read_sequence_over_any_bytes_is_bounded(
            bytes in prop::collection::vec(prop_oneof![any::<u8>(), 0u8..3], 0..48),
            reads in prop::collection::vec(0u8..9, 0..24),
        ) {
            let mut r = Reader::new(&bytes);
            for read in reads {
                let before = r.pos();
                let counted = match read {
                    0 => r.take(before % 9).map(|_| None),
                    1 => r.u8().map(|_| None),
                    2 => r.u32().map(|_| None),
                    3 => r.u64().map(|_| None),
                    4 => r.bytes().map(|_| None),
                    5 => r.str().map(|_| None),
                    6 => r.take(usize::MAX).map(|_| None),
                    7 => r.count().map(Some),
                    _ => r.count32().map(Some),
                };
                if let Ok(Some(n)) = counted {
                    prop_assert!(n <= r.remaining(), "count {n} with {} left", r.remaining());
                }
                prop_assert!(r.pos() >= before);
                prop_assert_eq!(r.pos() + r.remaining(), bytes.len());
            }
        }
    }
}
