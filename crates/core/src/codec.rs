//! A bounds-checked little-endian cursor, implemented once: the reader
//! behind the RPC wire codec, every on-disk decoder of the drive (object
//! checkpoints, the anchor payload, reserved-stream state, the partition
//! table) and the client edge's decoders (TCP request frame, directory
//! blobs, alerts). All of them parse untrusted bytes — a hostile client's
//! frame, a torn block — so no decoder indexes a buffer by hand: every field
//! comes from `Reader::take`, which has the bytes or returns its truncation error.

use s4_clock::{HybridTimestamp, SimTime};

use crate::{Result, S4Error};

/// The cursor: a buffer, a position, and the error for running off it.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    truncated: &'static str,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`; running off its end is
    /// `BadRequest(truncated)`.
    pub fn new(buf: &'a [u8], truncated: &'static str) -> Self {
        Reader {
            buf,
            pos: 0,
            truncated,
        }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let bytes = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or(S4Error::BadRequest(self.truncated))?;
        self.pos += n;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Everything not yet taken.
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// The next two bytes, little-endian.
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next four bytes, little-endian.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next eight bytes, little-endian.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A stamp as [`push_stamp`] wrote it.
    pub(crate) fn stamp(&mut self) -> Result<HybridTimestamp> {
        let time = SimTime::from_micros(self.u64()?);
        Ok(HybridTimestamp::new(time, self.u64()?))
    }
}

/// Appends `s` as `time µs u64 | seq u64`.
pub(crate) fn push_stamp(out: &mut Vec<u8>, s: HybridTimestamp) {
    out.extend_from_slice(&s.time.as_micros().to_le_bytes());
    out.extend_from_slice(&s.seq.to_le_bytes());
}
