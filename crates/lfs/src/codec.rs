//! The bounds-checked little-endian cursor, implemented once for the whole
//! storage stack: the superblock, summaries and usage table here, the
//! journal's entries, sectors, checkpoints and transaction log, the drive's
//! anchor payload, containers, reserved streams and audit records, the RPC
//! wire codec, and the client edge's frames, directory blobs and alerts.
//! All of them parse untrusted bytes — a hostile client's frame, a torn or
//! rotted block — so no decoder indexes a buffer by hand: every field comes
//! from [`Reader::take`], which has the bytes or returns [`Malformed`].
//! `?` turns that into `LfsError::Corrupt` here, `JournalError::Corrupt` in
//! `s4-journal` and `S4Error::BadRequest` in `s4-core`, whose `codec`
//! module re-exports this one for the crates above.
//!
//! **Untrusted counts.** A stored count is read by [`Reader::count`], which
//! refuses it unless the rest of the buffer can hold that many items of the
//! caller's stated minimum size. Every decoder uses it, those that reserve
//! (`Vec::with_capacity(n)`) and those that grow as they decode alike, so
//! none loops on or reserves from a number it has not checked. (The one
//! two-byte count, the container header's, is a plain [`Reader::u16`]: it
//! reserves nothing and each of its at most 65 535 slot reads is checked.)
//!
//! **Encoders.** Primitives are written where they are used
//! (`extend_from_slice(&x.to_le_bytes())`); only the multi-field layouts
//! several formats share have a push function beside their reader.
//!
//! **What stays hand-indexed, and why.** `s4-delta`'s `xdelta`/`lzss`
//! decoders: the crate depends on nothing, so the cursor is out of its
//! reach. [`crate::crc`]: checksum kernels, not
//! decoders. The four-byte frame length in `s4-fs`'s TCP transport: a
//! fixed array read whole from the socket. `scripts/verify.sh` fails on a
//! hand-indexed little-endian read anywhere else outside tests.

use s4_clock::{HybridTimestamp, SimTime};

/// What a decoder returns for bytes it cannot parse; the message names the
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed(pub &'static str);

impl From<Malformed> for crate::LfsError {
    fn from(e: Malformed) -> Self {
        crate::LfsError::Corrupt(e.0)
    }
}

type Result<T> = std::result::Result<T, Malformed>;

/// The cursor: the bytes not yet taken, the length of the buffer they are
/// the tail of, and the error for running off it.
pub struct Reader<'a> {
    rest: &'a [u8],
    len: usize,
    truncated: &'static str,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`; running off its end is
    /// `Malformed(truncated)`.
    #[inline]
    pub fn new(buf: &'a [u8], truncated: &'static str) -> Self {
        Reader::at(buf, 0, truncated)
    }

    /// A cursor at `buf[pos..]` (at the end if `pos` is past it).
    #[inline]
    pub fn at(buf: &'a [u8], pos: usize, truncated: &'static str) -> Self {
        Reader {
            rest: buf.get(pos..).unwrap_or_default(),
            len: buf.len(),
            truncated,
        }
    }

    /// Offset of the next byte in the buffer the cursor was made over.
    #[inline]
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Everything not yet taken.
    #[inline]
    pub fn rest(self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes. (Everything small here is `#[inline]` because
    /// the journal and the drive call it from another crate once per
    /// field: without it `decode_sector` costs about 10 ns more per entry
    /// and `encode_sectors` 20.)
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (bytes, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(Malformed(self.truncated))?;
        self.rest = rest;
        Ok(bytes)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// The next two bytes, little-endian.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next four bytes, little-endian.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next eight bytes, little-endian.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A four-byte item count, refused unless the rest of the buffer can
    /// hold that many items of at least `min_item_bytes` each.
    #[inline]
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_item_bytes) {
            Some(bytes) if bytes <= self.rest.len() => Ok(n),
            _ => Err(Malformed(self.truncated)),
        }
    }

    /// A stamp as [`push_stamp`] wrote it.
    #[inline]
    pub fn stamp(&mut self) -> Result<HybridTimestamp> {
        let time = SimTime::from_micros(self.u64()?);
        Ok(HybridTimestamp::new(time, self.u64()?))
    }

    /// A byte string as [`push_bytes`] wrote it.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A [`Reader::bytes`] field that must be UTF-8.
    pub fn string(&mut self) -> Result<String> {
        let bytes = self.bytes()?.to_vec();
        String::from_utf8(bytes).map_err(|_| Malformed("string is not UTF-8"))
    }

    /// An optional time as [`push_time_opt`] wrote it.
    #[inline]
    pub fn time_opt(&mut self) -> Result<Option<SimTime>> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(SimTime::from_micros(self.u64()?)),
        })
    }
}

/// Appends `s` as `time µs u64 | seq u64`.
#[inline]
pub fn push_stamp(out: &mut Vec<u8>, s: HybridTimestamp) {
    out.extend_from_slice(&s.time.as_micros().to_le_bytes());
    out.extend_from_slice(&s.seq.to_le_bytes());
}

/// Appends `b` as `len u32 | bytes`.
#[inline]
pub fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Appends `t` as `0`, or `1 | time µs u64`.
#[inline]
pub fn push_time_opt(out: &mut Vec<u8>, t: Option<SimTime>) {
    match t {
        Some(t) => {
            out.push(1);
            out.extend_from_slice(&t.as_micros().to_le_bytes());
        }
        None => out.push(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_running_off_the_end_is_the_named_error() {
        let stamp = HybridTimestamp::new(SimTime::from_micros(9), 4);
        let mut buf = vec![0xEE]; // a byte the cursor starts after
        push_stamp(&mut buf, stamp);
        push_bytes(&mut buf, b"name");
        push_time_opt(&mut buf, Some(SimTime::from_micros(7)));
        push_time_opt(&mut buf, None);
        let mut r = Reader::at(&buf, 1, "short");
        assert_eq!(r.stamp(), Ok(stamp));
        assert_eq!(r.string().as_deref(), Ok("name"));
        assert_eq!(r.time_opt(), Ok(Some(SimTime::from_micros(7))));
        assert_eq!((r.time_opt(), r.pos()), (Ok(None), buf.len()));
        assert_eq!(r.u8(), Err(Malformed("short")));
        for cut in 0..buf.len() {
            let mut r = Reader::at(&buf[..cut], 1, "short");
            let all = (|| {
                r.stamp()?;
                r.string()?;
                r.time_opt()?;
                r.time_opt()
            })();
            assert_eq!(all, Err(Malformed("short")), "cut at {cut}");
        }
        assert_eq!(Reader::at(&buf, buf.len() + 1, "short").pos(), buf.len());
    }

    #[test]
    fn a_count_the_buffer_cannot_hold_is_refused() {
        let mut buf = 3u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 24]);
        assert_eq!(Reader::new(&buf, "short").count(8), Ok(3));
        assert_eq!(Reader::new(&buf, "short").count(9), Err(Malformed("short")));
        assert_eq!(
            Reader::new(&buf[..27], "short").count(8),
            Err(Malformed("short"))
        );
        let huge = [0xFF; 12];
        assert_eq!(
            Reader::new(&huge, "short").count(1),
            Err(Malformed("short"))
        );
        assert_eq!(
            Reader::new(&huge, "short").count(usize::MAX),
            Err(Malformed("short"))
        );
    }

    #[test]
    fn a_string_that_is_not_utf8_is_refused() {
        let mut buf = Vec::new();
        push_bytes(&mut buf, &[0xFF, 0xFE]);
        assert!(Reader::new(&buf, "short").string().is_err());
    }
}
