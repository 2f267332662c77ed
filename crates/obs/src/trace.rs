//! Per-request trace records.
//!
//! Every dispatched request produces one fixed-size [`TraceRecord`]
//! carrying its identity (who/what/outcome) and per-layer simulated
//! timings. The drive appends every encoded record to a reserved,
//! drive-written-only object (`TRACE_OBJECT` in `s4-core`), the one
//! place a record is kept: the stream's prefix survives power loss and
//! is readable by forensics after remount — an append-only black box an
//! intruder with client privileges cannot scrub (§4.2.3 applies to it
//! exactly as to the audit log).

/// Encoded size of an untraced (v1) record. Fixed so recovery can
/// sanity-check blocks and the torture harness can predict spill
/// boundaries.
pub const TRACE_RECORD_BYTES: usize = 68;

/// Encoded size of a traced (v2) record: the v1 prefix plus the causal
/// extension (`trace_id` u64, `origin` u8, `phase` u8).
pub const TRACE_RECORD_V2_BYTES: usize = TRACE_RECORD_BYTES + 10;

/// Version byte of a legacy untraced record. v1 wrote its two reserved
/// bytes (offsets 26–27) as zeros, so the byte doubles as the version
/// marker retroactively.
pub(crate) const TRACE_VERSION_V1: u8 = 0;

/// Version byte of a record carrying the causal extension. (1 is
/// deliberately unused: a torn v1 record cannot silently promote itself
/// to "versioned" with a single bit flip of the low bit.)
pub(crate) const TRACE_VERSION_V2: u8 = 2;

/// One dispatched request, as the drive's trace stream records it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceRecord {
    /// Position in the drive's persisted trace stream (0-based).
    pub seq: u64,
    /// Simulated time at dispatch completion, microseconds.
    pub time_us: u64,
    /// Requesting principal.
    pub user: u32,
    /// Originating client.
    pub client: u32,
    /// Operation kind (same byte encoding as `s4_core::OpKind`).
    pub op: u8,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Object the request touched (0 when none).
    pub object: u64,
    /// Whole-dispatch latency, simulated µs.
    pub rpc_us: u64,
    /// Simulated µs spent packing journal entries.
    pub journal_us: u64,
    /// Device µs incurred inside LFS segment flushes.
    pub lfs_us: u64,
    /// Total simulated disk service µs.
    pub disk_us: u64,
    /// Propagated causal trace id (0 = untraced; encodes as v1).
    pub trace_id: u64,
    /// Dense shard index the traced request entered the array at.
    pub origin: u8,
    /// Dispatch phase (client/apply/prepare/decide/note/catchup; the
    /// byte encoding is `s4_core::TraceCtx`'s).
    pub phase: u8,
}

impl TraceRecord {
    /// Encoded size of *this* record: untraced records keep the v1
    /// 68-byte layout, traced records append the 10-byte extension.
    pub(crate) fn encoded_len(&self) -> usize {
        if self.trace_id == 0 {
            TRACE_RECORD_BYTES
        } else {
            TRACE_RECORD_V2_BYTES
        }
    }

    /// Appends the fixed-size encoding to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.time_us.to_le_bytes());
        out.extend_from_slice(&self.user.to_le_bytes());
        out.extend_from_slice(&self.client.to_le_bytes());
        out.push(self.op);
        out.push(self.ok as u8);
        if self.trace_id == 0 {
            out.extend_from_slice(&[TRACE_VERSION_V1, 0]); // version, flags
        } else {
            out.extend_from_slice(&[TRACE_VERSION_V2, 0]); // version, flags
        }
        out.extend_from_slice(&self.object.to_le_bytes());
        out.extend_from_slice(&self.rpc_us.to_le_bytes());
        out.extend_from_slice(&self.journal_us.to_le_bytes());
        out.extend_from_slice(&self.lfs_us.to_le_bytes());
        out.extend_from_slice(&self.disk_us.to_le_bytes());
        if self.trace_id != 0 {
            out.extend_from_slice(&self.trace_id.to_le_bytes());
            out.push(self.origin);
            out.push(self.phase);
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes one record; `None` on short or malformed input. A torn
    /// or corrupted record is caught here rather than surfacing as
    /// garbage timings: the `ok` byte must be 0/1, the flags byte must
    /// be zero, the version byte must name a known layout, and a v2
    /// record must actually carry its extension (with a nonzero id —
    /// the encoder never writes a traced record without one).
    pub fn decode(buf: &[u8]) -> Option<TraceRecord> {
        if buf.len() < TRACE_RECORD_BYTES {
            return None;
        }
        let u64at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let u32at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().unwrap());
        if buf[25] > 1 {
            return None; // ok flag must be 0/1
        }
        if buf[27] != 0 {
            return None; // no flags are defined; anything else is a torn record
        }
        let (trace_id, origin, phase) = match buf[26] {
            TRACE_VERSION_V1 => (0u64, 0u8, 0u8),
            TRACE_VERSION_V2 => {
                if buf.len() < TRACE_RECORD_V2_BYTES {
                    return None;
                }
                let id = u64at(68);
                if id == 0 {
                    return None; // traced records always carry a nonzero id
                }
                (id, buf[76], buf[77])
            }
            _ => return None, // unknown version byte
        };
        Some(TraceRecord {
            seq: u64at(0),
            time_us: u64at(8),
            user: u32at(16),
            client: u32at(20),
            op: buf[24],
            ok: buf[25] == 1,
            object: u64at(28),
            rpc_us: u64at(36),
            journal_us: u64at(44),
            lfs_us: u64at(52),
            disk_us: u64at(60),
            trace_id,
            origin,
            phase,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            time_us: 1000 + seq,
            user: 7,
            client: 3,
            op: 4,
            ok: seq.is_multiple_of(2),
            object: 42,
            rpc_us: 11,
            journal_us: 5,
            lfs_us: 2,
            disk_us: 9,
            ..TraceRecord::default()
        }
    }

    fn rec_v2(seq: u64) -> TraceRecord {
        TraceRecord {
            trace_id: 0xABCD_0000 + seq,
            origin: 2,
            phase: 1,
            ..rec(seq)
        }
    }

    #[test]
    fn codec_round_trip() {
        let r = rec(9);
        let enc = r.encode();
        assert_eq!(enc.len(), TRACE_RECORD_BYTES);
        assert_eq!(TraceRecord::decode(&enc), Some(r));
        assert_eq!(TraceRecord::decode(&enc[..TRACE_RECORD_BYTES - 1]), None);
        let mut bad = enc.clone();
        bad[25] = 2; // invalid ok flag
        assert_eq!(TraceRecord::decode(&bad), None);
    }

    #[test]
    fn v2_codec_round_trip_and_rejections() {
        let r = rec_v2(5);
        let enc = r.encode();
        assert_eq!(enc.len(), TRACE_RECORD_V2_BYTES);
        assert_eq!(enc[26], TRACE_VERSION_V2);
        assert_eq!(TraceRecord::decode(&enc), Some(r));
        // A truncated v2 record must not decode as anything.
        assert_eq!(TraceRecord::decode(&enc[..TRACE_RECORD_V2_BYTES - 1]), None);
        // Malformed version / flags / id bytes are caught at decode time.
        for (offset, value) in [(26u8, 1u8), (26, 3), (26, 0xFF), (27, 1), (27, 0x80)] {
            let mut bad = enc.clone();
            bad[offset as usize] = value;
            assert_eq!(TraceRecord::decode(&bad), None, "byte {offset} = {value}");
        }
        let mut zero_id = enc.clone();
        zero_id[68..76].fill(0);
        assert_eq!(TraceRecord::decode(&zero_id), None, "v2 with id 0");
    }

    #[test]
    fn v1_records_still_decode_with_empty_trace_fields() {
        let r = rec(3);
        let enc = r.encode();
        assert_eq!(enc[26], TRACE_VERSION_V1);
        let d = TraceRecord::decode(&enc).unwrap();
        assert_eq!((d.trace_id, d.origin, d.phase), (0, 0, 0));
        assert_eq!(d, r);
    }

    /// Deterministic mixed-version fuzz over the codec boundary: encode
    /// an interleaved v1/v2 stream, then attack it with truncation,
    /// single-byte corruption, and torn-sector interleave. The codec
    /// must never panic, and every accepted record must be internally
    /// consistent (valid version byte, zero flags, nonzero id iff v2).
    #[test]
    fn mixed_version_stream_fuzz() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200u64 {
            // Build a stream of 1..=8 records, mixed v1/v2.
            let n = (rng() % 8 + 1) as usize;
            let mut stream = Vec::new();
            let mut bounds = vec![0usize];
            for i in 0..n {
                let mut r = if rng() % 2 == 0 {
                    rec(round * 100 + i as u64)
                } else {
                    rec_v2(round * 100 + i as u64)
                };
                r.rpc_us = rng() % 10_000;
                r.encode_into(&mut stream);
                bounds.push(stream.len());
            }
            // Every record boundary round-trips.
            for w in bounds.windows(2) {
                assert!(TraceRecord::decode(&stream[w[0]..w[1]]).is_some());
            }
            // Truncation at every offset: short input never panics, and
            // a cut inside a record's extension never decodes as v2.
            for cut in 0..stream.len() {
                let _ = TraceRecord::decode(&stream[..cut]);
            }
            // Single-byte corruption of the first record: decode either
            // rejects or returns a structurally valid record.
            let first_len = bounds[1];
            let pos = (rng() as usize) % first_len;
            let mut torn = stream[..first_len].to_vec();
            torn[pos] ^= (rng() % 255 + 1) as u8;
            if let Some(d) = TraceRecord::decode(&torn) {
                assert!(d.ok as u8 <= 1);
                if torn[26] == TRACE_VERSION_V2 {
                    assert_ne!(d.trace_id, 0);
                } else {
                    assert_eq!((d.trace_id, d.origin, d.phase), (0, 0, 0));
                }
            }
            // Torn-sector interleave: splice the first half of one
            // record onto the tail of another (sector-granular writes
            // can leave exactly this). Must not panic; a v1-prefix
            // spliced onto v2 tail bytes decodes as the v1 prefix says.
            if n >= 2 {
                let a = &stream[bounds[0]..bounds[1]];
                let b = &stream[bounds[1]..bounds[2]];
                let cut = a.len().min(b.len()) / 2;
                let mut spliced = a[..cut].to_vec();
                spliced.extend_from_slice(&b[cut..]);
                let _ = TraceRecord::decode(&spliced);
            }
        }
    }
}
