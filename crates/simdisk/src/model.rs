//! Mechanical disk service-time model.
//!
//! Calibrated by default to the paper's 9 GB 10,000 RPM Seagate Cheetah
//! (≈0.8 ms track-to-track seek, ≈5.2 ms average seek, 3 ms average
//! rotational latency, ≈21 MB/s media rate). The model tracks head
//! position so sequential transfers (the LFS segment-write case) pay only
//! media transfer time, while scattered synchronous writes (the FFS
//! baseline case) pay seek + rotation per request — the asymmetry the
//! paper's Figure 3 result rests on.

use s4_clock::SimDuration;

/// Static parameters of the mechanical model.
#[derive(Clone, Copy, Debug)]
pub struct DiskModelParams {
    /// Sectors per track; together with the sector count this fixes the
    /// cylinder count used for seek-distance computation.
    pub sectors_per_track: u64,
    /// Minimum (track-to-track) seek time.
    pub min_seek: SimDuration,
    /// Average seek time (one third of a full-stroke seek, per convention).
    pub avg_seek: SimDuration,
    /// Full-stroke seek time.
    pub max_seek: SimDuration,
    /// Time for one full platter rotation.
    pub rotation: SimDuration,
    /// Media transfer rate in bytes per second.
    pub transfer_bytes_per_sec: u64,
    /// Fixed per-request controller/command overhead.
    pub command_overhead: SimDuration,
}

impl DiskModelParams {
    /// The paper's server disk: Seagate Cheetah 9 GB, 10,000 RPM Ultra2
    /// SCSI.
    pub fn cheetah_9gb_10k() -> Self {
        DiskModelParams {
            sectors_per_track: 334, // ~170 KB tracks
            min_seek: SimDuration::from_micros(800),
            avg_seek: SimDuration::from_micros(5_200),
            max_seek: SimDuration::from_micros(10_600),
            rotation: SimDuration::from_micros(6_000), // 10,000 RPM
            transfer_bytes_per_sec: 21_000_000,
            command_overhead: SimDuration::from_micros(100),
        }
    }

    /// A "free" disk with no mechanical costs, for logic-only tests.
    pub fn free() -> Self {
        DiskModelParams {
            sectors_per_track: 1024,
            min_seek: SimDuration::ZERO,
            avg_seek: SimDuration::ZERO,
            max_seek: SimDuration::ZERO,
            rotation: SimDuration::ZERO,
            transfer_bytes_per_sec: u64::MAX,
            command_overhead: SimDuration::ZERO,
        }
    }
}

/// Stateful service-time model: remembers where the head is and where the
/// platter is in its rotation.
#[derive(Clone, Debug)]
pub(crate) struct DiskModel {
    params: DiskModelParams,
    num_cylinders: u64,
    /// Track the head currently sits on.
    current_track: u64,
    /// Sector index the head will pass next (position within the track),
    /// advanced deterministically by transfer lengths so rotational latency
    /// is reproducible without randomness.
    angular_sector: u64,
}

impl DiskModel {
    /// Creates a model for a device of `num_sectors` sectors.
    pub(crate) fn new(params: DiskModelParams, num_sectors: u64) -> Self {
        let num_cylinders = num_sectors.div_ceil(params.sectors_per_track).max(1);
        DiskModel {
            params,
            num_cylinders,
            current_track: 0,
            angular_sector: 0,
        }
    }

    /// Seek time for a move of `distance` cylinders, using the standard
    /// piecewise sqrt/linear curve anchored at min/avg/max seek times.
    fn seek_time(&self, distance: u64) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let d = distance as f64;
        let n = self.num_cylinders.max(2) as f64;
        let min = self.params.min_seek.as_micros() as f64;
        let max = self.params.max_seek.as_micros() as f64;
        // Square-root law for short seeks, linear tail for long ones,
        // normalized so distance 1 -> min_seek and distance n-1 -> max_seek.
        let frac = (d / (n - 1.0)).min(1.0);
        let us = if frac < 0.3 {
            min + (max * 0.6 - min) * (frac / 0.3).sqrt()
        } else {
            max * 0.6 + (max - max * 0.6) * ((frac - 0.3) / 0.7)
        };
        SimDuration::from_micros(us.round() as u64)
    }

    /// Rotational latency to reach `target_sector_on_track` from the
    /// current angular position.
    fn rotation_time(&self, target_sector_on_track: u64) -> SimDuration {
        let spt = self.params.sectors_per_track;
        if self.params.rotation == SimDuration::ZERO || spt == 0 {
            return SimDuration::ZERO;
        }
        let gap = (target_sector_on_track + spt - self.angular_sector % spt) % spt;
        SimDuration::from_micros(self.params.rotation.as_micros() * gap / spt)
    }

    /// Media transfer time for `bytes` bytes.
    fn transfer_time(&self, bytes: u64) -> SimDuration {
        if self.params.transfer_bytes_per_sec == u64::MAX {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(bytes * 1_000_000 / self.params.transfer_bytes_per_sec)
    }

    /// Computes the service time of a request for `count` sectors starting
    /// at `sector`, and advances the head/rotation state.
    ///
    /// A request that begins exactly where the previous one ended pays
    /// neither seek nor rotational latency — the sequential-append fast
    /// path that log-structured layouts exploit.
    pub(crate) fn service(&mut self, sector: u64, count: u64) -> SimDuration {
        let spt = self.params.sectors_per_track;
        let target_track = sector / spt;
        let target_angle = sector % spt;

        let sequential =
            target_track == self.current_track && target_angle == self.angular_sector % spt;

        let mut t = self.params.command_overhead;
        if !sequential {
            let distance = target_track.abs_diff(self.current_track);
            t += self.seek_time(distance);
            t += self.rotation_time(target_angle);
        }
        t += self.transfer_time(count * super::SECTOR_SIZE as u64);

        // Advance state: the head ends after the last sector transferred.
        let end = sector + count;
        self.current_track = end / spt;
        self.angular_sector = end % spt;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DiskModel {
        DiskModel::new(DiskModelParams::cheetah_9gb_10k(), 17_000_000) // ~8.7 GB
    }

    #[test]
    fn sequential_is_much_cheaper_than_random() {
        let mut m = model();
        // Prime position at sector 0.
        m.service(0, 8);
        let seq = m.service(8, 8);
        let mut m2 = model();
        m2.service(0, 8);
        let random = m2.service(9_000_000, 8);
        assert!(
            random.as_micros() > seq.as_micros() * 5,
            "random {random:?} should dwarf sequential {seq:?}"
        );
    }

    #[test]
    fn zero_distance_seek_is_free() {
        let m = model();
        assert_eq!(m.seek_time(0), SimDuration::ZERO);
    }

    #[test]
    fn seek_curve_is_monotonic_and_bounded() {
        let m = model();
        let mut last = SimDuration::ZERO;
        for d in [1u64, 10, 100, 1_000, 10_000, 50_000] {
            let t = m.seek_time(d);
            assert!(t >= last, "seek time must not decrease with distance");
            last = t;
        }
        assert!(m.seek_time(u64::MAX / 2) <= m.params.max_seek);
        assert!(m.seek_time(1) >= m.params.min_seek);
    }

    #[test]
    fn large_sequential_transfer_approaches_media_rate() {
        let mut m = model();
        m.service(0, 1);
        // 1 MB sequential: ~50 ms at 21 MB/s.
        let t = m.service(1, 2048);
        let ms = t.as_millis_f64();
        assert!((40.0..70.0).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn rotation_wraps_correctly() {
        let mut m = model();
        m.service(0, 1); // head now at angular sector 1
                         // Request the sector just behind the head: nearly a full rotation.
        let t = m.service(0, 1);
        assert!(
            t.as_micros()
                >= m.params.rotation.as_micros() * 9 / 10 - m.params.command_overhead.as_micros()
        );
    }

    #[test]
    fn free_model_costs_nothing_but_overhead() {
        let mut m = DiskModel::new(DiskModelParams::free(), 1_000_000);
        assert_eq!(m.service(123_456, 64), SimDuration::ZERO);
    }
}
