//! Operation counters exposed to the benchmarks.
//!
//! Since the observability PR these are backed by [`s4_obs`] registry
//! counters: a drive's `DriveStats` registers each counter as
//! `s4_<name>_total` in its metrics [`Registry`], so the same cells
//! feed both the long-standing `snapshot()` API and the Prometheus text
//! exposition (`S4Drive::metrics_text`). The public API is unchanged.

use s4_obs::{Counter, Registry};

macro_rules! drive_counters {
    ($(($name:ident, $help:expr)),* $(,)?) => {
        /// Live drive counters; cheap to clone (shared cells).
        #[derive(Clone, Default)]
        pub struct DriveStats {
            $($name: Counter,)*
        }

        /// Snapshot of the counters.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub struct StatsSnapshot {
            $(pub $name: u64,)*
        }

        impl DriveStats {
            /// Fresh counters registered as `s4_<name>_total` in
            /// `registry`, so exposition sees every bump.
            pub(crate) fn registered(registry: &Registry) -> Self {
                DriveStats {
                    $($name: registry.counter(
                        concat!("s4_", stringify!($name), "_total"),
                        $help,
                    ),)*
                }
            }

            $(
                #[doc = concat!("Increments `", stringify!($name), "` by `n`.")]
                pub(crate) fn $name(&self, n: u64) {
                    self.$name.add(n);
                }
            )*

            /// Snapshot all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.get(),)*
                }
            }
        }

        impl StatsSnapshot {
            /// Field-wise `self - earlier` (saturating), for measuring
            /// an interval between two snapshots.
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }
        }
    };
}

drive_counters!(
    (requests, "RPC requests dispatched"),
    (denied, "requests rejected (access, bounds, bad args)"),
    (bytes_written, "object payload bytes written"),
    (bytes_read, "object payload bytes read"),
    (
        versions_created,
        "object versions created in the history pool"
    ),
    (time_based_reads, "history reads at an explicit time"),
    (audit_records, "audit records appended"),
    (audit_blocks, "full audit blocks flushed to the log"),
    (
        journal_sectors,
        "journal subsectors packed into log entries"
    ),
    (checkpoints, "object checkpoints written"),
    (
        checkpoint_blocks,
        "blocks written to hold object checkpoints"
    ),
    (expired_blocks, "history blocks expired past the window"),
    (cleaner_relocations, "live blocks relocated by the cleaner"),
    (cleaner_segments, "segments reclaimed by the cleaner"),
    (
        throttle_penalty_us,
        "simulated microseconds of throttle penalty"
    ),
    (syncs, "log flushes (sync points)"),
    (
        commit_blocks,
        "blocks written by log commits, summaries included"
    ),
    (anchors, "recovery anchors written"),
);

impl std::fmt::Debug for DriveStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriveStats")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let s = DriveStats::default();
        let s2 = s.clone();
        s.requests(3);
        s2.requests(1);
        s.bytes_written(4096);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 4);
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.denied, 0);
    }

    #[test]
    fn registered_counters_feed_the_registry() {
        let reg = Registry::new();
        let s = DriveStats::registered(&reg);
        s.requests(2);
        s.syncs(1);
        s.checkpoints(9);
        s.checkpoint_blocks(1);
        s.commit_blocks(2);
        let text = reg.render_prometheus();
        assert!(text.contains("s4_requests_total 2"), "{text}");
        assert!(text.contains("s4_syncs_total 1"));
        assert!(text.contains("s4_checkpoints_total 9"));
        assert!(text.contains("s4_checkpoint_blocks_total 1"));
        assert!(text.contains("s4_commit_blocks_total 2"));
        assert!(text.contains("s4_anchors_total 0"));
    }

    #[test]
    fn snapshot_delta_subtracts_fieldwise() {
        let s = DriveStats::default();
        s.requests(10);
        s.bytes_written(100);
        let a = s.snapshot();
        s.requests(5);
        s.bytes_read(7);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.requests, 5);
        assert_eq!(d.bytes_read, 7);
        assert_eq!(d.bytes_written, 0);
        // Saturating: a reset-or-reordered earlier snapshot never
        // underflows.
        assert_eq!(a.delta(&b).requests, 0);
    }
}
