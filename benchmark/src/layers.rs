//! Turns the spans of a traced repetition into per-layer times.
//!
//! Self time of a span is its duration minus its children's. Children
//! are found two ways: by `parent` when a layer calls the next on the
//! same thread (translator → transport, drive → device in the lone-drive
//! workload), and by `trace_id` across the TCP hop (client `rpc` →
//! server `handle`). Device calls made on the array's shard-worker
//! threads belong to no request an outside observer can name; they are
//! summed and apportioned per op in aggregate.

use std::collections::HashMap;

use crate::harness::RepOut;
use crate::stats::percentile;
use crate::trace::Span;

/// How a workload's spans nest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `op` → `rpc` (same thread) → `handle` (by trace id); device calls
    /// on worker threads.
    Tcp,
    /// `op` → `dispatch` (same thread); device calls on worker threads.
    Array,
    /// `op` → `dispatch` → `disk.*`, all on one thread.
    Drive,
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn mean(v: impl Iterator<Item = u64>) -> Option<f64> {
    let (mut n, mut sum) = (0u64, 0u64);
    for x in v {
        n += 1;
        sum += x;
    }
    (n > 0).then(|| sum as f64 / n as f64)
}

/// Fills the time-based per-layer metrics of one traced repetition and
/// its layer table (µs per op; the last two rows are the residual no
/// span covers and the mean op latency the rows add up to). Only spans
/// that started inside one of the timed windows `out.windows_ns` count.
pub fn analyze(out: &mut RepOut, shape: Shape) {
    let recorded = std::mem::take(&mut out.spans);
    let windows = out.windows_ns.clone();
    let spans: Vec<&Span> = recorded
        .iter()
        .filter(|s| {
            windows
                .iter()
                .any(|&(t0, t1)| s.start_ns >= t0 && s.start_ns < t1)
        })
        .collect();
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let is_disk = |s: &Span| s.name.starts_with("disk.");
    // Time covered by each span's same-thread children of one kind.
    let children = |kind: &dyn Fn(&Span) -> bool| -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for s in spans.iter().filter(|s| kind(s)) {
            *m.entry(s.parent).or_default() += s.dur_ns();
        }
        m
    };
    let self_ns = |s: &Span, kids: &HashMap<u64, u64>| {
        s.dur_ns()
            .saturating_sub(kids.get(&s.id).copied().unwrap_or(0))
    };

    let disk_ns: u64 = spans
        .iter()
        .filter(|s| is_disk(s))
        .map(|s| s.dur_ns())
        .sum();
    // Per op span in the window, so that every row shares one divisor.
    let ops_f = named("op").count().max(1) as f64;
    let disk_per_op = disk_ns as f64 / ops_f;
    out.set("trace.spans", recorded.len() as f64);
    out.set("simdisk.busy_us_per_op", us(disk_per_op));
    let mut writes: Vec<u64> = named("disk.write").map(|s| s.dur_ns()).collect();
    writes.sort_unstable();
    if let Some(p50) = percentile(&writes, 50.0) {
        out.set("simdisk.write_call_p50_us", us(p50 as f64));
    }

    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    match shape {
        Shape::Tcp => {
            let handle_by_trace: HashMap<u64, u64> = named("handle")
                .filter(|s| s.trace_id != 0)
                .map(|s| (s.trace_id, s.dur_ns()))
                .collect();
            // Per op: the RPCs it made on its own thread, and for each
            // the time the server held it.
            let mut rpc_ns: HashMap<u64, u64> = HashMap::new();
            let mut handled_ns: HashMap<u64, u64> = HashMap::new();
            let mut wire = Vec::new();
            for rpc in named("rpc") {
                let Some(&h) = handle_by_trace.get(&rpc.trace_id) else {
                    continue;
                };
                *rpc_ns.entry(rpc.parent).or_default() += rpc.dur_ns();
                *handled_ns.entry(rpc.parent).or_default() += h;
                wire.push(rpc.dur_ns().saturating_sub(h));
            }
            let of = |m: &HashMap<u64, u64>, op: &Span| m.get(&op.id).copied().unwrap_or(0);
            let s4fs_self = mean(named("op").map(|op| op.dur_ns().saturating_sub(of(&rpc_ns, op))));
            let tcp_per_op = mean(named("op").map(|op| of(&rpc_ns, op) - of(&handled_ns, op)));
            let handle_per_op = mean(named("op").map(|op| of(&handled_ns, op)));
            out.set_opt("s4fs.self_us_per_op", s4fs_self.map(us));
            out.set_opt("tcp.self_us_per_rpc", mean(wire.into_iter()).map(us));
            out.set_opt(
                "array.handle_us_per_rpc",
                mean(named("handle").map(|s| s.dur_ns())).map(us),
            );
            if let (Some(a), Some(b), Some(c)) = (s4fs_self, tcp_per_op, handle_per_op) {
                rows.push(("fs::s4fs self", us(a)));
                rows.push(("fs::tcp self", us(b)));
                rows.push(("array+core (handle - disk)", us((c - disk_per_op).max(0.0))));
                rows.push(("simdisk (FileDisk calls)", us(disk_per_op.min(c))));
            }
        }
        Shape::Array => {
            let dispatch_kids = children(&|s| s.name == "dispatch");
            let inside =
                mean(named("op").map(|op| dispatch_kids.get(&op.id).copied().unwrap_or(0)));
            out.set_opt(
                "array.handle_us_per_rpc",
                mean(named("dispatch").map(|s| s.dur_ns())).map(us),
            );
            if let Some(d) = inside {
                rows.push((
                    "array+core (dispatch - disk)",
                    us((d - disk_per_op).max(0.0)),
                ));
                rows.push(("simdisk (FileDisk calls)", us(disk_per_op.min(d))));
            }
        }
        Shape::Drive => {
            let disk_kids = children(&is_disk);
            // Only the dispatches of client ops: the cleaner's device
            // calls nest under `clean`, not under a dispatch.
            let op_ids: std::collections::HashSet<u64> = named("op").map(|s| s.id).collect();
            let dispatches: Vec<&&Span> = named("dispatch")
                .filter(|s| op_ids.contains(&s.parent))
                .collect();
            let per_op = dispatches.len() as f64 / ops_f;
            let total = mean(dispatches.iter().map(|s| s.dur_ns()));
            let own = mean(dispatches.iter().map(|s| self_ns(s, &disk_kids)));
            if let (Some(total), Some(own)) = (total, own) {
                out.set("core.dispatch_us_per_rpc", us(total));
                out.set("core.self_us_per_rpc", us(own));
                rows.push(("core+journal+lfs self", us(own * per_op)));
                rows.push(("simdisk (FileDisk calls)", us((total - own) * per_op)));
            }
        }
    }
    if let Some(op) = mean(named("op").map(|s| s.dur_ns())) {
        let covered: f64 = rows.iter().map(|r| r.1).sum();
        rows.push(("residual (no span)", us(op) - covered));
        rows.push(("op (mean)", us(op)));
    }
    out.table = rows;
    out.spans = recorded;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, trace_id: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace_id,
            name,
            start_ns: start,
            end_ns: end,
            dev: name.starts_with("disk.").then_some(0),
        }
    }

    #[test]
    fn tcp_shape_splits_an_op_into_its_layers() {
        let mut out = RepOut {
            windows_ns: vec![(0, 200_000)],
            spans: vec![
                // One op of 100 µs: two RPCs of 40 µs, each handled in
                // 10 µs, with 4 µs of device time on a worker thread.
                span(1, 0, 0, "op", 0, 100_000),
                span(2, 1, 71, "rpc", 5_000, 45_000),
                span(3, 1, 72, "rpc", 50_000, 90_000),
                span(10, 0, 71, "handle", 20_000, 30_000),
                span(11, 0, 72, "handle", 60_000, 70_000),
                span(20, 0, 0, "disk.write", 22_000, 26_000),
                // Outside the window: ignored.
                span(30, 0, 0, "op", 500_000, 900_000),
            ],
            ..RepOut::default()
        };
        analyze(&mut out, Shape::Tcp);
        assert_eq!(out.values["s4fs.self_us_per_op"], 20.0);
        assert_eq!(out.values["tcp.self_us_per_rpc"], 30.0);
        assert_eq!(out.values["array.handle_us_per_rpc"], 10.0);
        assert_eq!(out.values["simdisk.busy_us_per_op"], 4.0);
        assert_eq!(out.values["simdisk.write_call_p50_us"], 4.0);
        assert_eq!(out.values["trace.spans"], 7.0);
        let row = |n: &str| out.table.iter().find(|r| r.0 == n).unwrap().1;
        assert_eq!(row("fs::tcp self"), 60.0);
        assert_eq!(row("array+core (handle - disk)"), 16.0);
        assert_eq!(row("residual (no span)"), 0.0);
        assert_eq!(row("op (mean)"), 100.0);
    }

    #[test]
    fn drive_shape_nests_device_calls_under_dispatch() {
        let mut out = RepOut {
            windows_ns: vec![(0, 100_000)],
            spans: vec![
                span(1, 0, 0, "op", 0, 50_000),
                span(2, 1, 0, "dispatch", 1_000, 11_000),
                span(3, 1, 0, "dispatch", 12_000, 48_000),
                span(4, 3, 0, "disk.write", 20_000, 40_000),
                // Cleaner work is not a client op's dispatch.
                span(5, 0, 0, "clean", 60_000, 90_000),
                span(6, 5, 0, "disk.read", 61_000, 71_000),
            ],
            ..RepOut::default()
        };
        analyze(&mut out, Shape::Drive);
        assert_eq!(out.values["core.dispatch_us_per_rpc"], 23.0);
        assert_eq!(out.values["core.self_us_per_rpc"], 13.0);
        assert_eq!(out.values["simdisk.busy_us_per_op"], 30.0);
        let row = |n: &str| out.table.iter().find(|r| r.0 == n).unwrap().1;
        assert_eq!(row("core+journal+lfs self"), 26.0);
        assert_eq!(row("simdisk (FileDisk calls)"), 20.0);
        assert_eq!(row("residual (no span)"), 4.0);
    }
}
