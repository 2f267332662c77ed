//! Process-level measurements read from `/proc`. Every reader returns
//! `None` where `/proc` is absent or unparsable, and the metric built
//! on it is then reported as `null` instead of failing the run.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which the kernel
/// ABI fixes at 100 per second on every architecture Rust targets.
const USER_HZ: u64 = 100;

/// User + system CPU time of this process so far, in microseconds
/// (`/proc/self/stat` fields 14 and 15; 10 ms resolution).
pub fn cpu_us() -> Option<u64> {
    parse_stat_cpu_us(&fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    // The command name (field 2) may contain spaces and parentheses;
    // fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3, so fields 14 and 15 are at offsets 11, 12.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000 / USER_HZ))
}

fn status_field_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status_field_kb(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Voluntary context switches summed over the live threads of this
/// process. Threads that have exited take their counts with them, so
/// read it while the workers under measurement are still running.
pub fn voluntary_ctx_switches() -> Option<u64> {
    let mut total = 0;
    for task in fs::read_dir("/proc/self/task").ok()? {
        let status = fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        total += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
            .trim()
            .parse::<u64>()
            .ok()?;
    }
    Some(total)
}

/// `(stolen, total)` CPU ticks of the whole machine so far, from the
/// first line of `/proc/stat`: time the hypervisor ran someone else
/// while a vCPU here wanted to run, and all time accounted. A timed
/// window with a large stolen share was measured on a machine that was
/// not this benchmark's alone.
pub fn machine_ticks() -> Option<(u64, u64)> {
    parse_machine_ticks(&fs::read_to_string("/proc/stat").ok()?)
}

fn parse_machine_ticks(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user and nice.
    let stolen = *fields.get(7)?;
    Some((stolen, fields.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "1234 (a b) c)) S 1 1 1 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 1 1 1";
        assert_eq!(parse_stat_cpu_us(stat), Some(3_000_000));
        assert_eq!(parse_stat_cpu_us("garbage"), None);
        assert_eq!(parse_stat_cpu_us("1 (x) S 1 2"), None);
    }

    #[test]
    fn machine_ticks_reads_the_steal_column() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_machine_ticks(stat), Some((35, 1000)));
        assert_eq!(parse_machine_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_machine_ticks("intr 5\n"), None);
    }

    #[test]
    fn status_field_parses_kb() {
        let status = "Name:\tbench\nVmHWM:\t  204800 kB\nThreads:\t3\n";
        assert_eq!(status_field_kb(status, "VmHWM:"), Some(204800));
        assert_eq!(status_field_kb(status, "VmRSS:"), None);
    }

    #[test]
    fn readers_agree_with_a_live_proc_when_there_is_one() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(cpu_us().is_some());
            assert!(peak_rss_mb().unwrap() > 0.0);
            assert!(voluntary_ctx_switches().is_some());
            assert!(machine_ticks().is_some());
        } else {
            assert_eq!(cpu_us(), None);
            assert_eq!(peak_rss_mb(), None);
            assert_eq!(voluntary_ctx_switches(), None);
            assert_eq!(machine_ticks(), None);
        }
    }
}
