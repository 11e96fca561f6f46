//! Order statistics, process counters read from `/proc`, and provenance.

use equitls_obs::rng::SplitMix64;
use std::path::Path;
use std::process::Command;

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by linear interpolation between order statistics;
/// 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The distance between the first and third quartiles as a share of the
/// median, with the quartiles computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method). 0 for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mid = median(&sorted);
    if n < 2 || mid == 0.0 {
        return 0.0;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(3) - cut(1)) / mid
}

/// Shuffle `items` in place (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_index(i + 1));
    }
}

/// Clock ticks per second of `/proc/self/stat`'s time fields (Linux's
/// `USER_HZ`, 100 on every mainstream architecture).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of this process, all threads (exited ones
/// included), in seconds: `utime + stime` from `/proc/self/stat`. One
/// tick is 10 ms, about 2 % of the shortest iteration.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields 3 onwards follow
    // its closing parenthesis, so utime (14) and stime (15) are the 12th
    // and 13th after it.
    let mut fields = stat
        .get(stat.rfind(')')? + 1..)?
        .split_whitespace()
        .skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Where a result came from: commit, machine and thread count.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD`, suffixed `-dirty` for uncommitted changes;
    /// `unknown` outside a git checkout.
    pub git_rev: String,
    /// The host name.
    pub hostname: String,
    /// Threads available to this process, as measured.
    pub nproc: usize,
}

impl Provenance {
    /// Measure the provenance of the current directory and machine.
    pub fn measure() -> Self {
        Provenance {
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
            hostname: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map(|h| h.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }
}

fn git_rev() -> Option<String> {
    // Only the checkout's own repository counts, never an enclosing one.
    if !Path::new(".git").exists() {
        return None;
    }
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = run(&["rev-parse", "HEAD"])?;
    let dirty = !run(&["status", "--porcelain", "--untracked-files=no"])?.is_empty();
    Some(if dirty { format!("{rev}-dirty") } else { rev })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(process_cpu_seconds().is_some());
        assert!(peak_rss_kib().is_some_and(|kib| kib > 0));
    }
}
