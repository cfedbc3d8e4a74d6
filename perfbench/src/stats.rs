//! Small summary helpers.

use std::time::Duration;

/// The `q`-quantile of `values` by nearest rank on `(len - 1) · q`; zero
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or zero when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// CPU time this process has used, all threads (dead ones included), from
/// `/proc/self/stat`. Clock-tick resolution: 10 ms at Linux's fixed
/// `USER_HZ` of 100, so callers measure spans of seconds.
pub fn process_cpu() -> Duration {
    const USER_HZ: u64 = 100;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, from field 3 (state):
    // utime and stime are fields 14 and 15.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// CPU time the calling thread has used, in nanoseconds, from
/// `/proc/thread-self/schedstat`.
pub fn thread_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    Duration::from_nanos(
        stat.split_whitespace()
            .next()
            .and_then(|ns| ns.parse().ok())
            .unwrap_or(0),
    )
}
