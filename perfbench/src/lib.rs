//! Wall-clock benchmark of the durable BG3 engine.
//!
//! One invocation runs one workload on one seed. With tracing off it
//! reports the end-to-end metrics; with tracing on it runs the same mix
//! once untraced and once through the span-recording decorators, and
//! reports per-layer metrics. See `README.md` for the workloads and the
//! limits that shaped them.

pub mod affinity;
pub mod backend;
pub mod bench;
pub mod layers;
pub mod run;
pub mod store;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every op was answered correctly and no acknowledged write was lost.
    pub correct: bool,
    /// Ops attempted: preloaded inserts plus every client op.
    pub attempted: u64,
    /// Failed ops, wrong answers and acknowledged writes lost.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The single-line JSON form.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a metric without a finite value
            // is a bug in the benchmark, reported as 0 rather than as
            // unparsable output.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile `p` (0..=1) of `samples`, which it sorts.
/// `None` when there are no samples.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Returns the heap's free memory to the OS, then resets the peak
/// resident set size to the current one (Linux `clear_refs` mode 5), so
/// that [`peak_rss_mb`] covers what runs after the call and not memory
/// freed before it. Without the trim, glibc keeps freed heap resident:
/// after a set-up the process held 356 MB, and 64 MB after the trim.
pub fn reset_peak_rss() -> std::io::Result<()> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free heap pages; it takes no
        // pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size of this process in MiB, from `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn report_json_has_the_result_keys() {
        let r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
