//! Order statistics, process memory and host context.

use nbody::direct::accelerations;
use nbody::model::ForceParams;
use nbody::spawn;
use std::time::Instant;

/// Linear-interpolated percentile `p` (0..=100) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Process peak resident set in MiB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host calibration: median of five serial O(n²) force evaluations at a
/// fixed n = 1024 (`nbody::direct::accelerations`), in ms. Recorded next to
/// every result so figures from different hosts can be normalised later.
pub fn host_calib_ms() -> f64 {
    let bodies = spawn::plummer(1024, 1.0, 1.0, 7);
    let fp = ForceParams::default();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(accelerations(std::hint::black_box(&bodies), &fp));
            ms_since(t)
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
