//! Measurement helpers: a timer that accumulates per-layer time, order
//! statistics, the peak-RSS reading, and the output digest.

use er_core::entity::EntityId;
use er_core::pair::Pair;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Named measurements of one run, in a stable order.
pub type Metrics = BTreeMap<String, f64>;

/// Accumulates wall time per layer name across repeated calls.
#[derive(Default)]
pub struct LayerClock {
    spent: BTreeMap<&'static str, Duration>,
}

impl LayerClock {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *self.spent.entry(layer).or_default() += start.elapsed();
        out
    }

    /// Seconds charged to `layer` (0 when it never ran).
    pub fn seconds(&self, layer: &str) -> f64 {
        self.spent.get(layer).map_or(0.0, Duration::as_secs_f64)
    }
}

/// The median of a sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile by linear interpolation between closest ranks.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Resets the process's peak-RSS mark to its current RSS, so the next
/// [`peak_rss_mib`] reading covers only what runs after this call. Where
/// the kernel refuses, the reading covers the whole (fresh) process, whose
/// set-up before this call is small.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// FNV-1a over the match pairs and clusters of a resolution: equal digests
/// mean equal outputs (up to a 64-bit collision).
pub fn digest(matches: &[Pair], clusters: &[Vec<EntityId>]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(matches.len() as u32);
    for p in matches {
        eat(p.first().0);
        eat(p.second().0);
    }
    eat(clusters.len() as u32);
    for c in clusters {
        eat(c.len() as u32);
        for id in c {
            eat(id.0);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn digest_separates_outputs() {
        let p = Pair::new(EntityId(0), EntityId(1));
        let q = Pair::new(EntityId(0), EntityId(2));
        let c = vec![vec![EntityId(0), EntityId(1)]];
        assert_eq!(digest(&[p], &c), digest(&[p], &c));
        assert_ne!(digest(&[p], &c), digest(&[q], &c));
        assert_ne!(digest(&[p], &c), digest(&[p], &[]));
    }

    #[test]
    fn peak_rss_reads_a_positive_size() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
