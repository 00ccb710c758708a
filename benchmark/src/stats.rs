//! Order statistics the ledger reports: nearest-rank percentiles, the
//! five-segment throughput median, and the FNV hash that fingerprints
//! scripts and answers.

use std::hash::Hasher;

/// How many equal-count slices of the timed window `qps` is the median
/// over — one scheduler hiccup lands in one slice and cannot move it.
pub const SEGMENTS: usize = 5;

/// Nearest-rank percentile of an ascending sample set; `p` is a
/// fraction (`0.95` = p95). `0` with no samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Median of a value list (mean of the middle two for even counts);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a value list; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, `0.0` when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Throughput as the median over [`SEGMENTS`] equal-count slices of a
/// window: `done_ns` holds every completion time (ascending, ns since
/// the window opened); slice `i` ran from the previous slice's last
/// completion to its own, and contributes `count / duration`. Returns
/// operations per second, `0.0` with fewer completions than slices.
pub fn segment_median_rate(done_ns: &[u64]) -> f64 {
    let n = done_ns.len();
    if n < SEGMENTS {
        return 0.0;
    }
    let mut rates = Vec::with_capacity(SEGMENTS);
    let mut prev_end = 0usize;
    let mut prev_time = 0u64;
    for s in 1..=SEGMENTS {
        let end = n * s / SEGMENTS;
        let time = done_ns[end - 1];
        let elapsed = time.saturating_sub(prev_time).max(1);
        rates.push((end - prev_end) as f64 * 1e9 / elapsed as f64);
        prev_end = end;
        prev_time = time;
    }
    median(&rates)
}

/// `|a - b|` as a share of their mean — the symmetric disagreement
/// `--repeat` holds against a metric's bound.
pub fn relative_difference(a: f64, b: f64) -> f64 {
    ratio((a - b).abs(), (a.abs() + b.abs()) / 2.0)
}

/// FNV-1a, 64 bit — as a [`Hasher`], so anything `Hash` (query texts,
/// tagged tuples) folds into a value that is the same on every run,
/// process and machine.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.95), 95);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&s, 1.0), 100);
        // Nearest rank never interpolates: p50 of four samples is the
        // second, not the mean of the middle two.
        assert_eq!(percentile(&[10, 20, 30, 40], 0.50), 20);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn five_segment_median_ignores_one_stall() {
        // 100 completions, one every millisecond: 1000/s in every slice.
        let steady: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert!((segment_median_rate(&steady) - 1000.0).abs() < 1e-6);
        // The same run with a 500 ms stall inside the second slice: the
        // whole-window mean drops to ~167/s, the segment median does not
        // move.
        let stalled: Vec<u64> = (1..=100u64)
            .map(|i| i * 1_000_000 + if i > 30 { 500_000_000 } else { 0 })
            .collect();
        assert!((segment_median_rate(&stalled) - 1000.0).abs() < 1e-6);
        let whole = 100.0 * 1e9 / *stalled.last().unwrap() as f64;
        assert!(whole < 200.0);
        assert_eq!(segment_median_rate(&[1, 2, 3]), 0.0);
    }

    #[test]
    fn relative_difference_is_symmetric() {
        assert!((relative_difference(100.0, 110.0) - 10.0 / 105.0).abs() < 1e-12);
        assert_eq!(
            relative_difference(100.0, 110.0),
            relative_difference(110.0, 100.0)
        );
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
