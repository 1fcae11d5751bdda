//! Windowed (virtual-time) telemetry primitives.
//!
//! This module supplies the building blocks for deterministic time-series
//! metrics: a [`QuantileSketch`] — a bounded-relative-error streaming
//! quantile sketch with a *deterministic* bucket layout — plus a sparkline
//! renderer and an OpenMetrics exporter.
//!
//! ## Determinism contract (extends the crate-level contract)
//!
//! * The sketch maps values to buckets with **pure bit manipulation** on
//!   the IEEE-754 representation — no `ln`/`log2`/`powf`, whose libm
//!   implementations are not guaranteed to round identically across
//!   platforms. Two sketches fed the same multiset of values are equal as
//!   data structures, and merging is integer addition, so sketch state is
//!   identical at any thread count, shard count, or platform.
//!
//! ## Sketch bucket layout
//!
//! Buckets are log-linear base-2: each power-of-two octave is split into
//! `2^SUBBUCKET_BITS = 128` equal-width linear sub-buckets. For a normal
//! positive `f64`, the bucket index is simply the top bits of its IEEE-754
//! representation (`to_bits() >> 45`): the exponent selects the octave and
//! the leading 7 mantissa bits select the sub-bucket. Bucket bounds are
//! exact dyadic floats recovered by the inverse shift, and the reported
//! estimate is the bucket midpoint, giving a guaranteed relative error of
//! at most `2^-8 = 1/256` ([`RELATIVE_ERROR`]). Zero, negative, and
//! subnormal values collapse into a dedicated zero bucket (estimate 0.0).

use std::collections::BTreeMap;

use crate::json::Json;

/// Number of leading mantissa bits used for linear sub-buckets per octave.
const SUBBUCKET_BITS: u32 = 7;
/// Right-shift turning an IEEE-754 bit pattern into a bucket index.
const INDEX_SHIFT: u32 = 52 - SUBBUCKET_BITS;

/// Guaranteed worst-case relative error of [`QuantileSketch::percentile`]:
/// the bucket midpoint is within `value / 256` of every value in the bucket.
pub const RELATIVE_ERROR: f64 = 1.0 / 256.0;

/// Streaming quantile sketch with deterministic log-linear base-2 buckets.
///
/// Records are `O(1)`, merges are integer additions over sparse buckets,
/// and quantile estimates carry a guaranteed relative error bound of
/// [`RELATIVE_ERROR`]. See the module docs for the bucket layout.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Sparse bucket counts keyed by index; ascending key order is
    /// ascending value order because positive IEEE-754 bit patterns are
    /// monotone in the represented value.
    buckets: BTreeMap<i64, u64>,
    /// Count of values below [`f64::MIN_POSITIVE`] (zero/negative/subnormal).
    zero_count: u64,
    /// Total number of recorded values.
    count: u64,
    /// Exact maximum (`f64::max` folds are order-insensitive).
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self {
            buckets: BTreeMap::new(),
            zero_count: 0,
            count: 0,
            max: f64::NEG_INFINITY,
        }
    }
}

impl QuantileSketch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a normal positive value, `None` for the zero bucket.
    #[inline]
    fn index_of(v: f64) -> Option<i64> {
        debug_assert!(v.is_finite(), "sketch values must be finite, got {v}");
        if v < f64::MIN_POSITIVE {
            None
        } else {
            Some((v.to_bits() >> INDEX_SHIFT) as i64)
        }
    }

    /// Midpoint of bucket `index` — an exact dyadic float, so formatting it
    /// is platform-independent.
    #[inline]
    fn estimate_of(index: i64) -> f64 {
        let lo = f64::from_bits((index as u64) << INDEX_SHIFT);
        let hi = f64::from_bits(((index + 1) as u64) << INDEX_SHIFT);
        (lo + hi) / 2.0
    }

    /// Record one value.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        if v > self.max {
            self.max = v;
        }
        match Self::index_of(v) {
            None => self.zero_count += 1,
            Some(i) => *self.buckets.entry(i).or_insert(0) += 1,
        }
    }

    /// Merge another sketch into this one (pure integer addition).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.zero_count += other.zero_count;
        if other.max > self.max {
            self.max = other.max;
        }
        for (i, n) in &other.buckets {
            *self.buckets.entry(*i).or_insert(0) += n;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact maximum recorded value, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) with relative error at
    /// most [`RELATIVE_ERROR`]. Uses the same upper-edge rank convention as
    /// `LatencyHistogram::percentile`: rank `ceil(q·n)` clamped to `[1, n]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zero_count {
            return Some(0.0);
        }
        let mut seen = self.zero_count;
        for (i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(Self::estimate_of(*i));
            }
        }
        // Unreachable when counts are consistent; fall back to the max.
        Some(self.max)
    }
}

/// Render a slice of values as a unicode sparkline (`▁▂▃▄▅▆▇█`).
///
/// Values are scaled against the slice maximum; non-finite or negative
/// values render as the lowest bar. Returns an empty string for an empty
/// slice.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if v.is_nan() || v <= 0.0 || max <= 0.0 {
                BARS[0]
            } else {
                let level = ((v / max) * 7.0).round() as usize;
                BARS[level.min(7)]
            }
        })
        .collect()
}

/// Render a parsed metrics-registry snapshot
/// (`{"counters":…,"gauges":…,"histograms":…}`) as OpenMetrics text.
///
/// Metric names are sanitised to `[a-zA-Z0-9_:]` (dots become
/// underscores), counters gain the mandated `_total` suffix, and histogram
/// buckets are cumulative with `le` labels. Empty fixed bins are elided —
/// cumulative buckets stay correct at every emitted edge — and the
/// exposition ends with `# EOF` per the OpenMetrics spec.
pub fn render_openmetrics(snapshot: &Json) -> Result<String, String> {
    use std::fmt::Write as _;

    fn sanitize(name: &str) -> String {
        name.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    let mut out = String::new();
    for (kind, section) in [("counter", "counters"), ("gauge", "gauges")] {
        let Some(map) = snapshot.get(section).and_then(Json::as_obj) else {
            continue;
        };
        for (name, value) in map {
            let v = value
                .as_f64()
                .ok_or_else(|| format!("{section}.{name}: expected a number"))?;
            let metric = sanitize(name);
            let _ = writeln!(out, "# TYPE {metric} {kind}");
            if kind == "counter" {
                let _ = writeln!(out, "{metric}_total {v}");
            } else {
                let _ = writeln!(out, "{metric} {v}");
            }
        }
    }
    if let Some(map) = snapshot.get("histograms").and_then(Json::as_obj) {
        for (name, h) in map {
            let metric = sanitize(name);
            let bin_width = h
                .get("bin_width")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histograms.{name}: missing bin_width"))?;
            let counts = h
                .get("counts")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("histograms.{name}: missing counts"))?;
            let overflow = h.get("overflow").and_then(Json::as_u64).unwrap_or(0);
            let total = h
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histograms.{name}: missing count"))?;
            let _ = writeln!(out, "# TYPE {metric} histogram");
            let mut cumulative = 0u64;
            for (i, c) in counts.iter().enumerate() {
                let n = c
                    .as_u64()
                    .ok_or_else(|| format!("histograms.{name}: non-integer bin"))?;
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let le = bin_width * (i as f64 + 1.0);
                let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(
                out,
                "{metric}_bucket{{le=\"+Inf\"}} {}",
                cumulative + overflow
            );
            let _ = writeln!(out, "{metric}_count {total}");
        }
    }
    out.push_str("# EOF\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (splitmix64) — no `rand` dep.
    struct Mix(u64);
    impl Mix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn exact_percentile(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        sorted[(rank - 1) as usize]
    }

    #[test]
    fn sketch_respects_relative_error_bound() {
        let mut rng = Mix(7);
        let mut sketch = QuantileSketch::new();
        let mut values = Vec::new();
        for _ in 0..5000 {
            // Latency-shaped values spanning several octaves: 0.1..~2000 ms.
            let v = 0.1 + rng.next_f64() * rng.next_f64() * 2000.0;
            sketch.record(v);
            values.push(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = exact_percentile(&values, q);
            let est = sketch.percentile(q).unwrap();
            assert!(
                (est - exact).abs() <= exact * RELATIVE_ERROR,
                "q={q}: estimate {est} vs exact {exact}"
            );
        }
        assert_eq!(sketch.max(), Some(*values.last().unwrap()));
    }

    #[test]
    fn sketch_handles_zero_and_negative_values() {
        let mut s = QuantileSketch::new();
        for v in [0.0, -1.0, 0.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.percentile(0.5), Some(0.0));
        assert_eq!(
            s.percentile(1.0),
            Some(QuantileSketch::estimate_of(
                QuantileSketch::index_of(5.0).unwrap()
            ))
        );
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn sketch_merge_equals_sequential_feed() {
        let mut rng = Mix(11);
        let mut all = QuantileSketch::new();
        let mut parts = vec![QuantileSketch::new(); 4];
        for i in 0..400 {
            let v = rng.next_f64() * 300.0;
            all.record(v);
            parts[i % 4].record(v);
        }
        // Merge in two different orders; both must equal the sequential feed.
        let mut fwd = QuantileSketch::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = QuantileSketch::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, all);
        assert_eq!(rev, all);
    }

    #[test]
    fn sketch_empty_has_no_percentiles() {
        let s = QuantileSketch::new();
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.max(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[1.0, 4.0, 8.0]), "▂▅█");
    }

    #[test]
    fn openmetrics_renders_snapshot() {
        let doc = crate::json::parse(
            r#"{"counters":{"sim.requests":42},
                "gauges":{"pool.size":3},
                "histograms":{"sim.latency_ms":
                  {"bin_width":1.0,"counts":[0,2,0,3],"overflow":1,"count":6}}}"#,
        )
        .unwrap();
        let out = render_openmetrics(&doc).unwrap();
        assert!(out.contains("# TYPE sim_requests counter"));
        assert!(out.contains("sim_requests_total 42"));
        assert!(out.contains("pool_size 3"));
        assert!(out.contains("sim_latency_ms_bucket{le=\"2\"} 2"));
        assert!(out.contains("sim_latency_ms_bucket{le=\"4\"} 5"));
        assert!(out.contains("sim_latency_ms_bucket{le=\"+Inf\"} 6"));
        assert!(out.contains("sim_latency_ms_count 6"));
        assert!(out.ends_with("# EOF\n"));
    }
}
