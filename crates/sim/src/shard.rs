//! Sharding of the per-server fan-out.
//!
//! At internet scale (thousands of servers, 10^8+ requests) the runner no
//! longer retains one full [`crate::engine::ServerReport`] per server —
//! two 4096-bin histograms each would pin ~130 MB at N = 2000. Instead the
//! fleet is split into contiguous *shards* of servers; each shard runs its
//! servers sequentially (in server order) and folds each report into one
//! accumulator per shard as soon as the server finishes, keeping only the
//! small per-server summary and timeline that the report itself returns.
//!
//! Determinism contract:
//! * The shard count comes from [`crate::SimConfig::shards`] (defaulting to
//!   `min(n_servers, MAX_DEFAULT_SHARDS)`) — never from the thread count.
//! * Shards are contiguous, balanced server ranges, so concatenating shard
//!   outputs in shard order recovers exact global server order.
//! * Every accumulator is an integer (counters, histogram bins, µs latency
//!   sums) or a max, so folds and merges commute. Results are therefore
//!   bit-identical at any thread count *and* any shard count.

/// Default upper bound on the shard count: enough slices to keep any
/// realistic thread pool busy with good balance, while keeping per-shard
/// accumulator memory (two histograms each) negligible.
pub const MAX_DEFAULT_SHARDS: usize = 64;

/// Split `n_servers` into contiguous, balanced shard ranges.
///
/// `requested = None` uses `min(n_servers, MAX_DEFAULT_SHARDS)`; an explicit
/// request is clamped to `[1, n_servers]`. Every shard is non-empty, sizes
/// differ by at most one, and concatenating the ranges yields `0..n_servers`.
pub fn shard_ranges(n_servers: usize, requested: Option<usize>) -> Vec<std::ops::Range<usize>> {
    if n_servers == 0 {
        return Vec::new();
    }
    let shards = requested
        .unwrap_or(MAX_DEFAULT_SHARDS)
        .clamp(1, n_servers)
        .min(n_servers);
    let base = n_servers / shards;
    let extra = n_servers % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n_servers);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(n: usize, requested: Option<usize>) {
        let ranges = shard_ranges(n, requested);
        // Non-empty, contiguous, covering 0..n exactly.
        let mut next = 0;
        for r in &ranges {
            assert_eq!(r.start, next, "gap before {r:?}");
            assert!(!r.is_empty(), "empty shard {r:?}");
            next = r.end;
        }
        assert_eq!(next, n);
        // Balanced: sizes differ by at most one.
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "unbalanced: {sizes:?}");
    }

    #[test]
    fn default_shard_count_caps_at_fleet_and_max() {
        assert_eq!(shard_ranges(3, None).len(), 3);
        assert_eq!(shard_ranges(64, None).len(), 64);
        assert_eq!(shard_ranges(2000, None).len(), MAX_DEFAULT_SHARDS);
        assert_partition(3, None);
        assert_partition(2000, None);
    }

    #[test]
    fn explicit_request_clamped() {
        assert_eq!(shard_ranges(5, Some(1)).len(), 1);
        assert_eq!(shard_ranges(5, Some(8)).len(), 5);
        assert_eq!(shard_ranges(100, Some(7)).len(), 7);
        assert_partition(5, Some(8));
        assert_partition(100, Some(7));
    }

    #[test]
    fn empty_fleet_has_no_shards() {
        assert!(shard_ranges(0, None).is_empty());
        assert!(shard_ranges(0, Some(4)).is_empty());
    }

    #[test]
    fn ranges_are_independent_of_request_only_in_count() {
        // Same n, different shard counts: each is still a partition.
        for k in 1..=10 {
            assert_partition(23, Some(k));
        }
    }
}
