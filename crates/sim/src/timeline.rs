//! Virtual-time windowed timeline of a simulation run.
//!
//! The engine records every measured request into the [`Tally`] of its
//! virtual-time window (window id = `tick / width`, where `tick` is the
//! request's deterministic per-server stream index, warm-up included — the
//! same key the sampler uses) as well as into its server's tally. Both go
//! through [`Tally::record`], so the windowed counters summed across all
//! windows equal the run-level counters by construction.
//!
//! Each window also keeps the exact latency counts of its served requests
//! in a [`LatencyHistogram`], the type the run and every server use, so a
//! window's quantiles are exact order statistics and never exceed its max.
//!
//! Determinism follows the §9.1 contract: per-server window series are
//! accumulated inside the (embarrassingly parallel) per-server loops and
//! folded into the global timeline at the final merge. Every fold is an
//! integer add (tallies, latency counts) or a max, so the fold order
//! cannot move a bit; the per-server series are kept in ascending server
//! order, so timelines are byte-identical at any thread and shard count.

use crate::metrics::{us_to_ms, Cause, LatencyHistogram, Outcome, Tally};
use cdn_cache::Cache;
use cdn_telemetry::json::escape_into;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One virtual-time window's accounting. Per-server during simulation;
/// the global timeline holds per-window sums across servers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowStats {
    /// The window's measured requests (failed ones included).
    pub tally: Tally,
    /// Latencies of the window's served requests, exact.
    pub latency: LatencyHistogram,
    /// Cache occupancy snapshotted when the window closed.
    pub cache_used_bytes: u64,
    /// Evictions that happened during this window (close − open snapshot).
    pub evictions: u64,
    /// Hottest site of one server's window: `(site, requests on that
    /// server)`. A merged window keeps the hottest per-server pair; it does
    /// not sum a site's requests across servers.
    pub top_site: Option<(u32, u64)>,
}

impl WindowStats {
    /// Mean latency over served requests (0 when none).
    pub fn mean_ms(&self) -> f64 {
        self.latency.mean()
    }

    /// Exact latency quantile, 0 when the window served nothing.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        us_to_ms(self.latency.quantile_us(q))
    }

    /// Largest served latency, 0 when the window served nothing.
    pub fn max_ms(&self) -> f64 {
        self.latency.max()
    }

    /// Fold `other` into `self`: integer adds and maxima, so folds commute.
    pub fn merge(&mut self, other: &Self) {
        self.tally.merge(&other.tally);
        self.latency.merge(&other.latency);
        self.cache_used_bytes += other.cache_used_bytes;
        self.evictions += other.evictions;
        self.top_site = hottest(self.top_site.into_iter().chain(other.top_site));
    }
}

/// The hottest of some `(site, requests)` pairs: the most requests, ties
/// broken toward the lower site id — a total order, so the pick is
/// deterministic whatever order the pairs come in.
fn hottest(sites: impl Iterator<Item = (u32, u64)>) -> Option<(u32, u64)> {
    sites.max_by_key(|&(site, requests)| (requests, Reverse(site)))
}

/// One server's window series, sparse and ascending by window id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerTimeline {
    pub server: usize,
    pub windows: Vec<(u64, WindowStats)>,
}

/// The whole-run timeline: global per-window sums plus the per-server
/// series they were folded from.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Window width in per-server stream ticks.
    pub width: u64,
    /// Global windows, ascending by id; each is the sum of every server's
    /// matching window (occupancy/eviction gauges sum across servers too),
    /// except `top_site`, which is the hottest single server's.
    pub windows: Vec<(u64, WindowStats)>,
    /// Per-server series in ascending server order.
    pub per_server: Vec<ServerTimeline>,
}

impl Timeline {
    /// Fold per-server series (ascending server order — the caller's
    /// responsibility, upheld by the runner's shard-order merge) into the
    /// global timeline.
    pub fn from_per_server(width: u64, per_server: Vec<ServerTimeline>) -> Self {
        let mut merged: BTreeMap<u64, WindowStats> = BTreeMap::new();
        for st in &per_server {
            for (id, w) in &st.windows {
                merged.entry(*id).or_default().merge(w);
            }
        }
        Self {
            width,
            windows: merged.into_iter().collect(),
            per_server,
        }
    }
}

/// The engine's per-server window accumulator: a sparse grid of windows,
/// ascending by id, of which the last is open. Owns the boundary logic:
/// [`Self::roll`] runs at the top of the request loop *before* the request
/// touches the cache, so the occupancy/eviction snapshots of a closing
/// window exclude the first request of the next one.
pub(crate) struct TimelineAcc {
    width: u64,
    windows: Vec<(u64, WindowStats)>,
    /// Transient per-window site tallies; only their deterministic maximum
    /// survives into [`WindowStats::top_site`].
    site_counts: HashMap<u32, u64>,
    /// Cumulative cache evictions when the current window opened.
    evictions_at_open: u64,
}

impl TimelineAcc {
    /// # Panics
    /// Panics unless `width > 0`.
    pub(crate) fn new(width: u64) -> Self {
        assert!(width > 0, "window width must be positive");
        Self {
            width,
            windows: Vec::new(),
            site_counts: HashMap::new(),
            evictions_at_open: 0,
        }
    }

    /// Ensure the window containing `tick` is open, closing the previous
    /// one against the current cache state. Call only for measured ticks,
    /// before the request is resolved.
    ///
    /// # Panics
    /// Panics if `tick` falls in a window before the open one: virtual
    /// time never rewinds.
    pub(crate) fn roll(&mut self, tick: u64, cache: &dyn Cache) {
        let window = tick / self.width;
        match self.windows.last() {
            Some(&(open, _)) if open == window => return,
            Some(&(open, _)) => assert!(open < window, "window ids must be non-decreasing"),
            None => {}
        }
        self.close(cache);
        self.evictions_at_open = cache.stats().evictions;
        self.windows.push((window, WindowStats::default()));
    }

    fn close(&mut self, cache: &dyn Cache) {
        if let Some((_, w)) = self.windows.last_mut() {
            w.cache_used_bytes = cache.used_bytes();
            w.evictions = cache.stats().evictions - self.evictions_at_open;
            w.top_site = hottest(self.site_counts.drain());
        }
    }

    /// Record one measured request for `site` into the open window.
    ///
    /// # Panics
    /// Panics if [`Self::roll`] was never called — the engine rolls before
    /// recording by construction.
    pub(crate) fn record(&mut self, site: u32, outcome: &Outcome) {
        *self.site_counts.entry(site).or_insert(0) += 1;
        let (_, w) = self
            .windows
            .last_mut()
            .expect("roll() opens a window first");
        w.tally.record(outcome);
        if outcome.cause != Cause::Failed {
            w.latency.record(outcome.latency_us);
        }
    }

    /// Close the trailing partial window and hand the series over.
    pub(crate) fn finish(mut self, server: usize, cache: &dyn Cache) -> ServerTimeline {
        self.close(cache);
        ServerTimeline {
            server,
            windows: self.windows,
        }
    }
}

fn push_u64_col(out: &mut String, name: &str, vals: impl Iterator<Item = u64>) {
    let _ = write!(out, "\"{name}\":[");
    for (i, v) in vals.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn push_f64_col(out: &mut String, name: &str, vals: impl Iterator<Item = f64>) {
    let _ = write!(out, "\"{name}\":[");
    for (i, v) in vals.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v:.3}");
    }
    out.push(']');
}

/// Columns shared by the global and per-server sections. `windows` must be
/// ascending by id.
fn push_counter_cols(out: &mut String, windows: &[(u64, WindowStats)]) {
    push_u64_col(out, "windows", windows.iter().map(|(id, _)| *id));
    out.push(',');
    for (i, (name, _)) in Tally::default().counters().into_iter().enumerate() {
        push_u64_col(
            out,
            name,
            windows.iter().map(|(_, w)| w.tally.counters()[i].1),
        );
        out.push(',');
    }
    push_u64_col(
        out,
        "cache_used_bytes",
        windows.iter().map(|(_, w)| w.cache_used_bytes),
    );
    out.push(',');
    push_u64_col(out, "evictions", windows.iter().map(|(_, w)| w.evictions));
    out.push(',');
    push_f64_col(out, "mean_ms", windows.iter().map(|(_, w)| w.mean_ms()));
    out.push(',');
    for (name, q) in [("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99)] {
        push_f64_col(out, name, windows.iter().map(|(_, w)| w.quantile_ms(q)));
        out.push(',');
    }
    push_f64_col(out, "max_ms", windows.iter().map(|(_, w)| w.max_ms()));
}

/// Columnar JSON export of one or more runs' timelines — the
/// `<bin>_timeline.json` artifact. Every value is deterministic: integers,
/// or fixed-precision formats of exactly reproducible floats.
pub fn render_timeline_json(runs: &[(String, Timeline)]) -> String {
    let mut out = String::from("{\n\"runs\": [");
    for (r, (run, tl)) in runs.iter().enumerate() {
        if r > 0 {
            out.push(',');
        }
        out.push_str("\n{\n\"run\": ");
        escape_into(&mut out, run);
        let _ = write!(out, ",\n\"window_width\": {},\n", tl.width);
        push_counter_cols(&mut out, &tl.windows);
        out.push_str(",\n");
        push_u64_col(
            &mut out,
            "top_site",
            // Every recorded window saw at least one request, so a top site
            // always exists; `top_site_requests == 0` marks the degenerate
            // case should one ever appear.
            tl.windows
                .iter()
                .map(|(_, w)| w.top_site.map(|(s, _)| s as u64).unwrap_or(0)),
        );
        out.push_str(",\n");
        push_u64_col(
            &mut out,
            "top_site_requests",
            tl.windows
                .iter()
                .map(|(_, w)| w.top_site.map(|(_, n)| n).unwrap_or(0)),
        );
        out.push_str(",\n\"servers\": [");
        for (i, st) in tl.per_server.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{{\"server\":{},", st.server);
            push_counter_cols(&mut out, &st.windows);
            out.push('}');
        }
        out.push_str("\n]\n}");
    }
    out.push_str("\n]\n}\n");
    out
}

/// CSV twin of the global section of [`render_timeline_json`]: one row per
/// `(run, window)`.
pub fn render_timeline_csv(runs: &[(String, Timeline)]) -> String {
    let mut out = String::from("run,window");
    for (name, _) in Tally::default().counters() {
        let _ = write!(out, ",{name}");
    }
    out.push_str(
        ",mean_ms,p50_ms,p90_ms,p99_ms,max_ms,cache_used_bytes,evictions,top_site,\
         top_site_requests\n",
    );
    for (run, tl) in runs {
        for (id, w) in &tl.windows {
            let _ = write!(out, "{run},{id}");
            for (_, v) in w.tally.counters() {
                let _ = write!(out, ",{v}");
            }
            let (top_site, top_n) = match w.top_site {
                Some((s, n)) => (s.to_string(), n),
                None => (String::new(), 0),
            };
            let _ = writeln!(
                out,
                ",{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{top_site},{top_n}",
                w.mean_ms(),
                w.quantile_ms(0.50),
                w.quantile_ms(0.90),
                w.quantile_ms(0.99),
                w.max_ms(),
                w.cache_used_bytes,
                w.evictions,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::LruCache;

    fn window(requests: u64, failed: u64, latency_each_us: u64) -> WindowStats {
        let mut w = WindowStats::default();
        for i in 0..requests {
            let (cause, latency_us) = if i < failed {
                (Cause::Failed, 0)
            } else {
                (Cause::CacheHit, latency_each_us)
            };
            w.tally.record(&Outcome {
                cause,
                latency_us,
                penalty_us: 0,
                hops: 0,
                bytes: 10,
                from_origin: false,
            });
            if cause != Cause::Failed {
                w.latency.record(latency_us);
            }
        }
        w
    }

    #[test]
    fn merge_sums_counters_and_picks_deterministic_top_site() {
        let mut a = window(10, 2, 20_000);
        a.top_site = Some((3, 7));
        a.cache_used_bytes = 100;
        a.evictions = 4;
        let mut b = window(5, 0, 40_000);
        b.top_site = Some((1, 7));
        b.cache_used_bytes = 50;
        b.evictions = 1;
        a.merge(&b);
        assert_eq!(a.tally.requests(), 15);
        assert_eq!(a.tally.cause.failed.requests, 2);
        assert_eq!(a.latency.count(), 13);
        assert_eq!(a.cache_used_bytes, 150);
        assert_eq!(a.evictions, 5);
        // Equal counts: the lower site id wins, regardless of merge side.
        assert_eq!(a.top_site, Some((1, 7)));
        assert_eq!(a.tally.cause.total_latency_us(), 8 * 20_000 + 5 * 40_000);
        assert_eq!(a.mean_ms(), (8.0 * 20.0 + 5.0 * 40.0) / 13.0);
        // Exact quantiles of the merged latencies: eight 20 ms, five 40 ms.
        let ladder = [a.quantile_ms(0.5), a.quantile_ms(0.99), a.max_ms()];
        assert_eq!(ladder, [20.0, 40.0, 40.0]);
    }

    #[test]
    fn grid_slots_are_sparse_and_ordered() {
        let cache = LruCache::new(0);
        let mut acc = TimelineAcc::new(10);
        for tick in [0, 9, 35] {
            acc.roll(tick, &cache);
            acc.record(0, &hit_outcome());
        }
        let series = acc.finish(4, &cache);
        assert_eq!(series.server, 4);
        let ids: Vec<u64> = series.windows.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 3], "empty windows occupy no space");
        assert_eq!(series.windows[0].1.tally.requests(), 2);
        assert_eq!(series.windows[1].1.tally.requests(), 1);
    }

    fn hit_outcome() -> Outcome {
        Outcome {
            cause: Cause::CacheHit,
            latency_us: 20_000,
            penalty_us: 0,
            hops: 0,
            bytes: 10,
            from_origin: false,
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn grid_rejects_rewinding_windows() {
        let cache = LruCache::new(0);
        let mut acc = TimelineAcc::new(10);
        acc.roll(50, &cache);
        acc.roll(40, &cache);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn grid_rejects_zero_width() {
        let _ = TimelineAcc::new(0);
    }

    #[test]
    fn from_per_server_folds_in_server_order() {
        let s0 = ServerTimeline {
            server: 0,
            windows: vec![(0, window(4, 0, 20_000)), (2, window(2, 0, 40_000))],
        };
        let s1 = ServerTimeline {
            server: 1,
            windows: vec![(1, window(3, 1, 60_000)), (2, window(1, 0, 80_000))],
        };
        let tl = Timeline::from_per_server(8, vec![s0, s1]);
        assert_eq!(tl.width, 8);
        let ids: Vec<u64> = tl.windows.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(tl.windows[2].1.tally.requests(), 3);
        assert_eq!(tl.per_server.len(), 2);
        // Window totals cover every per-server request exactly once.
        let global: u64 = tl.windows.iter().map(|(_, w)| w.tally.requests()).sum();
        let per: u64 = tl
            .per_server
            .iter()
            .flat_map(|s| s.windows.iter().map(|(_, w)| w.tally.requests()))
            .sum();
        assert_eq!(global, per);
    }

    #[test]
    fn json_export_parses_and_carries_columns() {
        let tl = Timeline::from_per_server(
            16,
            vec![ServerTimeline {
                server: 0,
                windows: vec![(0, window(4, 1, 20_000)), (3, window(2, 0, 40_000))],
            }],
        );
        let rendered = render_timeline_json(&[("hybrid".to_string(), tl)]);
        let doc = cdn_telemetry::json::parse(&rendered).expect("timeline JSON parses");
        let runs = doc.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.get("run").unwrap().as_str(), Some("hybrid"));
        assert_eq!(run.get("window_width").unwrap().as_u64(), Some(16));
        let windows = run.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(windows.len(), 2);
        assert_eq!(run.get("requests").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(run.get("p99_ms").unwrap().as_arr().unwrap().len(), 2);
        let servers = run.get("servers").unwrap().as_arr().unwrap();
        assert_eq!(servers.len(), 1);
        assert_eq!(servers[0].get("server").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn csv_export_has_one_row_per_window() {
        let tl = Timeline::from_per_server(
            16,
            vec![ServerTimeline {
                server: 0,
                windows: vec![(0, window(4, 1, 20_000)), (3, window(2, 0, 40_000))],
            }],
        );
        let csv = render_timeline_csv(&[("r1:hybrid".to_string(), tl)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("run,window,requests"));
        assert!(lines[1].starts_with("r1:hybrid,0,4,"));
        assert!(lines[2].starts_with("r1:hybrid,3,2,"));
        // Fixed column count in every row.
        let cols = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == cols));
    }
}
