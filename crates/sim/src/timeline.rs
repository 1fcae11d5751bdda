//! Virtual-time windowed timeline of a simulation run.
//!
//! The engine buckets its measured-request accounting by virtual-time
//! window (window id = `tick / width`, where `tick` is the request's
//! deterministic per-server stream index, warm-up included — the same key
//! the sampler uses). Every run-level counter in [`crate::SimReport`] has
//! a per-window twin here, updated on exactly the same code path, so the
//! windowed counters summed across all windows equal the run-level
//! counters *exactly* (property-tested in `tests/differential.rs`).
//!
//! Determinism follows the §9.1 contract: per-server window series are
//! accumulated inside the (embarrassingly parallel) per-server loops and
//! folded into the global timeline at the final merge. Every fold is an
//! integer add (counts, µs latency sums, sketch buckets) or a max, so the
//! fold order cannot move a bit; the per-server series are kept in
//! ascending server order, so timelines are byte-identical at any thread
//! and shard count.

use crate::metrics::us_to_ms;
use cdn_cache::Cache;
use cdn_telemetry::json::escape_into;
use cdn_telemetry::{QuantileSketch, WindowGrid};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One virtual-time window's accounting. Per-server during simulation;
/// the global timeline holds per-window sums across servers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowStats {
    /// Measured requests in this window (failed ones included).
    pub requests: u64,
    pub local_requests: u64,
    pub cache_hits: u64,
    pub replica_hits: u64,
    /// Requests coalesced onto an in-flight fetch (delayed hits).
    pub delayed_hits: u64,
    pub origin_fetches: u64,
    pub peer_fetches: u64,
    pub failover_fetches: u64,
    pub failed_requests: u64,
    pub cost_hops: u64,
    pub total_bytes: u64,
    pub origin_bytes: u64,
    /// Latency sum over served (non-failed) requests, µs.
    pub latency_sum_us: u64,
    /// Per-window latency quantiles with a guaranteed relative error of
    /// [`cdn_telemetry::RELATIVE_ERROR`].
    pub sketch: QuantileSketch,
    /// Cache occupancy snapshotted when the window closed.
    pub cache_used_bytes: u64,
    /// Evictions that happened during this window (close − open snapshot).
    pub evictions: u64,
    /// Hottest site of the window: `(site, requests)`, ties broken toward
    /// the lower site id — a total order, so the result is deterministic.
    pub top_site: Option<(u32, u64)>,
}

impl WindowStats {
    /// Served (non-failed) requests — the latency population.
    pub fn served(&self) -> u64 {
        self.requests - self.failed_requests
    }

    /// Mean latency over served requests (0 when none).
    pub fn mean_ms(&self) -> f64 {
        if self.served() == 0 {
            0.0
        } else {
            us_to_ms(self.latency_sum_us) / self.served() as f64
        }
    }

    /// Sketch quantile, 0 when the window served nothing.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.sketch.percentile(q).unwrap_or(0.0)
    }

    /// Largest served latency, 0 when the window served nothing.
    pub fn max_ms(&self) -> f64 {
        self.sketch.max().unwrap_or(0.0)
    }

    /// Fold `other` into `self`: integer adds and maxima, so folds commute.
    pub fn merge(&mut self, other: &Self) {
        self.requests += other.requests;
        self.local_requests += other.local_requests;
        self.cache_hits += other.cache_hits;
        self.replica_hits += other.replica_hits;
        self.delayed_hits += other.delayed_hits;
        self.origin_fetches += other.origin_fetches;
        self.peer_fetches += other.peer_fetches;
        self.failover_fetches += other.failover_fetches;
        self.failed_requests += other.failed_requests;
        self.cost_hops += other.cost_hops;
        self.total_bytes += other.total_bytes;
        self.origin_bytes += other.origin_bytes;
        self.latency_sum_us += other.latency_sum_us;
        self.sketch.merge(&other.sketch);
        self.cache_used_bytes += other.cache_used_bytes;
        self.evictions += other.evictions;
        self.top_site = match (self.top_site, other.top_site) {
            (None, b) => b,
            (a, None) => a,
            (Some(a), Some(b)) => Some(if b.1 > a.1 || (b.1 == a.1 && b.0 < a.0) {
                b
            } else {
                a
            }),
        };
    }
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
    /// matching window (occupancy/eviction gauges sum across servers too).
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

/// The engine's per-server window accumulator. Owns the boundary logic:
/// [`Self::roll`] runs at the top of the request loop *before* the request
/// touches the cache, so the occupancy/eviction snapshots of a closing
/// window exclude the first request of the next one.
pub(crate) struct TimelineAcc {
    grid: WindowGrid<WindowStats>,
    /// Transient per-window site tallies; only their deterministic maximum
    /// survives into [`WindowStats::top_site`].
    site_counts: HashMap<u32, u64>,
    /// Cumulative cache evictions when the current window opened.
    evictions_at_open: u64,
}

impl TimelineAcc {
    pub(crate) fn new(width: u64) -> Self {
        Self {
            grid: WindowGrid::new(width),
            site_counts: HashMap::new(),
            evictions_at_open: 0,
        }
    }

    /// Ensure the window containing `tick` is open, closing the previous
    /// one against the current cache state. Call only for measured ticks,
    /// before the request is resolved.
    pub(crate) fn roll(&mut self, tick: u64, cache: &dyn Cache) {
        let window = self.grid.window_of(tick);
        if self.grid.last_id() == Some(window) {
            return;
        }
        self.close(cache);
        self.evictions_at_open = cache.stats().evictions;
        self.grid.slot(window);
    }

    fn close(&mut self, cache: &dyn Cache) {
        if let Some((_, w)) = self.grid.last_mut() {
            w.cache_used_bytes = cache.used_bytes();
            w.evictions = cache.stats().evictions - self.evictions_at_open;
            let mut top: Option<(u32, u64)> = None;
            for (&site, &n) in &self.site_counts {
                top = match top {
                    None => Some((site, n)),
                    Some(t) if n > t.1 || (n == t.1 && site < t.0) => Some((site, n)),
                    t => t,
                };
            }
            w.top_site = top;
            self.site_counts.clear();
        }
    }

    pub(crate) fn tally_site(&mut self, site: u32) {
        *self.site_counts.entry(site).or_insert(0) += 1;
    }

    /// The open window. Panics if [`Self::roll`] was never called — the
    /// engine rolls before recording by construction.
    pub(crate) fn current(&mut self) -> &mut WindowStats {
        &mut self.grid.last_mut().expect("roll() opens a window first").1
    }

    /// Close the trailing partial window and hand the series over.
    pub(crate) fn finish(mut self, server: usize, cache: &dyn Cache) -> ServerTimeline {
        self.close(cache);
        ServerTimeline {
            server,
            windows: self.grid.into_windows(),
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
    for (name, get) in [
        (
            "requests",
            (|w: &WindowStats| w.requests) as fn(&WindowStats) -> u64,
        ),
        ("local_requests", |w| w.local_requests),
        ("cache_hits", |w| w.cache_hits),
        ("replica_hits", |w| w.replica_hits),
        ("delayed_hits", |w| w.delayed_hits),
        ("origin_fetches", |w| w.origin_fetches),
        ("peer_fetches", |w| w.peer_fetches),
        ("failover_fetches", |w| w.failover_fetches),
        ("failed_requests", |w| w.failed_requests),
        ("cost_hops", |w| w.cost_hops),
        ("total_bytes", |w| w.total_bytes),
        ("origin_bytes", |w| w.origin_bytes),
        ("cache_used_bytes", |w| w.cache_used_bytes),
        ("evictions", |w| w.evictions),
    ] {
        push_u64_col(out, name, windows.iter().map(|(_, w)| get(w)));
        out.push(',');
    }
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
    let mut out = String::from(
        "run,window,requests,local_requests,cache_hits,replica_hits,delayed_hits,\
         origin_fetches,peer_fetches,failover_fetches,failed_requests,cost_hops,total_bytes,\
         origin_bytes,mean_ms,p50_ms,p90_ms,p99_ms,max_ms,cache_used_bytes,evictions,top_site,\
         top_site_requests\n",
    );
    for (run, tl) in runs {
        for (id, w) in &tl.windows {
            let (top_site, top_n) = match w.top_site {
                Some((s, n)) => (s.to_string(), n),
                None => (String::new(), 0),
            };
            let _ = writeln!(
                out,
                "{run},{id},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{top_site},{top_n}",
                w.requests,
                w.local_requests,
                w.cache_hits,
                w.replica_hits,
                w.delayed_hits,
                w.origin_fetches,
                w.peer_fetches,
                w.failover_fetches,
                w.failed_requests,
                w.cost_hops,
                w.total_bytes,
                w.origin_bytes,
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

    fn window(requests: u64, failed: u64, latency_each_us: u64) -> WindowStats {
        let mut w = WindowStats {
            requests,
            failed_requests: failed,
            ..Default::default()
        };
        for _ in 0..(requests - failed) {
            w.latency_sum_us += latency_each_us;
            w.sketch.record(us_to_ms(latency_each_us));
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
        assert_eq!(a.requests, 15);
        assert_eq!(a.failed_requests, 2);
        assert_eq!(a.served(), 13);
        assert_eq!(a.cache_used_bytes, 150);
        assert_eq!(a.evictions, 5);
        // Equal counts: the lower site id wins, regardless of merge side.
        assert_eq!(a.top_site, Some((1, 7)));
        assert_eq!(a.latency_sum_us, 8 * 20_000 + 5 * 40_000);
        assert_eq!(a.mean_ms(), (8.0 * 20.0 + 5.0 * 40.0) / 13.0);
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
        assert_eq!(tl.windows[2].1.requests, 3);
        assert_eq!(tl.per_server.len(), 2);
        // Window totals cover every per-server request exactly once.
        let global: u64 = tl.windows.iter().map(|(_, w)| w.requests).sum();
        let per: u64 = tl
            .per_server
            .iter()
            .flat_map(|s| s.windows.iter().map(|(_, w)| w.requests))
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
