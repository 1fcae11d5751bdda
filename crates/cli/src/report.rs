//! `hybrid-cdn report` — render the observability artifacts the bench
//! harness and simulator emit (metrics snapshots, wall-clock profiles,
//! sampled request paths, deterministic traces) as human-readable
//! latency-attribution tables.
//!
//! Everything here is read-only post-processing: the command never runs a
//! simulation, it only parses files produced by earlier runs.

use cdn_cli::args::{Args, Table};
use cdn_telemetry::json::{self, Json};
use cdn_telemetry::timeline::{render_openmetrics, sparkline};
use std::fmt::Write as _;

/// The flags of `hybrid-cdn report`.
pub const FLAGS: Table = &[&[
    "--metrics <path>  a metrics snapshot JSON to attribute",
    "--profile <path>  a wall-clock Chrome trace profile",
    "--samples <path>  sampled request paths (JSONL)",
    "--trace <path>  a JSONL span/event trace",
    "--timeline <path>  a windowed timeline JSON",
    "--top <n>  rows in each ranked table (default 10)",
    "--format <name>  text | json | openmetrics (default text)",
]];

/// Fixed cause order — mirrors `cdn_sim::Cause::ALL` so tables line up
/// with the simulator's own accounting.
const CAUSES: &[&str] = &[
    "replica_hit",
    "cache_hit",
    "delayed_hit",
    "remote_replica",
    "origin_fetch",
    "failover",
    "failed",
];

pub fn report(a: &Args) -> Result<(), String> {
    let top = a.get_u64("top", 10)? as usize;
    if top == 0 {
        return Err("--top must be at least 1".into());
    }
    let format = a.get("format").unwrap_or("text");
    if format != "text" {
        let text_only = ["profile", "samples", "trace", "timeline", "top"];
        if let Some(flag) = text_only.into_iter().find(|f| a.has(f)) {
            return Err(format!(
                "--format {format} renders only --metrics; --{flag} needs --format text"
            ));
        }
    }
    match format {
        "text" => {}
        "json" => {
            let path = a
                .get("metrics")
                .ok_or("--format json needs --metrics FILE")?;
            print!("{}", metrics_json(&load_json(path)?, path)?);
            return Ok(());
        }
        "openmetrics" => {
            let path = a
                .get("metrics")
                .ok_or("--format openmetrics needs --metrics FILE")?;
            print!("{}", render_openmetrics(&load_json(path)?)?);
            return Ok(());
        }
        other => {
            return Err(format!(
                "unknown --format '{other}' (text | json | openmetrics)"
            ))
        }
    }
    let mut sections = Vec::new();
    if let Some(path) = a.get("metrics") {
        sections.push(metrics_section(&load_json(path)?, path)?);
    }
    if let Some(path) = a.get("profile") {
        sections.push(profile_section(&load_json(path)?, path, top)?);
    }
    if let Some(path) = a.get("samples") {
        sections.push(samples_section(&load_text(path)?, path, top)?);
    }
    if let Some(path) = a.get("trace") {
        sections.push(trace_section(&load_text(path)?, path, top)?);
    }
    if let Some(path) = a.get("timeline") {
        sections.push(timeline_section(&load_json(path)?, path, top)?);
    }
    if sections.is_empty() {
        return Err(
            "report needs at least one input: --metrics, --profile, --samples, --trace, or --timeline"
                .into(),
        );
    }
    print!("{}", sections.join("\n"));
    Ok(())
}

fn load_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn load_json(path: &str) -> Result<Json, String> {
    json::parse(&load_text(path)?).map_err(|e| format!("parsing {path}: {e}"))
}

/// One row of the latency-attribution table.
struct CauseRow {
    cause: &'static str,
    requests: u64,
    latency_ms: f64,
    /// Mean latency of the cause's requests, 0 when it has none.
    mean_ms: f64,
}

/// What `report --metrics` shows of a snapshot, read once and rendered by
/// [`metrics_section`] (text) or [`metrics_json`] (`--format json`).
struct Attribution {
    /// Whether the snapshot has any `sim.cause.*` counter at all.
    has_causes: bool,
    /// One row per cause, in [`CAUSES`] order.
    rows: Vec<CauseRow>,
    /// Requests over every cause, and their summed latency, µs.
    total: u64,
    total_latency_us: u64,
    /// The retry penalty inside the failover row, ms.
    surcharge_ms: Option<f64>,
    /// `sim.requests_measured`, which the causes must sum to.
    measured: Option<u64>,
    /// Planner candidates `(evaluated, skipped lazily)`.
    planner: Option<(u64, u64)>,
    ladder: Option<Ladder>,
}

impl Attribution {
    fn of(doc: &Json, path: &str) -> Result<Self, String> {
        let counters = doc
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: no \"counters\" object — not a metrics snapshot"))?;
        let get = |name: &str| counters.get(name).and_then(Json::as_u64);
        let requests = |c: &str| get(&format!("sim.cause.{c}"));
        let latency_us = |c: &str| get(&format!("sim.cause.{c}_latency_us"));
        let rows = CAUSES
            .iter()
            .map(|&cause| {
                let requests = requests(cause).unwrap_or(0);
                let latency_ms = latency_us(cause).unwrap_or(0) as f64 / 1000.0;
                let mean_ms = if requests > 0 {
                    latency_ms / requests as f64
                } else {
                    0.0
                };
                CauseRow {
                    cause,
                    requests,
                    latency_ms,
                    mean_ms,
                }
            })
            .collect();
        Ok(Self {
            has_causes: CAUSES.iter().any(|c| requests(c).is_some()),
            rows,
            total: CAUSES.iter().filter_map(|c| requests(c)).sum(),
            total_latency_us: CAUSES.iter().filter_map(|c| latency_us(c)).sum(),
            surcharge_ms: get("sim.cause.failover_surcharge_us").map(|us| us as f64 / 1000.0),
            measured: get("sim.requests_measured"),
            planner: get("placement.candidates_evaluated").map(|evaluated| {
                let skipped = get("placement.candidates_skipped_lazy").unwrap_or(0);
                (evaluated, skipped)
            }),
            ladder: doc
                .get("histograms")
                .and_then(|hs| hs.get("sim.latency_ms"))
                .and_then(Ladder::of),
        })
    }
}

/// Latency attribution + percentile ladder from a metrics snapshot
/// (`results/<bin>_metrics.json` or `--metrics-out`).
fn metrics_section(doc: &Json, path: &str) -> Result<String, String> {
    let a = Attribution::of(doc, path)?;
    let mut out = String::new();
    let _ = writeln!(out, "== latency attribution ({path}) ==");
    if !a.has_causes {
        let _ = writeln!(
            out,
            "  no sim.cause.* counters — the snapshot predates attribution or no simulation ran"
        );
    } else {
        let total = a.total;
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>8} {:>14} {:>10}",
            "cause", "requests", "share", "latency_ms", "mean_ms"
        );
        for row in &a.rows {
            let share = if total > 0 {
                100.0 * row.requests as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {share:>7.2}% {:>14.1} {:>10.3}",
                row.cause, row.requests, row.latency_ms, row.mean_ms
            );
        }
        let total_ms = a.total_latency_us as f64 / 1000.0;
        let _ = writeln!(
            out,
            "  {:<16} {total:>12} {:>7.2}% {total_ms:>14.1}",
            "total", 100.0
        );
        if let Some(ms) = a.surcharge_ms {
            let _ = writeln!(out, "  retry penalty inside failover rows: {ms:.1} ms");
        }
        match a.measured {
            Some(measured) if measured == total => {
                let _ = writeln!(
                    out,
                    "  cross-check: causes sum to sim.requests_measured ({measured}) — OK"
                );
            }
            Some(measured) => {
                let _ = writeln!(
                    out,
                    "  cross-check: causes sum to {total} but sim.requests_measured is {measured} — MISMATCH"
                );
            }
            None => {}
        }
    }
    if let Some((evaluated, skipped)) = a.planner {
        let dense = evaluated + skipped;
        let ratio = if evaluated > 0 {
            dense as f64 / evaluated as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  planner: {evaluated} candidates evaluated, {skipped} skipped lazily \
             ({ratio:.1}x fewer than a dense scan)"
        );
    }
    if let Some(ladder) = &a.ladder {
        let _ = writeln!(
            out,
            "  request latency percentiles ({} requests):",
            ladder.total
        );
        let _ = write!(out, "   ");
        for (label, edge) in ladder.rungs {
            let rendered = edge.map_or("overflow".into(), |ms| format!("{ms:.1} ms"));
            let _ = write!(out, "  {label} {rendered}");
        }
        out.push('\n');
        if ladder.overflow > 0 {
            let _ = writeln!(
                out,
                "  {} request(s) beyond the last histogram bin ({:.0} ms)",
                ladder.overflow, ladder.range_ms
            );
        }
    }
    Ok(out)
}

/// Machine-readable twin of [`metrics_section`] (`--format json`): the
/// cause-attribution table plus the percentile ladder as one JSON object.
fn metrics_json(doc: &Json, path: &str) -> Result<String, String> {
    let a = Attribution::of(doc, path)?;
    let total = a.total;
    let mut out = String::from("{\n\"causes\": [");
    for (i, row) in a.rows.iter().enumerate() {
        let share = if total > 0 {
            row.requests as f64 / total as f64
        } else {
            0.0
        };
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"cause\": \"{}\", \"requests\": {}, \"share\": {share:.6}, \
             \"latency_ms\": {:.3}, \"mean_ms\": {:.3}}}",
            row.cause, row.requests, row.latency_ms, row.mean_ms
        );
    }
    let _ = write!(out, "\n],\n\"causes_total\": {total}");
    if let Some(ms) = a.surcharge_ms {
        let _ = write!(out, ",\n\"failover_surcharge_ms\": {ms:.3}");
    }
    if let Some(measured) = a.measured {
        let _ = write!(
            out,
            ",\n\"requests_measured\": {measured},\n\"cross_check\": \"{}\"",
            if measured == total { "ok" } else { "mismatch" }
        );
    }
    if let Some(ladder) = &a.ladder {
        let rungs: Vec<String> = ladder
            .rungs
            .iter()
            .map(|(label, edge)| {
                let rendered = edge.map_or("null".into(), |ms| format!("{ms:.1}"));
                format!("\"{label}\": {rendered}")
            })
            .collect();
        let _ = write!(out, ",\n\"percentiles_ms\": {{{}}}", rungs.join(", "));
    }
    out.push_str("\n}\n");
    Ok(out)
}

/// p50/p90/p95/p99 of the `sim.latency_ms` registry histogram
/// (`{"bin_width": w, "counts": [...], "overflow": o, "count": n}`).
struct Ladder {
    /// Requests in the histogram, and those past its last bin.
    total: u64,
    overflow: u64,
    /// Upper edge of the binned range, ms.
    range_ms: f64,
    /// Each percentile's value: the upper edge of the bin its rank falls in
    /// (as `LatencyHistogram::percentile` reads it), `None` past the last
    /// bin.
    rungs: [(&'static str, Option<f64>); 4],
}

impl Ladder {
    /// `None` when the histogram is malformed or empty.
    fn of(h: &Json) -> Option<Self> {
        let bin_width = h.get("bin_width").and_then(Json::as_f64)?;
        let counts: Vec<u64> = h
            .get("counts")
            .and_then(Json::as_arr)?
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        let overflow = h.get("overflow").and_then(Json::as_u64).unwrap_or(0);
        let total: u64 = counts.iter().sum::<u64>() + overflow;
        if total == 0 {
            return None;
        }
        let rung = |p: f64| {
            let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            counts.iter().position(|&c| {
                seen += c;
                seen >= rank
            })
        };
        let edge = |p| rung(p).map(|b| (b as f64 + 1.0) * bin_width);
        Some(Self {
            total,
            overflow,
            range_ms: bin_width * counts.len() as f64,
            rungs: [
                ("p50", edge(0.50)),
                ("p90", edge(0.90)),
                ("p95", edge(0.95)),
                ("p99", edge(0.99)),
            ],
        })
    }
}

/// Per-phase self-time table from a `--profile-out` Chrome trace (the
/// `phaseSummary` key Perfetto ignores).
fn profile_section(doc: &Json, path: &str, top: usize) -> Result<String, String> {
    let phases = doc
        .get("phaseSummary")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"phaseSummary\" array — not a cdn profile"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== wall-clock phases, top {top} by self time ({path}) =="
    );
    if phases.is_empty() {
        let _ = writeln!(out, "  no spans recorded");
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "  {:<28} {:>8} {:>12} {:>12} {:>12}",
        "phase", "count", "total_ms", "self_ms", "max_ms"
    );
    // `phaseSummary` is already ordered by self time, descending.
    for p in phases.iter().take(top) {
        let name = p.get("name").and_then(Json::as_str).unwrap_or("?");
        let count = p.get("count").and_then(Json::as_u64).unwrap_or(0);
        let us = |k: &str| p.get(k).and_then(Json::as_f64).unwrap_or(0.0) / 1000.0;
        let _ = writeln!(
            out,
            "  {name:<28} {count:>8} {:>12.3} {:>12.3} {:>12.3}",
            us("total_us"),
            us("self_us"),
            us("max_us")
        );
    }
    let _ = writeln!(
        out,
        "  (open {path} in chrome://tracing or https://ui.perfetto.dev for the timeline)"
    );
    Ok(out)
}

/// Cause mix and slowest requests from a `<bin>_samples.jsonl` file.
fn samples_section(body: &str, path: &str, top: usize) -> Result<String, String> {
    let mut by_cause: Vec<(String, u64, f64)> = Vec::new();
    let mut slowest: Vec<(f64, String)> = Vec::new();
    let mut n = 0u64;
    for (lineno, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let cause = doc
            .get("cause")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: sample without a \"cause\"", lineno + 1))?;
        let latency = doc.get("latency_ms").and_then(Json::as_f64).unwrap_or(0.0);
        n += 1;
        match by_cause.iter_mut().find(|(c, _, _)| c == cause) {
            Some((_, count, ms)) => {
                *count += 1;
                *ms += latency;
            }
            None => by_cause.push((cause.to_string(), 1, latency)),
        }
        let brief = format!(
            "{:>10.1} ms  {:<14} run {} server {} index {} hops {}",
            latency,
            cause,
            doc.get("run").and_then(Json::as_str).unwrap_or("?"),
            doc.get("server").and_then(Json::as_u64).unwrap_or(0),
            doc.get("index").and_then(Json::as_u64).unwrap_or(0),
            doc.get("hops").and_then(Json::as_u64).unwrap_or(0),
        );
        slowest.push((latency, brief));
    }
    let mut out = String::new();
    let _ = writeln!(out, "== sampled requests ({n} samples, {path}) ==");
    if n == 0 {
        let _ = writeln!(out, "  no samples — was --sample-every passed to the run?");
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "  {:<16} {:>10} {:>8} {:>10}",
        "cause", "samples", "share", "mean_ms"
    );
    by_cause.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (cause, count, ms) in &by_cause {
        let _ = writeln!(
            out,
            "  {cause:<16} {count:>10} {:>7.2}% {:>10.3}",
            100.0 * *count as f64 / n as f64,
            ms / *count as f64
        );
    }
    let _ = writeln!(out, "  slowest {}:", top.min(slowest.len()));
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (_, brief) in slowest.iter().take(top) {
        let _ = writeln!(out, "  {brief}");
    }
    Ok(out)
}

/// Span/event tallies from the deterministic JSONL trace.
fn trace_section(body: &str, path: &str, top: usize) -> Result<String, String> {
    let (mut enters, mut events, mut exits) = (0u64, 0u64, 0u64);
    let mut names: Vec<(String, u64)> = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        match doc.get("type").and_then(Json::as_str) {
            Some("enter") => enters += 1,
            Some("event") => events += 1,
            Some("exit") => exits += 1,
            other => return Err(format!("{path}:{}: bad record type {other:?}", lineno + 1)),
        }
        if let Some(name) = doc.get("name").and_then(Json::as_str) {
            match names.iter_mut().find(|(n, _)| n == name) {
                Some((_, c)) => *c += 1,
                None => names.push((name.to_string(), 1)),
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== deterministic trace ({path}) ==");
    let _ = writeln!(
        out,
        "  {} records: {enters} span enters, {events} events, {exits} span exits",
        enters + events + exits
    );
    names.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (name, count) in names.iter().take(top) {
        let _ = writeln!(out, "  {name:<28} {count:>10}");
    }
    Ok(out)
}

/// Per-window sparklines plus a per-server hotspot table from a windowed
/// timeline export (`<bin>_timeline.json` or `--timeline-out`).
fn timeline_section(doc: &Json, path: &str, top: usize) -> Result<String, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array — not a timeline export"))?;
    let mut out = String::new();
    let _ = writeln!(out, "== windowed timeline ({path}) ==");
    if runs.is_empty() {
        let _ = writeln!(out, "  no runs — was --window passed to the run?");
        return Ok(out);
    }
    for run in runs {
        let name = run.get("run").and_then(Json::as_str).unwrap_or("?");
        let width = run.get("window_width").and_then(Json::as_u64).unwrap_or(0);
        let u64s = |key: &str| -> Vec<u64> {
            run.get(key)
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_u64).collect())
                .unwrap_or_default()
        };
        let f64s = |key: &str| -> Vec<f64> {
            run.get(key)
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default()
        };
        let windows = u64s("windows");
        let _ = writeln!(
            out,
            "  run {name}: {} windows x {width} ticks",
            windows.len()
        );
        if windows.is_empty() {
            // A run can legitimately complete zero windows (e.g. --window
            // wider than the measured stream, or no measured requests at
            // all); say so instead of rendering empty lanes.
            let _ = writeln!(
                out,
                "    no complete windows — stream shorter than one window, \
                 or the run measured no requests"
            );
            continue;
        }
        let lanes: &[(&str, Vec<f64>)] = &[
            (
                "requests",
                u64s("requests").iter().map(|&v| v as f64).collect(),
            ),
            ("mean_ms", f64s("mean_ms")),
            ("p99_ms", f64s("p99_ms")),
            (
                "evictions",
                u64s("evictions").iter().map(|&v| v as f64).collect(),
            ),
        ];
        for (label, vals) in lanes {
            let peak = vals.iter().fold(0.0f64, |m, &v| m.max(v));
            let _ = writeln!(out, "    {label:<10} {}  peak {peak:.1}", sparkline(vals));
        }
        // The largest single-server site count of any window: `top_site`
        // is attributed per server, so it is not a fleet-wide site total.
        let top_sites = u64s("top_site");
        let top_counts = u64s("top_site_requests");
        if let Some(hot) = (0..windows.len().min(top_counts.len()))
            .max_by_key(|&i| (top_counts[i], std::cmp::Reverse(windows[i])))
        {
            let _ = writeln!(
                out,
                "    hottest site: site {} with {} request(s) on one server in window {}",
                top_sites.get(hot).copied().unwrap_or(0),
                top_counts[hot],
                windows[hot]
            );
        }
        // Hotspot attribution: the top server-windows by request volume.
        let mut hotspots: Vec<(u64, usize, u64, f64, u64, u64, u64)> = Vec::new();
        for server in run
            .get("servers")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let id = server.get("server").and_then(Json::as_u64).unwrap_or(0) as usize;
            let col = |key: &str| -> Vec<u64> {
                server
                    .get(key)
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_u64).collect())
                    .unwrap_or_default()
            };
            let (wins, reqs) = (col("windows"), col("requests"));
            let p99: Vec<f64> = server
                .get("p99_ms")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            let (used, evic, fail) = (
                col("cache_used_bytes"),
                col("evictions"),
                col("failover_fetches"),
            );
            for i in 0..wins.len().min(reqs.len()) {
                hotspots.push((
                    reqs[i],
                    id,
                    wins[i],
                    p99.get(i).copied().unwrap_or(0.0),
                    used.get(i).copied().unwrap_or(0),
                    evic.get(i).copied().unwrap_or(0),
                    fail.get(i).copied().unwrap_or(0),
                ));
            }
        }
        if !hotspots.is_empty() {
            // Busiest first; ties resolve to the lower server id, then the
            // earlier window, so the table is deterministic.
            hotspots.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            let _ = writeln!(
                out,
                "    hotspots (top {} server-windows by requests):",
                top.min(hotspots.len())
            );
            let _ = writeln!(
                out,
                "    {:>6} {:>8} {:>10} {:>10} {:>12} {:>10} {:>9}",
                "server", "window", "requests", "p99_ms", "cache_bytes", "evictions", "failovers"
            );
            for (reqs, id, win, p99, used, evic, fail) in hotspots.iter().take(top) {
                let _ = writeln!(
                    out,
                    "    {id:>6} {win:>8} {reqs:>10} {p99:>10.1} {used:>12} {evic:>10} {fail:>9}"
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| s.to_string()), FLAGS).unwrap()
    }

    const SNAPSHOT: &str = r#"{
  "counters": {
    "sim.cause.cache_hit": 30, "sim.cause.cache_hit_latency_us": 600000,
    "sim.cause.delayed_hit": 0, "sim.cause.delayed_hit_latency_us": 0,
    "sim.cause.failed": 0, "sim.cause.failed_latency_us": 0,
    "sim.cause.failover": 10, "sim.cause.failover_latency_us": 2400000,
    "sim.cause.failover_surcharge_us": 2000000,
    "sim.cause.origin_fetch": 20, "sim.cause.origin_fetch_latency_us": 1600000,
    "sim.cause.remote_replica": 0, "sim.cause.remote_replica_latency_us": 0,
    "sim.cause.replica_hit": 40, "sim.cause.replica_hit_latency_us": 800000,
    "sim.requests_measured": 100
  },
  "gauges": {},
  "histograms": {
    "sim.latency_ms": {"bin_width": 1.0, "counts": [0, 50, 0, 0, 40], "overflow": 10, "count": 100}
  }
}"#;

    #[test]
    fn metrics_section_attributes_and_cross_checks() {
        let doc = json::parse(SNAPSHOT).unwrap();
        let s = metrics_section(&doc, "m.json").unwrap();
        assert!(s.contains("replica_hit"), "{s}");
        assert!(s.contains("delayed_hit"), "delayed-hit row renders: {s}");
        assert!(s.contains("40.00%"), "replica share: {s}");
        // Mean of the failover rows: 2400 ms over 10 requests.
        assert!(s.contains("240.000"), "{s}");
        assert!(
            s.contains("causes sum to sim.requests_measured (100) — OK"),
            "{s}"
        );
        // p50 falls in bin 1 (upper edge 2 ms), p95 in the overflow.
        assert!(s.contains("p50 2.0 ms"), "{s}");
        assert!(s.contains("p95 overflow"), "{s}");
        assert!(s.contains("10 request(s) beyond"), "{s}");
    }

    #[test]
    fn metrics_mismatch_is_flagged() {
        let doc = json::parse(&SNAPSHOT.replace(
            "\"sim.requests_measured\": 100",
            "\"sim.requests_measured\": 99",
        ))
        .unwrap();
        let s = metrics_section(&doc, "m.json").unwrap();
        assert!(s.contains("MISMATCH"), "{s}");
    }

    #[test]
    fn metrics_render_lazy_planner_counters() {
        let doc = json::parse(
            r#"{"counters": {"placement.candidates_evaluated": 100,
                             "placement.candidates_skipped_lazy": 1100},
                "gauges": {}, "histograms": {}}"#,
        )
        .unwrap();
        let s = metrics_section(&doc, "m.json").unwrap();
        assert!(s.contains("100 candidates evaluated"), "{s}");
        assert!(s.contains("1100 skipped lazily"), "{s}");
        assert!(s.contains("12.0x fewer"), "{s}");
    }

    #[test]
    fn metrics_without_cause_counters_degrades_gracefully() {
        let doc =
            json::parse(r#"{"counters": {"sim.cache_hits": 3}, "gauges": {}, "histograms": {}}"#)
                .unwrap();
        let s = metrics_section(&doc, "m.json").unwrap();
        assert!(s.contains("no sim.cause.* counters"), "{s}");
        assert!(metrics_section(&json::parse("{}").unwrap(), "m.json").is_err());
    }

    #[test]
    fn profile_section_reads_phase_summary() {
        let profile = r#"{"traceEvents": [], "displayTimeUnit": "ms", "phaseSummary": [
            {"name": "sim:hybrid", "count": 2, "total_us": 9000.0, "self_us": 8000.5, "max_us": 5000.0},
            {"name": "plan:hybrid", "count": 2, "total_us": 4000.0, "self_us": 3000.0, "max_us": 2100.0}
        ]}"#;
        let doc = json::parse(profile).unwrap();
        let s = profile_section(&doc, "p.json", 1).unwrap();
        assert!(s.contains("sim:hybrid"), "{s}");
        assert!(!s.contains("plan:hybrid"), "top 1 must truncate: {s}");
        assert!(s.contains("8.001"), "self_us rendered as ms: {s}");
        assert!(profile_section(&json::parse("{}").unwrap(), "p.json", 3).is_err());
    }

    #[test]
    fn samples_section_tallies_and_ranks() {
        let body = concat!(
            r#"{"run":"r0:hybrid","server":0,"index":0,"cause":"replica_hit","hops":0,"latency_ms":20}"#,
            "\n",
            r#"{"run":"r0:hybrid","server":1,"index":7,"cause":"failover","hops":11,"latency_ms":440}"#,
            "\n",
            r#"{"run":"r0:hybrid","server":0,"index":14,"cause":"replica_hit","hops":0,"latency_ms":20}"#,
            "\n",
        );
        let s = samples_section(body, "s.jsonl", 1).unwrap();
        assert!(s.contains("3 samples"), "{s}");
        assert!(s.contains("66.67%"), "replica_hit share: {s}");
        assert!(
            s.contains("server 1 index 7"),
            "slowest is the failover: {s}"
        );
        assert!(samples_section("{\"no_cause\":1}\n", "s.jsonl", 1).is_err());
        assert!(samples_section("not json\n", "s.jsonl", 1).is_err());
    }

    #[test]
    fn trace_section_counts_record_types() {
        let body = concat!(
            r#"{"seq":0,"type":"enter","span":1,"parent":0,"name":"sim.system"}"#,
            "\n",
            r#"{"seq":1,"type":"event","span":1,"name":"sim.request"}"#,
            "\n",
            r#"{"seq":2,"type":"exit","span":1,"records":1}"#,
            "\n",
        );
        let s = trace_section(body, "t.jsonl", 5).unwrap();
        assert!(s.contains("1 span enters, 1 events, 1 span exits"), "{s}");
        assert!(s.contains("sim.request"), "{s}");
        assert!(trace_section("{\"type\":\"wat\"}\n", "t.jsonl", 5).is_err());
    }

    #[test]
    fn report_requires_an_input() {
        assert!(report(&parse(&[]))
            .unwrap_err()
            .contains("at least one input"));
        assert!(report(&parse(&["--top", "0"]))
            .unwrap_err()
            .contains("--top"));
    }

    #[test]
    fn json_format_emits_machine_readable_attribution() {
        let doc = json::parse(SNAPSHOT).unwrap();
        let body = metrics_json(&doc, "m.json").unwrap();
        // The output must itself parse as JSON and carry the same facts
        // the text table renders.
        let parsed = json::parse(&body).unwrap();
        let causes = parsed.get("causes").unwrap().as_arr().unwrap();
        assert_eq!(causes.len(), CAUSES.len());
        let replica = causes
            .iter()
            .find(|c| c.get("cause").and_then(Json::as_str) == Some("replica_hit"))
            .unwrap();
        assert_eq!(replica.get("requests").unwrap().as_u64(), Some(40));
        assert!((replica.get("share").unwrap().as_f64().unwrap() - 0.4).abs() < 1e-9);
        assert_eq!(parsed.get("causes_total").unwrap().as_u64(), Some(100));
        assert_eq!(
            parsed.get("cross_check").unwrap().as_str(),
            Some("ok"),
            "{body}"
        );
        let pct = parsed.get("percentiles_ms").unwrap();
        assert_eq!(pct.get("p50").unwrap().as_f64(), Some(2.0));
        // p95 lands in the overflow bin: JSON null, not a fake number.
        assert!(matches!(pct.get("p95"), Some(Json::Null)), "{body}");
        assert!(metrics_json(&json::parse("{}").unwrap(), "m.json").is_err());
    }

    #[test]
    fn unknown_format_is_rejected() {
        assert!(report(&parse(&["--format", "yaml"]))
            .unwrap_err()
            .contains("--format"));
        // json/openmetrics need a metrics snapshot to render.
        for f in ["json", "openmetrics"] {
            let err = report(&parse(&["--format", f])).unwrap_err();
            assert!(err.contains("--metrics"), "{f}");
        }
    }

    #[test]
    fn machine_formats_reject_the_text_only_flags() {
        // `--format json --profile /nonexistent --top 3` once exited 0: the
        // machine formats render the metrics snapshot and never read these.
        for f in ["json", "openmetrics"] {
            for flag in ["--profile", "--samples", "--trace", "--timeline", "--top"] {
                let value = if flag == "--top" { "3" } else { "/nonexistent" };
                let args = ["--metrics", "m.json", "--format", f, flag, value];
                let err = report(&parse(&args)).unwrap_err();
                assert!(err.contains(flag) && err.contains("--format text"), "{err}");
            }
        }
    }

    /// A two-window, two-server timeline export in the exact shape
    /// `cdn_sim::render_timeline_json` produces.
    const TIMELINE: &str = r#"{
"runs": [
{
"run": "hybrid",
"window_width": 512,
"windows": [3, 4],
"requests": [100, 140],
"local_requests": [60, 80],
"cache_hits": [40, 50],
"replica_hits": [20, 30],
"origin_fetches": [30, 40],
"peer_fetches": [10, 20],
"failover_fetches": [0, 0],
"failed_requests": [0, 0],
"cost_hops": [300, 400],
"total_bytes": [9000, 9500],
"origin_bytes": [4000, 4100],
"cache_used_bytes": [800, 900],
"evictions": [5, 9],
"mean_ms": [40.000, 45.000],
"p50_ms": [30.000, 32.000],
"p90_ms": [80.000, 90.000],
"p99_ms": [120.000, 140.000],
"max_ms": [150.000, 180.000],
"top_site": [7, 2],
"top_site_requests": [33, 61],
"servers": [
{"server":0,
"windows": [3, 4], "requests": [90, 10],
"local_requests": [50, 5], "cache_hits": [35, 3], "replica_hits": [15, 2],
"origin_fetches": [25, 3], "peer_fetches": [5, 2], "failover_fetches": [0, 0],
"failed_requests": [0, 0], "cost_hops": [250, 30], "total_bytes": [8000, 500],
"origin_bytes": [3500, 100], "cache_used_bytes": [700, 100], "evictions": [5, 0],
"mean_ms": [41.000, 30.000], "p50_ms": [31.000, 25.000], "p90_ms": [82.000, 40.000],
"p99_ms": [125.000, 50.000], "max_ms": [150.000, 60.000]},
{"server":1,
"windows": [3, 4], "requests": [10, 130],
"local_requests": [10, 75], "cache_hits": [5, 47], "replica_hits": [5, 28],
"origin_fetches": [5, 37], "peer_fetches": [5, 18], "failover_fetches": [0, 0],
"failed_requests": [0, 0], "cost_hops": [50, 370], "total_bytes": [1000, 9000],
"origin_bytes": [500, 4000], "cache_used_bytes": [100, 800], "evictions": [0, 9],
"mean_ms": [35.000, 46.000], "p50_ms": [28.000, 33.000], "p90_ms": [70.000, 92.000],
"p99_ms": [100.000, 141.000], "max_ms": [120.000, 180.000]}
]
}
]
}"#;

    #[test]
    fn timeline_section_renders_sparklines_and_hotspots() {
        let doc = json::parse(TIMELINE).unwrap();
        let s = timeline_section(&doc, "tl.json", 2).unwrap();
        assert!(s.contains("run hybrid: 2 windows x 512 ticks"), "{s}");
        for lane in ["requests", "mean_ms", "p99_ms", "evictions"] {
            assert!(s.contains(lane), "{lane} lane missing: {s}");
        }
        // Sparklines scale to the lane maximum.
        assert!(s.contains('█'), "{s}");
        assert!(
            s.contains("hottest site: site 2 with 61 request(s) on one server in window 4"),
            "{s}"
        );
        // Hotspot table ranks server-windows by requests: server 1 window 4
        // (130 requests) first, then server 0 window 3 (90).
        let hot1 = s.find("     1        4        130").expect(&s);
        let hot0 = s.find("     0        3         90").expect(&s);
        assert!(hot1 < hot0, "{s}");
        // top 2 truncates the remaining two server-windows.
        assert!(!s.contains("        10 "), "top must truncate: {s}");
        assert!(timeline_section(&json::parse("{}").unwrap(), "tl.json", 2).is_err());
    }

    #[test]
    fn empty_timeline_degrades_gracefully() {
        let doc = json::parse(r#"{"runs": []}"#).unwrap();
        let s = timeline_section(&doc, "tl.json", 3).unwrap();
        assert!(s.contains("no runs"), "{s}");
    }

    #[test]
    fn zero_complete_windows_render_cleanly() {
        // A run is present but completed no windows (stream shorter than
        // one window): the section must say so, render no lanes for that
        // run, and still render subsequent runs in full.
        let doc = json::parse(&TIMELINE.replace(
            "\"runs\": [\n{",
            r#""runs": [
{
"run": "warmup-only",
"window_width": 100000,
"windows": [],
"requests": [],
"mean_ms": [],
"p99_ms": [],
"evictions": [],
"top_site": [],
"top_site_requests": [],
"servers": []
},
{"#,
        ))
        .unwrap();
        let s = timeline_section(&doc, "tl.json", 2).unwrap();
        assert!(
            s.contains("run warmup-only: 0 windows x 100000 ticks"),
            "{s}"
        );
        assert!(s.contains("no complete windows"), "{s}");
        // The empty run renders no sparklines or hotspots of its own…
        let empty_part = &s[..s.find("run hybrid").expect(&s)];
        assert!(!empty_part.contains("hotspots"), "{s}");
        assert!(!empty_part.contains('█'), "{s}");
        // …while the populated run after it still renders fully.
        assert!(s.contains("run hybrid: 2 windows x 512 ticks"), "{s}");
        assert!(s.contains("hotspots"), "{s}");
    }
}
