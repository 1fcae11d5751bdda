//! CI perf-regression gate over `BENCH_parallel.json`.
//!
//! Compares a freshly generated benchmark file against a committed
//! baseline with two very different strictness levels:
//!
//! * the `"work"` section holds deterministic work counters (series terms
//!   evaluated, placement candidates scanned, cache events, ...) that are
//!   pure functions of the scenario parameters — these must match the
//!   baseline **exactly**, including the key set; a drifted counter means
//!   the algorithm now does different work, which is either a perf
//!   regression or an unacknowledged behaviour change (fix it, or commit
//!   a new baseline deliberately);
//! * the `"wall_clock"` section is machine-dependent — per-phase times of
//!   the single-threaded run only have to stay within a 3x band of the
//!   baseline, wide enough for noisy shared CI runners but tight enough
//!   to catch order-of-magnitude blowups.
//!
//! Prints a readable delta table and exits non-zero on any violation.
//! When `$GITHUB_STEP_SUMMARY` is set, the same delta tables are appended
//! there as Markdown, so the comparison shows up on the workflow run page.
//!
//! The baseline file holds one section per scale tier (`{"quick": {...},
//! "large-ci": {...}}`); pass `--tier` to select one. A legacy single-tier
//! baseline (the old flat document) still works when its `"scale"` matches.
//!
//! `--min-speedup <x>` additionally gates the current run's measured
//! multi-thread speedup (`wall_clock.speedup_total`) — the check that the
//! parallel engine actually pays off at the internet-scale tier.
//!
//! `--min-lazy-ratio <x>` gates the lazy planner's work saving, computed
//! from the current run's own counters: (candidates evaluated + lazily
//! skipped) / evaluated must be at least `x`. This is deterministic —
//! a pure function of the instance — so it holds on any machine.
//!
//! `--max-seconds <x>` is an absolute wall-clock ceiling on the current
//! run's parallel arm (`wall_clock.runs` last entry) — the number CI
//! actually pays — catching blowups even when the committed baseline was
//! measured on very different hardware.
//!
//! `perf_gate --help` lists the flags it accepts.

use cdn_bench::harness::{parse_or_exit, usage_error};
use cdn_cli::args::Table;
use cdn_telemetry::json::{parse, Json};
use std::collections::BTreeSet;
use std::process::ExitCode;

/// Wall-clock tolerance band: current/baseline must stay in [1/3, 3].
const WALL_CLOCK_BAND: f64 = 3.0;
/// Phases faster than this on both sides are skipped — at quick scale a
/// phase runs in milliseconds, where the band would only measure machine
/// speed differences, not regressions. A genuine blowup still trips the
/// gate: the regressed side crosses the floor and the ratio check fires.
const MIN_COMPARABLE_SECONDS: f64 = 0.050;

const FLAGS: Table = &[&[
    "--baseline <path>  committed BENCH_baseline.json to gate against (required)",
    "--current <path>  freshly generated BENCH_parallel.json / BENCH_placement.json (required)",
    "--tier <label>  baseline section: quick | large-ci | hybrid-large-ci | ... (default: scale)",
    "--min-speedup <x>  fail unless the current run's wall_clock.speedup_total >= x",
    "--min-lazy-ratio <x>  fail unless (evaluated + lazily skipped) / evaluated >= x",
    "--max-seconds <x>  fail if the current run's parallel arm took longer than x seconds",
]];

/// Select the tier section from a (possibly multi-tier) baseline document.
///
/// A multi-tier baseline maps tier labels to the old flat layout; a legacy
/// flat baseline (with a top-level `"scale"`) stands for its own tier.
fn baseline_for_tier<'a>(doc: &'a Json, tier: &str) -> Result<&'a Json, String> {
    if let Some(section) = doc.get(tier) {
        return Ok(section);
    }
    match doc.get("scale").and_then(Json::as_str) {
        Some(s) if s == tier => Ok(doc),
        Some(s) => Err(format!(
            "baseline has no `{tier}` section (flat baseline is for scale `{s}`)"
        )),
        None => Err(format!("baseline has no `{tier}` section")),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&body).map_err(|e| format!("parse {path}: {e}"))
}

/// Compare the deterministic `"work"` counters; returns failure lines.
fn check_work(baseline: &Json, current: &Json, table: &mut Vec<String>) -> Vec<String> {
    let mut failures = Vec::new();
    let empty = std::collections::BTreeMap::new();
    let base = baseline
        .get("work")
        .and_then(Json::as_obj)
        .unwrap_or(&empty);
    let cur = current.get("work").and_then(Json::as_obj).unwrap_or(&empty);
    if base.is_empty() {
        failures.push("baseline has no \"work\" section".into());
    }
    let names: BTreeSet<&String> = base.keys().chain(cur.keys()).collect();
    for name in names {
        let b = base.get(name.as_str()).and_then(Json::as_u64);
        let c = cur.get(name.as_str()).and_then(Json::as_u64);
        let (status, failed) = match (b, c) {
            (Some(b), Some(c)) if b == c => ("ok", false),
            (Some(_), Some(_)) => ("DRIFT", true),
            (None, Some(_)) => ("EXTRA", true),
            (Some(_), None) => ("MISSING", true),
            (None, None) => ("INVALID", true),
        };
        let fmt = |v: Option<u64>| v.map_or("-".into(), |v| v.to_string());
        table.push(format!(
            "  {:<32} {:>14} {:>14}  {}",
            name,
            fmt(b),
            fmt(c),
            status
        ));
        if failed {
            failures.push(format!("work counter `{name}`: {} vs {}", fmt(b), fmt(c)));
        }
    }
    failures
}

/// Single-thread per-phase seconds: `wall_clock.runs[0].phases`.
fn baseline_run_phases(doc: &Json) -> Vec<(String, f64)> {
    doc.get("wall_clock")
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .and_then(|runs| runs.first())
        .and_then(|run| run.get("phases"))
        .and_then(Json::as_obj)
        .map(|phases| {
            phases
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|s| (k.clone(), s)))
                .collect()
        })
        .unwrap_or_default()
}

/// Compare single-thread wall-clock phases within the band.
fn check_wall_clock(baseline: &Json, current: &Json, table: &mut Vec<String>) -> Vec<String> {
    let mut failures = Vec::new();
    let base = baseline_run_phases(baseline);
    let cur = baseline_run_phases(current);
    if base.is_empty() {
        failures.push("baseline has no wall_clock.runs[0].phases".into());
    }
    for (name, b) in &base {
        let Some((_, c)) = cur.iter().find(|(n, _)| n == name) else {
            failures.push(format!("wall-clock phase `{name}` missing from current"));
            continue;
        };
        if *b < MIN_COMPARABLE_SECONDS && *c < MIN_COMPARABLE_SECONDS {
            table.push(format!(
                "  {:<32} {:>13.3}s {:>13.3}s  skip (below noise floor)",
                name, b, c
            ));
            continue;
        }
        let ratio = c / b.max(1e-9);
        let ok = (1.0 / WALL_CLOCK_BAND..=WALL_CLOCK_BAND).contains(&ratio);
        table.push(format!(
            "  {:<32} {:>13.3}s {:>13.3}s  {:.2}x {}",
            name,
            b,
            c,
            ratio,
            if ok { "ok" } else { "OUT OF BAND" }
        ));
        if !ok {
            failures.push(format!(
                "wall-clock phase `{name}`: {ratio:.2}x baseline (band is \
                 {:.2}x..{WALL_CLOCK_BAND:.0}x)",
                1.0 / WALL_CLOCK_BAND
            ));
        }
    }
    failures
}

/// The current run must itself report internal determinism.
fn check_flags(current: &Json) -> Vec<String> {
    ["bit_identical", "work_identical"]
        .iter()
        .filter(|key| !matches!(current.get(key), Some(Json::Bool(true))))
        .map(|key| format!("current run does not report `{key}: true`"))
        .collect()
}

/// Gate the measured multi-thread speedup when `--min-speedup` is given.
fn check_speedup(current: &Json, min: f64, table: &mut Vec<String>) -> Vec<String> {
    let speedup = current
        .get("wall_clock")
        .and_then(|w| w.get("speedup_total"))
        .and_then(Json::as_f64);
    let threads = current
        .get("wall_clock")
        .and_then(|w| w.get("parallel_threads"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    match speedup {
        Some(s) => {
            let ok = s >= min;
            table.push(format!(
                "  speedup_total at {threads} thread(s): {s:.2}x (floor {min:.2}x)  {}",
                if ok { "ok" } else { "TOO SLOW" }
            ));
            if ok {
                Vec::new()
            } else {
                vec![format!(
                    "multi-thread speedup {s:.2}x below the {min:.2}x floor"
                )]
            }
        }
        None => vec!["current run has no wall_clock.speedup_total".into()],
    }
}

/// Gate the lazy planner's work saving when `--min-lazy-ratio` is given.
/// Computed from the current run's own deterministic counters, so the
/// check is machine-independent: (evaluated + skipped) / evaluated.
fn check_lazy_ratio(current: &Json, min: f64, table: &mut Vec<String>) -> Vec<String> {
    let counter = |name: &str| {
        current
            .get("work")
            .and_then(|w| w.get(name))
            .and_then(Json::as_u64)
    };
    let Some(evaluated) = counter("placement.candidates_evaluated").filter(|&e| e > 0) else {
        return vec!["current run has no placement.candidates_evaluated work counter".into()];
    };
    let skipped = counter("placement.candidates_skipped_lazy").unwrap_or(0);
    let ratio = (evaluated + skipped) as f64 / evaluated as f64;
    let ok = ratio >= min;
    table.push(format!(
        "  lazy ratio: ({evaluated} evaluated + {skipped} skipped) / evaluated = \
         {ratio:.1}x (floor {min:.1}x)  {}",
        if ok { "ok" } else { "TOO DENSE" }
    ));
    if ok {
        Vec::new()
    } else {
        vec![format!(
            "lazy planner ratio {ratio:.1}x below the {min:.1}x floor"
        )]
    }
}

/// Gate the parallel arm's absolute wall-clock when `--max-seconds` is
/// given — the time CI actually pays (`wall_clock.runs` last entry).
fn check_max_seconds(current: &Json, max: f64, table: &mut Vec<String>) -> Vec<String> {
    let total = current
        .get("wall_clock")
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .and_then(|runs| runs.last())
        .and_then(|run| run.get("total_s"))
        .and_then(Json::as_f64);
    match total {
        Some(t) => {
            let ok = t <= max;
            table.push(format!(
                "  parallel arm wall-clock: {t:.1}s (ceiling {max:.1}s)  {}",
                if ok { "ok" } else { "TOO SLOW" }
            ));
            if ok {
                Vec::new()
            } else {
                vec![format!(
                    "parallel arm took {t:.1}s, above the {max:.1}s ceiling"
                )]
            }
        }
        None => vec!["current run has no wall_clock.runs[last].total_s".into()],
    }
}

/// Append the delta tables as Markdown to `$GITHUB_STEP_SUMMARY`, or print
/// them to stdout when the variable is unset/empty (local runs get the same
/// report CI does). Plain-text tables go inside a code fence — exact
/// alignment, zero markup escaping concerns — with the verdict as a heading.
fn write_step_summary(tier: &str, sections: &[(&str, &[String])], failures: &[String]) {
    let body = render_step_summary(tier, sections, failures);
    let path = std::env::var("GITHUB_STEP_SUMMARY").unwrap_or_default();
    if path.is_empty() {
        print!("{body}");
        return;
    }
    use std::io::Write as _;
    match std::fs::OpenOptions::new().append(true).open(&path) {
        Ok(mut f) => {
            if let Err(e) = f.write_all(body.as_bytes()) {
                eprintln!("perf_gate: writing step summary: {e}");
            }
        }
        Err(e) => eprintln!("perf_gate: opening step summary {path}: {e}"),
    }
}

/// The Markdown body [`write_step_summary`] emits.
fn render_step_summary(tier: &str, sections: &[(&str, &[String])], failures: &[String]) -> String {
    let mut body = String::new();
    body.push_str(&format!(
        "### perf gate (`{tier}` tier): {}\n\n",
        if failures.is_empty() {
            "PASS ✅"
        } else {
            "FAIL ❌"
        }
    ));
    for (title, lines) in sections {
        body.push_str(&format!("**{title}**\n\n```text\n"));
        for l in *lines {
            body.push_str(l);
            body.push('\n');
        }
        body.push_str("```\n\n");
    }
    if !failures.is_empty() {
        body.push_str("**Failures**\n\n");
        for f in failures {
            body.push_str(&format!("- {f}\n"));
        }
        body.push('\n');
    }
    body
}

fn main() -> ExitCode {
    let a = parse_or_exit("perf_gate", FLAGS);
    let (Some(baseline_path), Some(current_path)) = (a.get("baseline"), a.get("current")) else {
        usage_error(
            "perf_gate",
            FLAGS,
            "both --baseline and --current are required",
        )
    };
    let limit = |key| {
        a.get_positive(key)
            .unwrap_or_else(|msg| usage_error("perf_gate", FLAGS, &msg))
    };
    let min_speedup = limit("min-speedup");
    let min_lazy_ratio = limit("min-lazy-ratio");
    let max_seconds = limit("max-seconds");
    let (baseline_doc, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("perf_gate: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let tier = a
        .get("tier")
        .map(str::to_string)
        .or_else(|| {
            current
                .get("scale")
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .unwrap_or_default();
    let baseline = match baseline_for_tier(&baseline_doc, &tier) {
        Ok(section) => section,
        Err(msg) => {
            eprintln!("perf_gate: {msg}");
            return ExitCode::from(2);
        }
    };

    let mut failures = Vec::new();
    let (sa, sb) = (
        baseline.get("scale").and_then(Json::as_str),
        current.get("scale").and_then(Json::as_str),
    );
    if sa != sb {
        failures.push(format!("scale mismatch: {sa:?} vs {sb:?}"));
    }

    println!(
        "perf gate [{tier}]: {} vs baseline {}\n",
        current_path, baseline_path
    );
    println!(
        "  {:<32} {:>14} {:>14}  deterministic work (exact)",
        "counter", "baseline", "current"
    );
    let mut work_table = Vec::new();
    failures.extend(check_work(baseline, &current, &mut work_table));
    work_table.iter().for_each(|l| println!("{l}"));

    println!(
        "\n  {:<32} {:>14} {:>14}  single-thread wall-clock ({}x band)",
        "phase", "baseline", "current", WALL_CLOCK_BAND
    );
    let mut wall_table = Vec::new();
    failures.extend(check_wall_clock(baseline, &current, &mut wall_table));
    wall_table.iter().for_each(|l| println!("{l}"));

    let mut speedup_table = Vec::new();
    if let Some(min) = min_speedup {
        println!();
        failures.extend(check_speedup(&current, min, &mut speedup_table));
        speedup_table.iter().for_each(|l| println!("{l}"));
    }

    let mut extra_table = Vec::new();
    if let Some(min) = min_lazy_ratio {
        println!();
        failures.extend(check_lazy_ratio(&current, min, &mut extra_table));
    }
    if let Some(max) = max_seconds {
        if min_lazy_ratio.is_none() {
            println!();
        }
        failures.extend(check_max_seconds(&current, max, &mut extra_table));
    }
    extra_table.iter().for_each(|l| println!("{l}"));

    failures.extend(check_flags(&current));

    let mut sections: Vec<(&str, &[String])> = vec![
        ("Deterministic work counters (exact)", &work_table[..]),
        ("Single-thread wall-clock (3x band)", &wall_table[..]),
    ];
    if !speedup_table.is_empty() {
        sections.push(("Multi-thread speedup", &speedup_table[..]));
    }
    if !extra_table.is_empty() {
        sections.push(("Lazy-planner & wall-clock ceilings", &extra_table[..]));
    }
    write_step_summary(&tier, &sections, &failures);

    if failures.is_empty() {
        println!("\nperf gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!("\nperf gate: FAIL");
        for f in &failures {
            println!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::render_step_summary;

    #[test]
    fn step_summary_renders_verdict_sections_and_failures() {
        let work = ["  counter  1  1  ok".to_string()];
        let body = render_step_summary(
            "quick",
            &[("Deterministic work counters (exact)", &work[..])],
            &[],
        );
        assert!(
            body.contains("### perf gate (`quick` tier): PASS"),
            "{body}"
        );
        assert!(body.contains("```text\n  counter  1  1  ok\n```"), "{body}");
        let body = render_step_summary("quick", &[], &["counter drifted".to_string()]);
        assert!(body.contains("FAIL"), "{body}");
        assert!(body.contains("- counter drifted"), "{body}");
    }
}
