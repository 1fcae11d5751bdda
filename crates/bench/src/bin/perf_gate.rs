//! CI perf-regression gate over a `BENCH_parallel.json` or
//! `BENCH_placement.json` run.
//!
//! Compares a freshly generated benchmark file against a committed
//! baseline, the file the same binary wrote on the machine that reports it
//! (`results/baseline/<tier>.json`), with two very different strictness
//! levels:
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
//! The current run must also report both of its 1-vs-N identities
//! (`bit_identical`, `work_identical`) and the baseline's scale.
//!
//! `--min-speedup <x>` additionally gates the current run's measured
//! multi-thread speedup (`wall_clock.speedup_total`). A floor above
//! min(`parallel_threads`, `available_parallelism`) cannot be reached on
//! that run's host, so it is reported as not measured instead of failed.
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
//! Prints a readable delta table and exits non-zero on any violation.
//! When `$GITHUB_STEP_SUMMARY` is set, the same tables are appended there
//! as Markdown, so the comparison shows up on the workflow run page.
//!
//! `perf_gate --help` lists the flags it accepts.

use cdn_bench::harness::{parse_or_exit, usage_error};
use cdn_cli::args::{Args, Table};
use cdn_telemetry::json::{parse, Json};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

/// Wall-clock tolerance band: current/baseline must stay in [1/3, 3].
const WALL_CLOCK_BAND: f64 = 3.0;
/// Phases faster than this on both sides are skipped — at quick scale a
/// phase runs in milliseconds, where the band would only measure machine
/// speed differences, not regressions. A genuine blowup still trips the
/// gate: the regressed side crosses the floor and the ratio check fires.
const MIN_COMPARABLE_SECONDS: f64 = 0.050;

const FLAGS: Table = &[&[
    "--baseline <path>  committed results/baseline/<tier>.json to gate against (required)",
    "--current <path>  freshly generated BENCH_parallel.json / BENCH_placement.json (required)",
    "--min-speedup <x>  fail unless the current run's wall_clock.speedup_total >= x",
    "--min-lazy-ratio <x>  fail unless (evaluated + lazily skipped) / evaluated >= x",
    "--max-seconds <x>  fail if the current run's parallel arm took longer than x seconds",
]];

/// The optional limits on the current run alone.
#[derive(Debug)]
struct Limits {
    min_speedup: Option<f64>,
    min_lazy_ratio: Option<f64>,
    max_seconds: Option<f64>,
}

impl Limits {
    fn from_args(a: &Args) -> Result<Self, String> {
        Ok(Self {
            min_speedup: a.get_positive("min-speedup")?,
            min_lazy_ratio: a.get_positive("min-lazy-ratio")?,
            max_seconds: a.get_positive("max-seconds")?,
        })
    }
}

/// What the gate found: titled tables of the comparisons it made, and one
/// line per violated check.
#[derive(Debug, Default)]
struct Verdict {
    sections: Vec<(&'static str, Vec<String>)>,
    failures: Vec<String>,
}

/// Run every check of `current` against `baseline` and `limits`.
fn gate(baseline: &Json, current: &Json, limits: &Limits) -> Verdict {
    let mut v = Verdict::default();
    let (sa, sb) = (
        baseline.get("scale").and_then(Json::as_str),
        current.get("scale").and_then(Json::as_str),
    );
    if sa != sb {
        v.failures.push(format!("scale mismatch: {sa:?} vs {sb:?}"));
    }
    let mut table = vec![format!(
        "  {:<32} {:>14} {:>14}",
        "counter", "baseline", "current"
    )];
    v.failures.extend(check_work(baseline, current, &mut table));
    v.sections
        .push(("Deterministic work counters (exact)", table));

    let mut table = vec![format!(
        "  {:<32} {:>14} {:>14}",
        "phase", "baseline", "current"
    )];
    v.failures
        .extend(check_wall_clock(baseline, current, &mut table));
    v.sections
        .push(("Single-thread wall-clock (3x band)", table));

    let mut table = Vec::new();
    if let Some(min) = limits.min_speedup {
        v.failures.extend(check_speedup(current, min, &mut table));
    }
    if let Some(min) = limits.min_lazy_ratio {
        v.failures
            .extend(check_lazy_ratio(current, min, &mut table));
    }
    if let Some(max) = limits.max_seconds {
        v.failures
            .extend(check_max_seconds(current, max, &mut table));
    }
    if !table.is_empty() {
        v.sections.push(("Floors & ceilings on this run", table));
    }
    v.failures.extend(check_flags(current));
    v
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
            failures.push(format!(
                "work counter `{name}` {status}: {} vs {}",
                fmt(b),
                fmt(c)
            ));
        }
    }
    failures
}

/// `wall_clock.<key>` of a run.
fn wall_clock<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    doc.get("wall_clock").and_then(|w| w.get(key))
}

/// Single-thread per-phase seconds: `wall_clock.runs[0].phases`.
fn single_thread_phases(doc: &Json) -> Vec<(String, f64)> {
    wall_clock(doc, "runs")
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
    let base = single_thread_phases(baseline);
    let cur = single_thread_phases(current);
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

/// Gate the measured multi-thread speedup when `--min-speedup` is given,
/// unless the floor exceeds the parallelism the run could use:
/// min(`parallel_threads`, `available_parallelism`).
fn check_speedup(current: &Json, min: f64, table: &mut Vec<String>) -> Vec<String> {
    let count = |key| wall_clock(current, key).and_then(Json::as_u64);
    let (Some(s), Some(threads), Some(cores)) = (
        wall_clock(current, "speedup_total").and_then(Json::as_f64),
        count("parallel_threads"),
        count("available_parallelism"),
    ) else {
        return vec![
            "current run lacks wall_clock.speedup_total, parallel_threads or \
             available_parallelism"
                .into(),
        ];
    };
    let usable = threads.min(cores);
    if min > usable as f64 {
        table.push(format!(
            "  speedup_total: {s:.2}x at {threads} thread(s) on {cores} core(s): \
             not measured (floor {min:.2}x exceeds {usable} usable thread(s))"
        ));
        return Vec::new();
    }
    let ok = s >= min;
    table.push(format!(
        "  speedup_total: {s:.2}x at {threads} thread(s) on {cores} core(s) \
         (floor {min:.2}x)  {}",
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
    let total = wall_clock(current, "runs")
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

/// The verdict as Markdown for `$GITHUB_STEP_SUMMARY`. Plain-text tables
/// go inside a code fence — exact alignment, zero markup escaping
/// concerns — with the verdict as a heading.
fn render_step_summary(tier: &str, verdict: &Verdict) -> String {
    let mut body = String::new();
    body.push_str(&format!(
        "### perf gate (`{tier}` tier): {}\n\n",
        if verdict.failures.is_empty() {
            "PASS ✅"
        } else {
            "FAIL ❌"
        }
    ));
    for (title, lines) in &verdict.sections {
        body.push_str(&format!("**{title}**\n\n```text\n"));
        for l in lines {
            body.push_str(l);
            body.push('\n');
        }
        body.push_str("```\n\n");
    }
    if !verdict.failures.is_empty() {
        body.push_str("**Failures**\n\n");
        for f in &verdict.failures {
            body.push_str(&format!("- {f}\n"));
        }
        body.push('\n');
    }
    body
}

/// Append `body` to `$GITHUB_STEP_SUMMARY` when it names a file.
fn append_step_summary(body: &str) {
    let path = std::env::var("GITHUB_STEP_SUMMARY").unwrap_or_default();
    if path.is_empty() {
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

fn main() -> ExitCode {
    let a = parse_or_exit("perf_gate", FLAGS);
    let (Some(baseline_path), Some(current_path)) = (a.get("baseline"), a.get("current")) else {
        usage_error(
            "perf_gate",
            FLAGS,
            "both --baseline and --current are required",
        )
    };
    let limits = Limits::from_args(&a).unwrap_or_else(|msg| usage_error("perf_gate", FLAGS, &msg));
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("perf_gate: {err}");
            }
            return ExitCode::from(2);
        }
    };
    // The tier is the baseline file's name: results/baseline/<tier>.json.
    let tier = Path::new(baseline_path)
        .file_stem()
        .map_or_else(String::new, |s| s.to_string_lossy().into_owned());

    let verdict = gate(&baseline, &current, &limits);
    println!("perf gate [{tier}]: {current_path} vs baseline {baseline_path}");
    for (title, lines) in &verdict.sections {
        println!("\n  {title}");
        lines.iter().for_each(|l| println!("{l}"));
    }
    append_step_summary(&render_step_summary(&tier, &verdict));

    if verdict.failures.is_empty() {
        println!("\nperf gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!("\nperf gate: FAIL");
        for f in &verdict.failures {
            println!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed run: 1 s single-thread simulation, 2x on 2 threads of
    /// 2 cores, a 20x lazy ratio.
    const RUN: &str = r#"{
  "scale": "quick",
  "work": {
    "placement.candidates_evaluated": 10,
    "placement.candidates_skipped_lazy": 190,
    "sim.requests_total": 1000
  },
  "work_identical": true,
  "bit_identical": true,
  "wall_clock": {
    "baseline_threads": 1,
    "parallel_threads": 2,
    "available_parallelism": 2,
    "runs": [{"threads": 1, "phases": {"simulation_s": 1.000000}, "total_s": 1.000000}, {"threads": 2, "phases": {"simulation_s": 0.500000}, "total_s": 0.500000}],
    "speedup_total": 2.0000
  }
}
"#;

    const LIMITS: Limits = Limits {
        min_speedup: Some(1.5),
        min_lazy_ratio: Some(10.0),
        max_seconds: Some(60.0),
    };

    /// `RUN` with each `(from, to)` replacement applied.
    fn edited(edits: &[(&str, &str)]) -> Json {
        let mut doc = RUN.to_string();
        for (from, to) in edits {
            assert!(doc.contains(from), "{from}");
            doc = doc.replace(from, to);
        }
        parse(&doc).unwrap()
    }

    /// The one failure of gating `RUN` edited by `current` against `RUN`
    /// edited by `baseline`, under `LIMITS`.
    fn only_failure(baseline: &[(&str, &str)], current: &[(&str, &str)]) -> String {
        let verdict = gate(&edited(baseline), &edited(current), &LIMITS);
        assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
        verdict.failures[0].clone()
    }

    #[test]
    fn a_well_formed_run_passes_against_itself() {
        let verdict = gate(&edited(&[]), &edited(&[]), &LIMITS);
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        assert_eq!(verdict.sections.len(), 3);
    }

    #[test]
    fn a_drifted_counter_fails() {
        let f = only_failure(
            &[],
            &[(
                "\"sim.requests_total\": 1000",
                "\"sim.requests_total\": 999",
            )],
        );
        assert!(f.contains("sim.requests_total` DRIFT"), "{f}");
    }

    #[test]
    fn an_extra_counter_fails() {
        let f = only_failure(
            &[],
            &[(
                "\"sim.requests_total\": 1000",
                "\"sim.requests_total\": 1000, \"sim.new\": 0",
            )],
        );
        assert!(f.contains("sim.new` EXTRA"), "{f}");
    }

    #[test]
    fn a_missing_counter_fails() {
        let f = only_failure(&[], &[(",\n    \"sim.requests_total\": 1000", "")]);
        assert!(f.contains("sim.requests_total` MISSING"), "{f}");
    }

    #[test]
    fn a_phase_outside_the_band_fails_both_ways() {
        for secs in ["3.100000", "0.320000"] {
            let edit = format!("\"simulation_s\": {secs}");
            let f = only_failure(&[], &[("\"simulation_s\": 1.000000", &edit)]);
            assert!(f.contains("wall-clock phase `simulation_s`"), "{f}");
        }
        // Just inside the band on either side.
        for secs in ["2.900000", "0.340000"] {
            let edit = format!("\"simulation_s\": {secs}");
            let verdict = gate(
                &edited(&[]),
                &edited(&[("\"simulation_s\": 1.000000", &edit)]),
                &LIMITS,
            );
            assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        }
    }

    #[test]
    fn phases_under_the_noise_floor_are_skipped() {
        // 40x slower, but both sides under 50 ms.
        let verdict = gate(
            &edited(&[("\"simulation_s\": 1.000000", "\"simulation_s\": 0.001000")]),
            &edited(&[("\"simulation_s\": 1.000000", "\"simulation_s\": 0.040000")]),
            &LIMITS,
        );
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        let wall = &verdict.sections[1].1;
        assert!(
            wall.iter().any(|l| l.contains("skip (below noise floor)")),
            "{wall:?}"
        );
    }

    #[test]
    fn a_broken_identity_fails() {
        for key in ["bit_identical", "work_identical"] {
            let f = only_failure(
                &[],
                &[(&format!("\"{key}\": true"), &format!("\"{key}\": false"))],
            );
            assert!(f.contains(&format!("`{key}: true`")), "{f}");
        }
    }

    #[test]
    fn a_scale_mismatch_fails() {
        let f = only_failure(&[], &[("\"scale\": \"quick\"", "\"scale\": \"paper\"")]);
        assert!(f.contains("scale mismatch"), "{f}");
    }

    #[test]
    fn a_speedup_under_a_measurable_floor_fails() {
        let f = only_failure(
            &[],
            &[("\"speedup_total\": 2.0000", "\"speedup_total\": 1.4000")],
        );
        assert!(f.contains("speedup 1.40x below the 1.50x floor"), "{f}");
        // Two threads on four cores can still reach 1.5x.
        let f = only_failure(
            &[],
            &[
                (
                    "\"available_parallelism\": 2",
                    "\"available_parallelism\": 4",
                ),
                ("\"speedup_total\": 2.0000", "\"speedup_total\": 0.9000"),
            ],
        );
        assert!(f.contains("below the 1.50x floor"), "{f}");
    }

    #[test]
    fn a_floor_above_the_usable_parallelism_is_not_measured() {
        // Four threads on one core: 1.5x is out of reach, so a 0.9x run
        // neither fails nor passes the floor.
        let current = edited(&[
            ("\"parallel_threads\": 2", "\"parallel_threads\": 4"),
            (
                "\"available_parallelism\": 2",
                "\"available_parallelism\": 1",
            ),
            ("\"speedup_total\": 2.0000", "\"speedup_total\": 0.9000"),
        ]);
        let verdict = gate(&edited(&[]), &current, &LIMITS);
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        let floors = &verdict.sections[2].1;
        assert!(
            floors.iter().any(|l| l.contains("not measured")),
            "{floors:?}"
        );
    }

    #[test]
    fn a_lazy_ratio_under_its_floor_fails() {
        let dense = [(
            "\"placement.candidates_skipped_lazy\": 190",
            "\"placement.candidates_skipped_lazy\": 80",
        )];
        let f = only_failure(&dense, &dense);
        assert!(f.contains("ratio 9.0x below the 10.0x floor"), "{f}");
    }

    #[test]
    fn a_parallel_arm_over_the_ceiling_fails() {
        let slow = [("\"total_s\": 0.500000", "\"total_s\": 61.000000")];
        let f = only_failure(&slow, &slow);
        assert!(f.contains("took 61.0s, above the 60.0s ceiling"), "{f}");
    }

    #[test]
    fn step_summary_renders_verdict_sections_and_failures() {
        let pass = Verdict {
            sections: vec![(
                "Deterministic work counters (exact)",
                vec!["  counter  1  1  ok".into()],
            )],
            failures: Vec::new(),
        };
        let body = render_step_summary("quick", &pass);
        assert!(
            body.contains("### perf gate (`quick` tier): PASS"),
            "{body}"
        );
        assert!(body.contains("```text\n  counter  1  1  ok\n```"), "{body}");
        let fail = Verdict {
            sections: Vec::new(),
            failures: vec!["counter drifted".into()],
        };
        let body = render_step_summary("quick", &fail);
        assert!(body.contains("FAIL"), "{body}");
        assert!(body.contains("- counter drifted"), "{body}");
    }

    /// Every `perf_gate` command line in the CI workflow, continuation
    /// lines joined, as the arguments after `--`.
    fn ci_gate_command_lines() -> Vec<Vec<String>> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
        let joined = ci.replace("\\\n", " ");
        joined
            .lines()
            .filter(|l| l.contains("--bin perf_gate"))
            .map(|l| {
                let args = l.split(" -- ").nth(1).expect("perf_gate flags after --");
                args.split_whitespace().map(str::to_string).collect()
            })
            .collect()
    }

    #[test]
    fn every_baseline_ci_names_exists_and_passes_its_own_gate() {
        // The CI workflow once gated against a tier its baseline lacked.
        // Every baseline it names must parse, accept the job's flags and
        // pass its own gate, which reads every field a run carries.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let lines = ci_gate_command_lines();
        assert_eq!(lines.len(), 4, "{lines:?}");
        let mut named = BTreeSet::new();
        for line in lines {
            let a = Args::parse(line.clone(), FLAGS).unwrap_or_else(|e| panic!("{line:?}: {e:?}"));
            let path = a.get("baseline").expect("--baseline");
            let limits = Limits::from_args(&a).unwrap();
            let doc = load(root.join(path).to_str().unwrap()).unwrap();
            let verdict = gate(&doc, &doc, &limits);
            assert!(
                verdict.failures.is_empty(),
                "{path}: {:?}",
                verdict.failures
            );
            named.insert(path.to_string());
        }
        let tiers = ["quick", "hybrid-paper", "large-ci", "hybrid-large-ci"];
        let expected: BTreeSet<String> = tiers
            .iter()
            .map(|t| format!("results/baseline/{t}.json"))
            .collect();
        assert_eq!(named, expected);
    }
}
