//! The repository benchmark: three workloads run through the public API of
//! `cdn-core` and the substrate crates, timed end to end or, with
//! `--trace 1`, decomposed layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-hybrid|fleet-faults|replay-delayed> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run it from the repository root. One iteration (setup → plan → simulate
//! → check) is one operation and runs in a process of its own, so memory
//! and allocator state start clean as in one invocation of the library;
//! iterations repeat for `--seconds` and at least three times, and every
//! end-to-end metric is the median over them.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (`{name: {value, unit}}`):
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. `BENCHMARK.json` lists both sets.

mod check;
mod pipeline;
mod spans;
mod traced;

use pipeline::{Measured, Sample, Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Transient files (the exported trace, the span file), relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: cdn-perfbench --workload <paper-hybrid|fleet-faults|replay-delayed> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the process the benchmark starts for iteration n: run it and
    /// print its [`Sample`] line.
    iteration: Option<u64>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut iteration) =
        (None, pipeline::DEFAULT_SEED, 10, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(&value)?),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--iteration" => iteration = Some(number()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        iteration,
    })
}

/// Run iteration `n` in a process of its own and read back its sample.
fn run_child(args: &Args, n: u64) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--iteration", &n.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the iteration process: {e}"))?;
    if !out.status.success() {
        return Err(format!("the iteration process exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Sample::parse(stdout.lines().last().unwrap_or_default())
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("setting the thread count cannot fail");
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: creating {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    if let Some(n) = args.iteration {
        let run = || pipeline::run_once(args.workload, Scale::Full, args.seed, out_dir);
        match pipeline::guarded(run) {
            Ok(sample) => println!("{}", sample.to_line()),
            Err(e) => {
                eprintln!("  iteration {n} failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "machine: available_parallelism {threads}, threads {threads}, commit {}, \
         sources {:016x}",
        commit(),
        source_digest()
    );
    if !pipeline::reset_peak_rss() {
        println!(
            "note: the kernel refused the peak-RSS reset; peak_rss_mb and setup_rss_mb \
             cover the whole process up to the end of each phase"
        );
    }

    let measured = pipeline::measure(args.seconds as f64, |n| run_child(&args, n));
    let (mut attempted, mut failed) = (measured.attempted, measured.failed);
    let metrics = if args.trace {
        attempted += 1;
        let traced = pipeline::guarded(|| {
            traced::run(args.workload, Scale::Full, args.seed, &measured, out_dir)
        });
        traced.unwrap_or_else(|e| {
            failed += 1;
            eprintln!("traced iteration failed: {e}");
            Vec::new()
        })
    } else {
        end_to_end(&measured)
    };
    let correct = failed == 0 && !metrics.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    for m in &metrics {
        println!("{:<34} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
}

/// The end-to-end metrics: medians over the successful iterations. The
/// plan phase's time is a per-layer metric of the traced run: on the
/// planner-free `replay-delayed` it lasts milliseconds, too short to bound.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    if m.samples.is_empty() {
        return Vec::new();
    }
    let med = |f: fn(&pipeline::Sample) -> f64| pipeline::median(m.samples.iter().map(f).collect());
    vec![
        Metric::new("total_s", med(|s| s.total_s), "s"),
        Metric::new("setup_s", med(|s| s.setup_s), "s"),
        Metric::new(
            "requests_per_s",
            med(pipeline::Sample::requests_per_s),
            "req/s",
        ),
        Metric::new("peak_rss_mb", med(|s| s.peak_rss_mb), "MB"),
        Metric::new("setup_rss_mb", med(|s| s.setup_rss_mb), "MB"),
    ]
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The commit checked out in the working directory, or "unknown" outside a
/// git work tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the path and contents of the root manifests and every file
/// under `crates/` and `vendor/`, in path order: names the code measured
/// where no commit is available.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for path in entries.flatten().map(|e| e.path()) {
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut h = check::Fnv::new();
    for path in files {
        if let Ok(bytes) = std::fs::read(&path) {
            h.bytes(path.to_string_lossy().as_bytes());
            h.bytes(&bytes);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_telemetry::json;

    /// The metric names `BENCHMARK.json` lists under `key`.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("a named metric")
                    .into()
            })
            .collect()
    }

    /// The harness self-test: every workload at `ScenarioConfig::small()`
    /// size passes its output check untraced, and its traced run nests its
    /// spans, sums its per-server counters to the system report, and
    /// reports every metric `BENCHMARK.json` lists.
    #[test]
    fn every_workload_checks_and_traces_at_small_scale() {
        let out = Path::new(OUT_DIR);
        std::fs::create_dir_all(out).unwrap();
        for w in Workload::ALL {
            let measured = pipeline::measure(0.0, |_| {
                let sample = pipeline::run_once(w, Scale::Small, pipeline::DEFAULT_SEED, out)?;
                let back = Sample::parse(&sample.to_line())?;
                assert_eq!(back, sample, "the iteration line must round-trip");
                Ok(back)
            });
            assert_eq!(measured.failed, 0, "{}", w.name());
            let names: Vec<String> = end_to_end(&measured).into_iter().map(|m| m.name).collect();
            assert_eq!(names, listed("end_to_end"), "{}", w.name());

            let layers = traced::run(w, Scale::Small, pipeline::DEFAULT_SEED, &measured, out)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(layers.iter().all(|m| m.value.is_finite()), "{}", w.name());
            let names: Vec<String> = layers.into_iter().map(|m| m.name).collect();
            let mut expected = listed("per_layer");
            if rayon::current_num_threads() < 2 {
                expected.retain(|n| !n.ends_with(".speedup"));
            }
            assert_eq!(names, expected, "{}", w.name());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload fleet-faults --seed 3 --seconds 5 --trace 1").unwrap();
        assert!(a.trace && a.seed == 3 && a.seconds == 5);
        assert_eq!(a.workload, Workload::FleetFaults);
        for bad in [
            "",
            "--workload nope",
            "--workload paper-hybrid --trace 2",
            "--workload paper-hybrid --seed x",
            "--workload paper-hybrid --bogus 1",
            "--workload paper-hybrid --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
