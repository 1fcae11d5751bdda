//! A sweep of every value flag of every `hybrid-cdn` command. Each flag
//! runs alone against an adversarial pool of values chosen by its
//! placeholder, and each ordered pair of a command's output flags runs with
//! one writable and one unwritable path. Every command line must exit 0 or
//! 1, never panic (exit 101) and never die by a signal, and one that exits
//! 1 must print `error: …` and leave its working directory as it found it.
//!
//! The flags come from each command's own `--help`, which is generated
//! from its flag table, so a new flag is swept without editing this file.
//! Every case runs at `--scale small`, one process per case in a fresh
//! working directory, as many at a time as the host has cores, each with
//! one rayon thread. Values that would make a case large are skipped: a
//! `--threads` above the core count, `--sites` or `--objects` above 1000,
//! and a `--sample-every` or `--window` in 1..1000.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_hybrid-cdn");

const COMMANDS: [&str; 6] = [
    "compare", "plan", "ingest", "topology", "workload", "report",
];

/// The placeholders of number flags, and the values each one gets.
const NUMBER_PLACEHOLDERS: [&str; 4] = ["<f>", "<n>", "<ticks>", "<ms>"];
const NUMBERS: [&str; 11] = [
    "0",
    "-1",
    "nan",
    "inf",
    "-inf",
    "1e-300",
    "1e308",
    "18446744073709551615",
    "18446744073709551616",
    "",
    "abc",
];

/// The placeholders of name flags. Each gets an empty and an unknown name
/// plus every valid one ([`valid_names`]).
const NAME_PLACEHOLDERS: [&str; 3] = ["<tier>", "<mode>", "<name>"];
const BAD_NAMES: [&str; 2] = ["", "bogus"];

/// The values of a `<path>` flag, relative to the case's working
/// directory, which [`Workdir::new`] fills: a missing file, an empty file,
/// random bytes, a directory, and a path under a missing directory.
const PATHS: [&str; 5] = ["missing.out", "empty", "random.bin", "dir", "nodir/x.out"];

/// The paths of an output pair: a writable one, and each unwritable one.
const WRITABLE: &str = "a.out";
const UNWRITABLE: [&str; 2] = ["dir", "nodir/b.out"];

/// The value a `(required)` path flag gets when it is not under test.
const REQUIRED_PATH: &str = "base.out";

/// Longest one case may run before it counts as hung.
const CASE_LIMIT: Duration = Duration::from_secs(60);

/// One value flag, as its command's `--help` lists it.
struct Flag {
    name: String,
    placeholder: String,
    about: String,
    /// The names a name flag accepts.
    names: Vec<String>,
}

impl Flag {
    fn is_output(&self) -> bool {
        self.placeholder == "<path>" && self.about.starts_with("write")
    }

    /// The adversarial values this flag runs with.
    fn pool(&self) -> Vec<String> {
        let p = self.placeholder.as_str();
        if NUMBER_PLACEHOLDERS.contains(&p) {
            NUMBERS.iter().map(|v| v.to_string()).collect()
        } else if p == "<path>" {
            PATHS.iter().map(|v| v.to_string()).collect()
        } else if NAME_PLACEHOLDERS.contains(&p) {
            let bad = BAD_NAMES.iter().map(|v| v.to_string());
            bad.chain(self.names.iter().cloned()).collect()
        } else {
            panic!("--{} {p}: give this placeholder a pool", self.name)
        }
    }

    /// Whether `value` would make the case large: more threads than cores,
    /// a big catalog, a paper-sized scale, or a fine sampler or window.
    fn too_large(&self, value: &str, cores: u64) -> bool {
        let n = value.parse::<u64>().ok();
        match self.name.as_str() {
            "threads" => n.is_some_and(|n| n > cores),
            "sites" | "objects" => n.is_some_and(|n| n > 1000),
            "sample-every" | "window" => n.is_some_and(|n| (1..1000).contains(&n)),
            "scale" => value != "small" && self.names.iter().any(|v| v == value),
            _ => false,
        }
    }
}

/// The standard output of `hybrid-cdn <args>`, which must succeed.
fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run hybrid-cdn");
    assert!(
        out.status.success(),
        "hybrid-cdn {args:?}: {:?}",
        out.status
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The names `text` lists as `a | b | c`.
fn listed(text: &str) -> Vec<String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    (0..words.len())
        .filter(|&i| words[i] != "|")
        .filter(|&i| words.get(i + 1) == Some(&"|") || i > 0 && words[i - 1] == "|")
        .map(|i| words[i].to_string())
        .collect()
}

/// The names `--flag` accepts: those its `--help` line (`about`) lists,
/// else those of the section headed `(for --flag):` in `hybrid-cdn help`
/// (`overview`), else its `(default x)`. A listed `x:<placeholder>` stands
/// for `x:` followed by each of [`NUMBERS`].
fn valid_names(flag: &str, about: &str, overview: &str) -> Vec<String> {
    let mut names = listed(about);
    if names.is_empty() {
        if let Some((_, rest)) = overview.split_once(&format!("(for --{flag}):")) {
            names = listed(rest.split("\n\n").next().unwrap_or_default());
        }
    }
    if names.is_empty() {
        if let Some((_, rest)) = about.split_once("(default ") {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(rest.len());
            names.push(rest[..end].to_string());
        }
    }
    let expand = |name: String| match name.split_once(":<") {
        Some((prefix, _)) => NUMBERS.iter().map(|v| format!("{prefix}:{v}")).collect(),
        None => vec![name],
    };
    names.into_iter().flat_map(expand).collect()
}

/// The value flags of `command`, read from its `--help`.
fn value_flags(command: &str, overview: &str) -> Vec<Flag> {
    let help = stdout_of(&[command, "--help"]);
    let flags: Vec<Flag> = help
        .lines()
        .filter_map(|line| {
            let (spec, about) = line.trim_start().split_once("  ")?;
            let mut words = spec.split_whitespace();
            let name = words.next()?.strip_prefix("--")?;
            let about = about.trim_start();
            Some(Flag {
                name: name.to_string(),
                placeholder: words.next()?.to_string(),
                about: about.to_string(),
                names: valid_names(name, about, overview),
            })
        })
        .collect();
    assert!(
        !flags.is_empty(),
        "{command} --help lists no value flag:\n{help}"
    );
    flags
}

/// One command line to run.
struct Case {
    command: &'static str,
    args: Vec<String>,
}

impl Case {
    fn shown(&self) -> String {
        let args = self.args.iter().map(|a| match a.as_str() {
            "" => "''",
            a => a,
        });
        std::iter::once(self.command)
            .chain(args)
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Every case of every command, how many values were skipped as too
/// large, and how many value flags the commands have.
fn cases(cores: u64) -> (Vec<Case>, usize, usize) {
    let (mut cases, mut skipped, mut n_flags) = (Vec::new(), 0, 0);
    let overview = stdout_of(&["help"]);
    for command in COMMANDS {
        let flags = value_flags(command, &overview);
        n_flags += flags.len();
        // Every case runs at small scale and with its command's required
        // flags, which the case's own flag overrides (the last value wins).
        let mut base = Vec::new();
        if flags.iter().any(|f| f.name == "scale") {
            base.extend(["--scale".to_string(), "small".to_string()]);
        }
        for f in flags.iter().filter(|f| f.about.contains("(required)")) {
            assert_eq!(
                f.placeholder, "<path>",
                "--{}: give it a base value",
                f.name
            );
            base.extend([format!("--{}", f.name), REQUIRED_PATH.to_string()]);
        }
        let with = |pairs: &[(&str, &str)]| {
            let mut args = base.clone();
            for (name, value) in pairs {
                args.extend([format!("--{name}"), value.to_string()]);
            }
            Case { command, args }
        };
        for flag in &flags {
            for value in flag.pool() {
                if flag.too_large(&value, cores) {
                    skipped += 1;
                } else {
                    cases.push(with(&[(flag.name.as_str(), value.as_str())]));
                }
            }
        }
        let outputs: Vec<&Flag> = flags.iter().filter(|f| f.is_output()).collect();
        for a in &outputs {
            for b in outputs.iter().filter(|b| b.name != a.name) {
                for bad in UNWRITABLE {
                    cases.push(with(&[(a.name.as_str(), WRITABLE), (b.name.as_str(), bad)]));
                }
            }
        }
    }
    (cases, skipped, n_flags)
}

/// A case's working directory with the fixtures [`PATHS`] names.
struct Workdir(PathBuf);

impl Workdir {
    fn new(root: &Path, index: usize) -> Self {
        let dir = root.join(format!("case{index}"));
        fs::create_dir_all(dir.join("dir")).unwrap();
        fs::write(dir.join("empty"), b"").unwrap();
        fs::write(dir.join("random.bin"), random_bytes(index as u64, 1024)).unwrap();
        Self(dir)
    }

    /// Every file and directory under the working directory, with each
    /// file's bytes.
    fn snapshot(&self) -> BTreeMap<PathBuf, Option<Vec<u8>>> {
        fn walk(dir: &Path, base: &Path, out: &mut BTreeMap<PathBuf, Option<Vec<u8>>>) {
            for entry in fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                let rel = path.strip_prefix(base).unwrap().to_path_buf();
                if path.is_dir() {
                    out.insert(rel, None);
                    walk(&path, base, out);
                } else {
                    out.insert(rel, Some(fs::read(&path).unwrap()));
                }
            }
        }
        let mut out = BTreeMap::new();
        walk(&self.0, &self.0, &mut out);
        out
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Deterministic xorshift bytes.
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Run `case` in a fresh working directory under `root`, and say what it
/// did wrong.
fn run(case: &Case, index: usize, root: &Path) -> Result<(), String> {
    let workdir = Workdir::new(root, index);
    let before = workdir.snapshot();
    let stderr_path = root.join(format!("case{index}.stderr"));
    let mut child = Command::new(BIN)
        .arg(case.command)
        .args(&case.args)
        .current_dir(&workdir.0)
        .env("RAYON_NUM_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(fs::File::create(&stderr_path).unwrap())
        .spawn()
        .unwrap();
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > CASE_LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "{}: still running after {CASE_LIMIT:?}",
                case.shown()
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let stderr = String::from_utf8_lossy(&fs::read(&stderr_path).unwrap()).into_owned();
    let _ = fs::remove_file(&stderr_path);
    let last = stderr.lines().last().unwrap_or("");
    match status.code() {
        Some(0) => Ok(()),
        Some(1) if !stderr.contains("error: ") => Err(format!(
            "{}: exit 1 without `error: …`: {last}",
            case.shown()
        )),
        Some(1) => {
            let after = workdir.snapshot();
            let changed: Vec<String> = before
                .keys()
                .chain(after.keys())
                .filter(|path| before.get(*path) != after.get(*path))
                .map(|path| path.display().to_string())
                .collect();
            if changed.is_empty() {
                Ok(())
            } else {
                Err(format!("{}: exit 1 left {changed:?}", case.shown()))
            }
        }
        Some(code) => Err(format!("{}: exit {code}: {stderr}", case.shown())),
        None => Err(format!("{}: killed by a signal: {last}", case.shown())),
    }
}

#[test]
fn every_value_flag_exits_cleanly_and_leaves_nothing_on_error() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (cases, skipped, n_flags) = cases(cores as u64);
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("flag_sweep");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();

    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(case) = cases.get(index) else { break };
                if let Err(e) = run(case, index, &root) {
                    failures.lock().unwrap().push(e);
                }
            });
        }
    });
    let _ = fs::remove_dir_all(&root);
    eprintln!(
        "{} cases over {n_flags} value flags ({skipped} values skipped as too large) \
         in {:.1} s on {cores} core(s)",
        cases.len(),
        start.elapsed().as_secs_f64()
    );
    let mut failures = failures.into_inner().unwrap();
    failures.sort();
    assert!(
        failures.is_empty(),
        "{} of {} cases failed:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}
