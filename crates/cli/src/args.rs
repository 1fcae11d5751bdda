//! The one command-line parser behind `hybrid-cdn` and the bench binaries:
//! `--key value` options and `--switch`es, checked against the command's
//! flag table, with no external dependency. Every token must be a flag of
//! the table, and a flag that takes a value must get one, so a typo or a
//! dropped value fails loudly instead of running something else.

use std::collections::HashMap;
use std::fmt::Write as _;

/// One accepted flag, declared by its line in the generated `--help`:
/// `--name <value>  what it does` for a flag that takes a value, and
/// `--name  what it does` for a switch, which takes none.
pub type Flag = &'static str;

/// A command's flag table, in groups that commands share.
pub type Table<'a> = &'a [&'a [Flag]];

pub const THREADS: Flag = "--threads <n>  rayon thread-pool size, at least 1 (default: all cores)";
pub const TRACE_OUT: Flag = "--trace-out <path>  write the deterministic JSONL span/event trace";
pub const METRICS_OUT: Flag = "--metrics-out <path>  write the counters/gauges/histograms snapshot";
pub const PROFILE_OUT: Flag =
    "--profile-out <path>  write a WALL-CLOCK Chrome trace profile (chrome://tracing, Perfetto)";
pub const SAMPLE_EVERY: Flag =
    "--sample-every <n>  sample every nth request of each server stream, n at least 1";
pub const WINDOW: Flag =
    "--window <n>  bucket measured requests into n-tick virtual-time windows (0 = off)";

/// `flag`'s name without its dashes, and the placeholder of its value
/// (`None` for a switch).
pub fn declared(flag: Flag) -> (&'static str, Option<&'static str>) {
    let (spec, _) = split(flag);
    let mut words = spec.split_whitespace();
    let name = words.next().and_then(|w| w.strip_prefix("--"));
    (name.expect("a flag line starts with --name"), words.next())
}

/// A flag line's `--name <value>` part and its description.
fn split(flag: Flag) -> (&'static str, &'static str) {
    flag.split_once("  ")
        .map_or((flag, ""), |(spec, about)| (spec, about.trim_start()))
}

/// Why [`Args::parse`] returned no arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` or `-h`: print the usage and succeed.
    Help,
    /// A bad command line, and why.
    Bad(String),
}

/// A parsed command line: each given flag and its value (`"true"` for a
/// switch).
#[derive(Debug, Clone, Default)]
pub struct Args {
    options: HashMap<String, String>,
}

impl Args {
    /// Parse `raw` (without the program or command name) against `flags`.
    /// A flag outside the table, a positional argument, or a value flag
    /// with no value (none left, or the next token is itself a `--flag`)
    /// is an error. A flag given twice keeps its last value.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I, table: Table) -> Result<Self, ArgError> {
        let flags = || table.iter().flat_map(|group| group.iter());
        let mut options = HashMap::new();
        let mut raw = raw.into_iter();
        while let Some(arg) = raw.next() {
            if arg == "--help" || arg == "-h" {
                return Err(ArgError::Help);
            }
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError::Bad(format!(
                    "unexpected argument '{arg}': every argument is a --flag"
                )));
            };
            let Some((_, placeholder)) = flags().map(|f| declared(f)).find(|f| f.0 == key) else {
                let names: Vec<&str> = flags().map(|f| split(f).0).collect();
                return Err(ArgError::Bad(format!(
                    "unknown option --{key}; expected one of: {}",
                    names.join(", ")
                )));
            };
            let value = match placeholder {
                None => "true".to_string(),
                Some(shown) => match raw.next() {
                    Some(v) if !v.starts_with("--") => v,
                    _ => {
                        return Err(ArgError::Bad(format!(
                            "--{key} needs a value: --{key} {shown}"
                        )))
                    }
                },
            };
            options.insert(key.to_string(), value);
        }
        Ok(Self { options })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    fn get_as<T: std::str::FromStr>(&self, key: &str, default: T, kind: &str) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects {kind}, got '{v}'")),
        }
    }

    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        self.get_as(key, default, "a number")
    }

    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        self.get_as(key, default, "an integer")
    }

    /// `key`'s value, which must be a positive, finite number.
    pub fn get_positive(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match self.get_f64(key, 0.0)? {
                x if x.is_finite() && x > 0.0 => Ok(Some(x)),
                _ => Err(format!(
                    "--{key} must be a positive, finite number, got {v}"
                )),
            },
        }
    }

    fn at_least_one(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => match self.get_u64(key, 0)? {
                0 => Err(format!("--{key} must be at least 1")),
                n => Ok(Some(n)),
            },
        }
    }

    /// Size the global rayon pool from `--threads` (at least 1) before any
    /// parallel region runs, and return its worker count. Results are
    /// bit-identical at any thread count, so this is purely a speed knob.
    pub fn thread_pool(&self) -> Result<usize, String> {
        if let Some(n) = self.at_least_one("threads")? {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n as usize)
                .build_global()
                .map_err(|e| format!("--threads: {e}"))?;
        }
        Ok(rayon::current_num_threads())
    }

    /// `--sample-every`, at least 1; 0 (no sampling) when absent.
    pub fn sample_every(&self) -> Result<u64, String> {
        Ok(self.at_least_one("sample-every")?.unwrap_or(0))
    }

    /// `--window`; 0, the default, is the off value, so it parses cleanly.
    pub fn window(&self) -> Result<u64, String> {
        self.get_u64("window", 0)
    }
}

/// The `--help` text of `command`, generated from its flag table.
pub fn usage(command: &str, table: Table) -> String {
    let lines: Vec<_> = table
        .iter()
        .flat_map(|group| group.iter())
        .chain(&["--help  print this message"])
        .map(|f| split(f))
        .collect();
    let width = lines.iter().map(|(spec, _)| spec.len()).max().unwrap_or(0);
    let mut out = format!("usage: {command} [options]\n\n");
    for (spec, about) in lines {
        let _ = writeln!(out, "  {spec:<width$}  {about}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        "--capacity <f>",
        "--seed <n>",
        "--dot <path>",
        "--out <path>",
        "--quick  a switch",
        THREADS,
        TRACE_OUT,
        METRICS_OUT,
        PROFILE_OUT,
        SAMPLE_EVERY,
        WINDOW,
    ];

    fn parse(line: &str) -> Result<Args, ArgError> {
        Args::parse(line.split_whitespace().map(str::to_string), &[FLAGS])
    }

    fn bad(line: &str) -> String {
        match parse(line) {
            Err(ArgError::Bad(msg)) => msg,
            other => panic!("{line}: expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = parse("--capacity 0.1 --seed 42").unwrap();
        assert_eq!(a.get("capacity"), Some("0.1"));
        assert_eq!(a.get_f64("capacity", 0.0).unwrap(), 0.1);
        assert_eq!(a.get_u64("seed", 0).unwrap(), 42);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("").unwrap();
        assert_eq!(a.get_f64("capacity", 0.05).unwrap(), 0.05);
        assert!(!a.has("capacity"));
        assert_eq!(a.sample_every(), Ok(0));
        assert_eq!(a.window(), Ok(0));
    }

    #[test]
    fn bare_flags_are_true() {
        let a = parse("--quick --dot out.dot").unwrap();
        assert_eq!(a.get("quick"), Some("true"));
        assert!(a.has("quick"));
        assert_eq!(a.get("dot"), Some("out.dot"));
        // A switch takes no value, so a token after it is a stray positional.
        assert!(bad("--quick yes").contains("'yes'"));
    }

    #[test]
    fn unknown_option_rejected() {
        let err = bad("--bogus 1");
        assert!(err.contains("--bogus"));
        assert!(err.contains("--capacity <f>"));
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        // A typo like `fig3 --qiuck` once ran the full paper scale.
        assert!(bad("--qiuck").contains("--qiuck"));
        // `hybrid-cdn compare 0.1` once dropped the `0.1` and ran.
        assert!(bad("0.1").contains("'0.1'"));
        assert!(bad("--capacity 0.2 extra").contains("'extra'"));
    }

    #[test]
    fn missing_or_bad_values_are_rejected() {
        for flag in ["--threads", "--trace-out", "--metrics-out", "--profile-out"] {
            assert!(bad(flag).contains(flag), "{flag}");
        }
        // `compare --trace-out --metrics-out m.json` once wrote the trace
        // to a file named `true`, `fig6 --trace-out --quick` took `--quick`
        // as the trace path and ran at paper scale, and `ingest --out`
        // wrote a trace named `true`.
        assert!(bad("--trace-out --metrics-out m.json").contains("--trace-out <path>"));
        assert!(bad("--trace-out --quick").contains("--trace-out <path>"));
        assert!(bad("--out").contains("--out <path>"));

        let value = |line| parse(line).unwrap();
        assert!(value("--threads zero").thread_pool().is_err());
        assert!(value("--threads 0").thread_pool().is_err());
        assert_eq!(value("--threads 3").thread_pool(), Ok(3));
        assert!(value("--sample-every many").sample_every().is_err());
        assert!(value("--sample-every 0").sample_every().is_err());
        assert_eq!(value("--sample-every 9").sample_every(), Ok(9));
        assert!(value("--window wide").window().is_err());
        // --window 0 is the documented off switch, never an error.
        assert_eq!(value("--window 0").window(), Ok(0));
    }

    #[test]
    fn help_is_distinguished_from_errors() {
        assert_eq!(parse("--help").unwrap_err(), ArgError::Help);
        assert_eq!(parse("-h").unwrap_err(), ArgError::Help);
        // `hybrid-cdn compare --help` once failed with "unknown option".
        assert_eq!(parse("--seed 1 --help").unwrap_err(), ArgError::Help);
        let text = usage("fig3", &[&["--quick  a switch"], &[TRACE_OUT]]);
        assert!(text.starts_with("usage: fig3"), "{text}");
        assert!(text.contains("  --quick             a switch\n"), "{text}");
        assert!(text.contains("--trace-out <path>  write the"), "{text}");
        assert!(text.contains("--help"), "{text}");
        assert_eq!(declared("--quick  a switch"), ("quick", None));
        assert_eq!(declared(TRACE_OUT), ("trace-out", Some("<path>")));
    }

    #[test]
    fn bad_number_reported() {
        let a = parse("--capacity lots").unwrap();
        assert!(a.get_f64("capacity", 0.0).is_err());
    }

    #[test]
    fn last_value_wins() {
        let a = parse("--seed 1 --seed 2").unwrap();
        assert_eq!(a.get_u64("seed", 0).unwrap(), 2);
    }
}
