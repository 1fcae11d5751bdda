//! The one output sink: checks that every destination a command line
//! asked for can be written, switches telemetry on for them, buffers each
//! simulation's sampled requests and windowed timeline, and writes every
//! output file at the end of the run. Commands check their other output
//! paths with [`check_writable`] too, so a bad path fails a run before it
//! writes anything.
//!
//! Every output except the profile is deterministic: no timestamps or
//! thread ids, byte-identical at any thread and shard count. Wall-clock
//! timings go only to the profile, so turning it on never changes a byte
//! of the other files.

use crate::args::Args;
use cdn_core::sim::{self, SimReport, Timeline};
use cdn_telemetry as telemetry;
use std::path::{Path, PathBuf};

/// Where a run's outputs go; an absent destination is not written.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Destinations {
    /// Each copy of the metrics snapshot.
    pub metrics: Vec<PathBuf>,
    /// The JSONL span/event trace.
    pub trace: Option<PathBuf>,
    /// The wall-clock Chrome trace profile.
    pub profile: Option<PathBuf>,
    /// Sampled request paths, as JSONL.
    pub samples: Option<PathBuf>,
    /// The windowed timeline, as JSON.
    pub timeline_json: Option<PathBuf>,
    /// The windowed timeline's global section, as CSV.
    pub timeline_csv: Option<PathBuf>,
}

impl Destinations {
    /// The destinations a command line names: `--metrics-out`,
    /// `--trace-out`, `--profile-out`, `--samples-out` and `--timeline-out`.
    pub fn from_args(a: &Args) -> Self {
        let path = |key| a.get(key).map(PathBuf::from);
        Self {
            metrics: path("metrics-out").into_iter().collect(),
            trace: path("trace-out"),
            profile: path("profile-out"),
            samples: path("samples-out"),
            timeline_json: path("timeline-out"),
            timeline_csv: None,
        }
    }

    /// Every path these destinations write.
    fn paths(&self) -> impl Iterator<Item = &Path> {
        let single = [
            &self.trace,
            &self.profile,
            &self.samples,
            &self.timeline_json,
            &self.timeline_csv,
        ];
        let single = single.into_iter().flatten();
        self.metrics.iter().chain(single).map(PathBuf::as_path)
    }
}

/// Collects a run's outputs and writes them at [`Sink::flush`].
pub struct Sink {
    dest: Destinations,
    samples: String,
    timelines: Vec<(String, Timeline)>,
}

impl Sink {
    /// Check that every destination can be written ([`check_writable`]),
    /// then turn telemetry on (from a reset registry) if and only if a
    /// metrics or trace destination exists, and install the trace recorder
    /// and the profiler when their files are wanted.
    pub fn install(dest: Destinations) -> Result<Self, String> {
        check_writable(dest.paths())?;
        if !dest.metrics.is_empty() || dest.trace.is_some() {
            telemetry::reset_metrics();
            telemetry::set_enabled(true);
        }
        if dest.trace.is_some() {
            telemetry::install_trace();
        }
        if dest.profile.is_some() {
            telemetry::profile::install();
        }
        Ok(Self {
            dest,
            samples: String::new(),
            timelines: Vec::new(),
        })
    }

    /// Buffer `report`'s sampled request paths and windowed timeline under
    /// `run`, which must tell this simulation apart from the run's others.
    pub fn record(&mut self, run: &str, report: &SimReport) {
        if self.dest.samples.is_some() {
            sim::render_samples_jsonl(run, report, &mut self.samples);
        }
        let wants_timeline = self.dest.timeline_json.is_some() || self.dest.timeline_csv.is_some();
        if let (true, Some(tl)) = (wants_timeline, &report.timeline) {
            self.timelines.push((run.to_string(), tl.clone()));
        }
    }

    /// Write the metrics snapshot, trace, samples, timeline and profile to
    /// each destination, in that order.
    pub fn flush(self) -> Result<(), String> {
        let dest = &self.dest;
        if !dest.metrics.is_empty() {
            let snapshot = telemetry::registry().snapshot_json();
            for path in &dest.metrics {
                write(path, &snapshot, "metrics snapshot")?;
            }
        }
        if let Some(path) = &dest.trace {
            let jsonl = telemetry::drain_trace().unwrap_or_default();
            write(path, &jsonl, "event trace")?;
        }
        if let Some(path) = &dest.samples {
            write(path, &self.samples, "sampled requests")?;
        }
        if let Some(path) = &dest.timeline_json {
            let body = sim::render_timeline_json(&self.timelines);
            write(path, &body, "windowed timeline")?;
        }
        if let Some(path) = &dest.timeline_csv {
            let body = sim::render_timeline_csv(&self.timelines);
            write(path, &body, "windowed timeline")?;
        }
        if let Some(path) = &dest.profile {
            let profile = telemetry::profile::drain_chrome_trace().unwrap_or_default();
            write(path, &profile, "wall-clock profile")?;
        }
        Ok(())
    }
}

/// Check, before any work, that each of `paths` can be written: its
/// parent directory exists and the path is not a directory. A run that
/// would fail writing one of them then fails before it writes any other.
pub fn check_writable<'a>(paths: impl IntoIterator<Item = &'a Path>) -> Result<(), String> {
    for path in paths {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = parent.filter(|dir| !dir.is_dir()) {
            return Err(format!(
                "cannot write {}: no directory {}",
                path.display(),
                dir.display()
            ));
        }
        if path.is_dir() {
            return Err(format!(
                "cannot write {}: it is a directory",
                path.display()
            ));
        }
    }
    Ok(())
}

/// Write `body` to `path` and report the path on stdout.
pub fn write(path: &Path, body: &str, what: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("writing {what} to {}: {e}", path.display()))?;
    println!("  wrote {}", path.display());
    Ok(())
}
