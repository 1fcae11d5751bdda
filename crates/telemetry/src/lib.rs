//! Deterministic observability for the CDN reproduction.
//!
//! This crate is a lightweight, vendored-`tracing`-style layer with **zero
//! external dependencies**. It provides five pieces:
//!
//! * [`Trace`] — hierarchical spans plus structured events, rendered as a
//!   JSONL stream. Records carry *deterministic* sequence numbers and
//!   per-span record counters, never timestamps: the byte stream is a pure
//!   function of the work performed, so two runs with the same seed are
//!   byte-identical regardless of `RAYON_NUM_THREADS`.
//! * [`Registry`] — a process-wide metrics registry (counters, gauges,
//!   histograms). Counters are add-only atomics, so parallel updates are
//!   commutative and totals are thread-schedule independent. Gauges and
//!   histogram fills from *parallel* sections must either be commutative
//!   (atomic adds) or performed sequentially after a deterministic merge.
//! * [`json`] — a minimal JSON writer/parser used for metrics snapshots,
//!   `hybrid-cdn report` and the bench binaries' tier-file gate (no serde
//!   in the workspace).
//! * [`profile`] — the opt-in **wall-clock** counterpart: nested timed
//!   spans exported as Chrome Trace Event Format JSON. Deliberately
//!   non-deterministic, so its output lives strictly in its own file
//!   (`--profile-out`) and never in anything byte-diffed.
//! * [`timeline`] — windowed telemetry rendering: a sparkline renderer and
//!   an OpenMetrics snapshot exporter.
//!
//! ## Determinism contract
//!
//! 1. Nothing in the trace stream or metrics snapshot derives from
//!    wall-clock time, thread ids, or pointer values. Wall-clock timings
//!    live in a separate, clearly-marked section of bench output
//!    (`BENCH_parallel.json` → `"wall_clock"`), never in byte-diffed files.
//! 2. Trace records are emitted either from sequential code, or gathered in
//!    detached [`TraceBuffer`]s inside parallel tasks and merged into the
//!    global trace in a **fixed order** (e.g. server index), so the final
//!    stream does not depend on task interleaving.
//! 3. Counter totals are sums of per-task contributions; addition is
//!    commutative, so totals are exact across thread counts — provided the
//!    *amount of work* counted is deterministic. Memoisation layers
//!    upstream account a cell's work only on the insert that fills it, so
//!    a racing worker whose copy is dropped adds nothing.
//!
//! Telemetry is disabled by default ([`enabled`] returns `false`) and all
//! instrumentation call sites are gated on it, so an uninstrumented run
//! pays one relaxed atomic load per site and nothing else.

mod event;
pub mod json;
pub mod profile;
mod registry;
pub mod timeline;
mod trace;

pub use event::Value;
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use trace::{SpanId, Trace, TraceBuffer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry collection enabled for this process?
///
/// All instrumentation sites check this first; when `false` they do no
/// other work (no allocation, no locking).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable telemetry collection.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn trace_slot() -> &'static Mutex<Option<Trace>> {
    static SLOT: OnceLock<Mutex<Option<Trace>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn lock_trace() -> MutexGuard<'static, Option<Trace>> {
    trace_slot().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Install a fresh process-wide trace sink and enable telemetry.
///
/// Any previously-buffered trace records are discarded.
pub fn install_trace() {
    set_enabled(true);
    *lock_trace() = Some(Trace::new());
}

/// Remove the process-wide trace sink, discarding buffered records.
pub fn uninstall_trace() {
    *lock_trace() = None;
}

/// Is a trace sink currently installed?
pub fn trace_installed() -> bool {
    lock_trace().is_some()
}

/// Run `f` against the installed trace, if any.
///
/// Callers in parallel sections must NOT use this directly (the emission
/// order would depend on scheduling); gather records in a [`TraceBuffer`]
/// and merge sequentially instead.
pub fn with_trace<R>(f: impl FnOnce(&mut Trace) -> R) -> Option<R> {
    lock_trace().as_mut().map(f)
}

/// Render the installed trace as JSONL and clear its records.
///
/// Returns `None` when no trace sink is installed.
pub fn drain_trace() -> Option<String> {
    lock_trace().as_mut().map(Trace::drain_jsonl)
}

/// The process-wide metrics registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Zero every counter/gauge/histogram in the global registry.
///
/// Instrument handles (`Arc<Counter>` etc.) stay valid: values are reset in
/// place, never replaced, so cached handles keep pointing at live metrics.
pub fn reset_metrics() {
    registry().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share one process; serialize them.
    fn with_global<R>(f: impl FnOnce() -> R) -> R {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall_trace();
        reset_metrics();
        set_enabled(false);
        let r = f();
        uninstall_trace();
        reset_metrics();
        set_enabled(false);
        r
    }

    #[test]
    fn disabled_by_default_and_toggles() {
        with_global(|| {
            assert!(!enabled());
            set_enabled(true);
            assert!(enabled());
        });
    }

    #[test]
    fn install_drain_roundtrip() {
        with_global(|| {
            assert!(drain_trace().is_none());
            install_trace();
            assert!(trace_installed());
            with_trace(|t| {
                let s = t.enter("root");
                t.event("ping", vec![("n", Value::U64(1))]);
                t.exit(s);
            });
            let out = drain_trace().unwrap();
            assert!(out.contains("\"name\":\"root\""));
            assert!(out.contains("\"name\":\"ping\""));
            // drain clears
            assert_eq!(drain_trace().unwrap(), "");
        });
    }

    #[test]
    fn reset_keeps_handles_live() {
        with_global(|| {
            let c = registry().counter("t.reset_keeps_handles");
            c.add(7);
            reset_metrics();
            assert_eq!(c.get(), 0);
            c.add(3);
            assert_eq!(registry().counter("t.reset_keeps_handles").get(), 3);
        });
    }
}
