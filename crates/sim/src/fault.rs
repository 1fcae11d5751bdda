//! Deterministic fault injection: per-server crash/recovery windows and
//! origin outages, precomputed before the simulation loop so parallel runs
//! stay reproducible.
//!
//! Time is *virtual*: one tick per request in each server's stream. A
//! server with MTTF `f` and MTTR `r` alternates exponentially distributed
//! up-windows (mean `f` ticks) and down-windows (mean `r` ticks), giving a
//! long-run availability of `f / (f + r)`. Origin outages are a single
//! shared alternating process tuned to spend a target fraction of ticks
//! down. Every window is derived from [`FaultParams::seed`] via per-process
//! sub-seeds, so the schedule depends only on the parameters — never on
//! thread scheduling or wall-clock time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault-model parameters. All times are in ticks (requests into the
/// server's own stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultParams {
    /// Mean ticks between failures for each CDN server. `f64::INFINITY`
    /// (the default) disables server crashes.
    pub mttf: f64,
    /// Mean ticks to repair a crashed server.
    pub mttr: f64,
    /// Long-run fraction of ticks the primary (origin) sites are
    /// unreachable, in `[0, 1)`. 0 disables origin outages.
    pub origin_outage: f64,
    /// Latency penalty per dead holder skipped during failover, ms — the
    /// cost of a timed-out connection attempt before retrying the next
    /// copy. At most [`MAX_RETRY_PENALTY_MS`]; the engine charges it in
    /// whole microseconds ([`Self::retry_penalty_us`]).
    pub retry_penalty_ms: f64,
    /// Seed for the schedule; independent of the workload seed.
    pub seed: u64,
}

/// Largest accepted [`FaultParams::retry_penalty_ms`]: one hour. A request
/// skips at most `u32::MAX` dead holders, so its latency in µs — hops plus
/// one penalty per skip — always fits in a `u64`.
pub const MAX_RETRY_PENALTY_MS: f64 = 3_600_000.0;

impl Default for FaultParams {
    fn default() -> Self {
        Self {
            mttf: f64::INFINITY,
            mttr: 500.0,
            origin_outage: 0.0,
            retry_penalty_ms: 200.0,
            seed: 0,
        }
    }
}

impl FaultParams {
    /// Check every rule of these parameters: a positive MTTF (`inf`, the
    /// default, means "never fails"; NaN is rejected), a positive, finite
    /// MTTR, an origin-outage fraction in `[0, 1)`, and a retry penalty in
    /// `[0, MAX_RETRY_PENALTY_MS]`. The error names the field and its value.
    pub fn validate(&self) -> Result<(), String> {
        if self.mttf.is_nan() || self.mttf <= 0.0 {
            return Err(format!("mttf must be positive, got {}", self.mttf));
        }
        if !(self.mttr > 0.0 && self.mttr.is_finite()) {
            return Err(format!(
                "mttr must be positive and finite, got {}",
                self.mttr
            ));
        }
        if !(0.0..1.0).contains(&self.origin_outage) {
            return Err(format!(
                "origin_outage must be in [0, 1), got {}",
                self.origin_outage
            ));
        }
        if !(0.0..=MAX_RETRY_PENALTY_MS).contains(&self.retry_penalty_ms) {
            return Err(format!(
                "retry_penalty_ms must be in [0, {MAX_RETRY_PENALTY_MS}], got {}",
                self.retry_penalty_ms
            ));
        }
        Ok(())
    }

    /// The retry penalty in whole microseconds, the unit the engine
    /// accounts latency in.
    pub fn retry_penalty_us(&self) -> u64 {
        (self.retry_penalty_ms * 1000.0).round() as u64
    }

    /// True when these parameters can never take anything down — the
    /// simulation must then be bit-identical to a run without fault
    /// injection at all.
    pub fn is_zero_fault(&self) -> bool {
        self.mttf.is_infinite() && self.origin_outage == 0.0
    }
}

/// Precomputed down-windows for every server plus the origins. Windows are
/// half-open `[start, end)` tick intervals, sorted and disjoint. A server
/// without a row, like every server of the empty [`Default`] schedule, is
/// never down.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    down: Vec<Vec<(u64, u64)>>,
    origin_down: Vec<(u64, u64)>,
}

/// Exponential draw with the given mean; returns infinity for an infinite
/// mean (the "never fails" case).
fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    if mean.is_infinite() {
        return f64::INFINITY;
    }
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

/// Alternating up/down renewal process truncated to `[0, horizon)`. Every
/// window is at least one tick long so a scheduled fault is never rounded
/// away.
fn alternating_windows(
    rng: &mut StdRng,
    mean_up: f64,
    mean_down: f64,
    horizon: u64,
) -> Vec<(u64, u64)> {
    let mut windows = Vec::new();
    let mut t = 0u64;
    loop {
        let up = sample_exp(rng, mean_up);
        if !up.is_finite() || up >= (horizon - t) as f64 {
            break;
        }
        t += (up.ceil() as u64).max(1);
        if t >= horizon {
            break;
        }
        let down = (sample_exp(rng, mean_down).ceil() as u64).max(1);
        let end = t.saturating_add(down).min(horizon);
        windows.push((t, end));
        t = end;
        if t >= horizon {
            break;
        }
    }
    windows
}

fn in_windows(windows: &[(u64, u64)], tick: u64) -> bool {
    let idx = windows.partition_point(|&(start, _)| start <= tick);
    idx > 0 && tick < windows[idx - 1].1
}

impl FaultSchedule {
    /// Build a schedule from explicit down-windows — scripted outages for
    /// what-if runs and fine-grained tests. Windows must be half-open
    /// `[start, end)`, sorted, and disjoint.
    ///
    /// # Panics
    /// Panics on empty, unsorted, or overlapping windows.
    pub fn from_windows(down: Vec<Vec<(u64, u64)>>, origin_down: Vec<(u64, u64)>) -> Self {
        for windows in down.iter().chain(std::iter::once(&origin_down)) {
            for &(start, end) in windows {
                assert!(start < end, "empty down-window ({start}, {end})");
            }
            for w in windows.windows(2) {
                assert!(w[0].1 <= w[1].0, "windows unsorted or overlapping: {w:?}");
            }
        }
        Self { down, origin_down }
    }

    /// Generate the full schedule for `n_servers` streams of up to
    /// `horizon` ticks each.
    ///
    /// # Panics
    /// Panics with [`FaultParams::validate`]'s message on invalid
    /// parameters.
    pub fn generate(params: &FaultParams, n_servers: usize, horizon: u64) -> Self {
        params.validate().unwrap_or_else(|msg| panic!("{msg}"));
        let down = (0..n_servers)
            .map(|i| {
                // Per-server sub-seed: `seed_from_u64` runs SplitMix64, so
                // a simple odd-multiplier mix keeps streams independent.
                let sub = params
                    .seed
                    .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut rng = StdRng::seed_from_u64(sub);
                alternating_windows(&mut rng, params.mttf, params.mttr, horizon)
            })
            .collect();
        let origin_down = if params.origin_outage > 0.0 {
            let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(0x0D1F_0A11_u64));
            // Pick the outage length scale from the repair time, then set
            // the up-time so the long-run down fraction matches.
            let mean_down = params.mttr;
            let mean_up = mean_down * (1.0 - params.origin_outage) / params.origin_outage;
            alternating_windows(&mut rng, mean_up, mean_down, horizon)
        } else {
            Vec::new()
        };
        Self { down, origin_down }
    }

    /// Is CDN server `server` down at `tick` (of its own stream)?
    #[inline]
    pub fn is_server_down(&self, server: usize, tick: u64) -> bool {
        self.down
            .get(server)
            .is_some_and(|windows| in_windows(windows, tick))
    }

    /// Are the primary (origin) sites unreachable at `tick`?
    #[inline]
    pub fn is_origin_down(&self, tick: u64) -> bool {
        in_windows(&self.origin_down, tick)
    }

    /// Down-windows of CDN server `server`, as sorted half-open
    /// `[start, end)` tick intervals — the crash/recovery events the
    /// telemetry layer reports.
    pub fn server_windows(&self, server: usize) -> &[(u64, u64)] {
        &self.down[server]
    }

    /// Origin outage windows (same format as [`Self::server_windows`]).
    pub fn origin_windows(&self) -> &[(u64, u64)] {
        &self.origin_down
    }

    /// Number of servers this schedule covers.
    pub fn n_servers(&self) -> usize {
        self.down.len()
    }

    /// Ticks server `server` spends down within `[0, horizon)` — the
    /// schedule-side availability ground truth for tests and reports.
    pub fn down_ticks(&self, server: usize, horizon: u64) -> u64 {
        self.down[server]
            .iter()
            .map(|&(s, e)| e.min(horizon).saturating_sub(s.min(horizon)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty() -> FaultParams {
        FaultParams {
            mttf: 400.0,
            mttr: 100.0,
            origin_outage: 0.2,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn zero_fault_params_generate_empty_schedule() {
        let s = FaultSchedule::generate(&FaultParams::default(), 4, 100_000);
        for i in 0..4 {
            assert_eq!(s.down_ticks(i, 100_000), 0);
            assert!(!s.is_server_down(i, 0));
        }
        assert!(!s.is_origin_down(12_345));
        // The default schedule has no rows at all, and a server without a
        // row is never down.
        let empty = FaultSchedule::default();
        assert_eq!(empty.n_servers(), 0);
        assert!(!empty.is_server_down(3, 0));
        assert!(!empty.is_origin_down(0));
        assert!(FaultParams::default().is_zero_fault());
        assert!(!faulty().is_zero_fault());
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultSchedule::generate(&faulty(), 3, 50_000);
        let b = FaultSchedule::generate(&faulty(), 3, 50_000);
        for i in 0..3 {
            assert_eq!(a.down[i], b.down[i]);
        }
        assert_eq!(a.origin_down, b.origin_down);
        let c = FaultSchedule::generate(
            &FaultParams {
                seed: 8,
                ..faulty()
            },
            3,
            50_000,
        );
        assert_ne!(a.down, c.down, "seed must matter");
    }

    #[test]
    fn windows_sorted_disjoint_and_within_horizon() {
        let horizon = 80_000;
        let s = FaultSchedule::generate(&faulty(), 5, horizon);
        for windows in s.down.iter().chain(std::iter::once(&s.origin_down)) {
            for &(start, end) in windows {
                assert!(start < end, "empty window");
                assert!(end <= horizon, "window past horizon");
            }
            for w in windows.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping windows: {w:?}");
            }
        }
    }

    #[test]
    fn liveness_queries_match_windows() {
        let s = FaultSchedule::generate(&faulty(), 2, 10_000);
        let windows = &s.down[0];
        assert!(!windows.is_empty(), "expected at least one fault");
        let naive = |tick: u64| windows.iter().any(|&(a, b)| tick >= a && tick < b);
        for tick in 0..10_000 {
            assert_eq!(s.is_server_down(0, tick), naive(tick), "tick {tick}");
        }
        let &(start, end) = &windows[0];
        assert!(!s.is_server_down(0, start.saturating_sub(1)));
        assert!(s.is_server_down(0, start));
        assert!(s.is_server_down(0, end - 1));
        assert!(!s.is_server_down(0, end) || naive(end));
    }

    #[test]
    fn long_run_down_fraction_tracks_parameters() {
        let horizon = 2_000_000;
        let p = FaultParams {
            mttf: 900.0,
            mttr: 100.0,
            origin_outage: 0.15,
            seed: 21,
            ..Default::default()
        };
        let s = FaultSchedule::generate(&p, 8, horizon);
        // Expected server availability: mttf / (mttf + mttr) = 0.9. The
        // ceil-quantization biases down-windows slightly long, so allow a
        // loose band.
        for i in 0..8 {
            let frac = s.down_ticks(i, horizon) as f64 / horizon as f64;
            assert!((0.05..0.20).contains(&frac), "server {i}: {frac}");
        }
        let origin: u64 = s.origin_down.iter().map(|&(a, b)| b - a).sum();
        let frac = origin as f64 / horizon as f64;
        assert!((0.08..0.25).contains(&frac), "origin down fraction {frac}");
    }

    #[test]
    fn per_server_streams_are_independent() {
        let s = FaultSchedule::generate(&faulty(), 2, 50_000);
        assert_ne!(s.down[0], s.down[1]);
    }

    #[test]
    fn retry_penalty_converts_to_whole_microseconds() {
        let penalty = |ms| FaultParams {
            retry_penalty_ms: ms,
            ..Default::default()
        };
        assert_eq!(penalty(200.0).retry_penalty_us(), 200_000);
        assert_eq!(penalty(150.5).retry_penalty_us(), 150_500);
        // At the bound, a request skipping every holder it could still has
        // a latency that fits in u64 µs.
        let max = penalty(MAX_RETRY_PENALTY_MS);
        assert_eq!(max.validate(), Ok(()));
        let skips = u64::from(u32::MAX);
        let worst = max
            .retry_penalty_us()
            .checked_mul(skips)
            .and_then(|p| p.checked_add(crate::plan::HOP_DELAY_US * (1 + skips)));
        assert!(worst.is_some());
    }

    // `validate` reports each rule; `FaultSchedule::generate` panics with
    // the same message.
    #[test]
    #[should_panic(expected = "retry_penalty_ms must be in [0, 3600000], got 7200000")]
    fn oversized_retry_penalty_rejected() {
        let p = FaultParams {
            retry_penalty_ms: 2.0 * MAX_RETRY_PENALTY_MS,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        FaultSchedule::generate(&p, 1, 10);
    }

    #[test]
    #[should_panic(expected = "origin_outage must be in [0, 1), got 1")]
    fn invalid_outage_fraction_rejected() {
        let p = FaultParams {
            origin_outage: 1.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        FaultSchedule::generate(&p, 1, 10);
    }

    #[test]
    fn mttf_must_be_positive_and_may_be_infinite() {
        let mttf = |mttf| FaultParams {
            mttf,
            ..Default::default()
        };
        for bad in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            let err = mttf(bad).validate().unwrap_err();
            assert!(err.starts_with("mttf must be positive, got"), "{err}");
        }
        assert_eq!(mttf(f64::INFINITY).validate(), Ok(()), "never fails");
        let mttr = FaultParams {
            mttr: f64::INFINITY,
            ..Default::default()
        };
        assert!(mttr.validate().unwrap_err().contains("mttr"));
    }
}
