//! Non-stationary popularity: drifting object identities.
//!
//! The paper's workload is stationary — object k of a site is forever its
//! k-th most popular page. Real sites churn: yesterday's headline is cold
//! tomorrow. This module models that with a *rotating rank map*: the
//! instantaneous popularity law stays exactly Zipf(θ), but which concrete
//! object occupies each rank rotates by one every `period` requests.
//!
//! Static replication is, by construction, indifferent to drift (it stores
//! whole sites); the LRU cache must re-learn the hot set after every
//! rotation. The `ablation_drift` benchmark uses this to measure how fast
//! popularity may drift before caching's advantage erodes.

use crate::trace::Request;

/// Drift parameters.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Requests between rotations of the rank map.
    pub rotation_period: u64,
    /// Objects per site (the modulus of the rotation).
    pub objects_per_site: u32,
}

/// Iterator adaptor applying popularity drift to a request stream.
///
/// At rotation epoch `e`, the object at rank `r` is `(r + e) mod L`: every
/// rotation retires the hottest object and promotes a fresh one, while the
/// rank *distribution* of the underlying stream is untouched.
#[derive(Debug, Clone)]
pub struct Drifted<I> {
    inner: I,
    config: DriftConfig,
    emitted: u64,
}

impl<I> Drifted<I> {
    pub fn new(inner: I, config: DriftConfig) -> Self {
        assert!(
            config.rotation_period > 0,
            "rotation period must be positive"
        );
        assert!(config.objects_per_site > 0, "need at least one object");
        Self {
            inner,
            config,
            emitted: 0,
        }
    }

    /// Current rotation epoch.
    fn epoch(&self) -> u64 {
        self.emitted / self.config.rotation_period
    }
}

impl<I: Iterator<Item = Request>> Iterator for Drifted<I> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let mut req = self.inner.next()?;
        let l = self.config.objects_per_site as u64;
        let shift = self.epoch() % l;
        req.object = ((req.object as u64 + shift) % l) as u32;
        self.emitted += 1;
        Some(req)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Flavor;

    fn reqs(objects: &[u32]) -> Vec<Request> {
        objects
            .iter()
            .map(|&o| Request {
                site: 0,
                object: o,
                flavor: Flavor::Normal,
            })
            .collect()
    }

    #[test]
    fn stationary_config_is_identity() {
        // A period no shorter than the stream never rotates.
        let input = reqs(&[0, 1, 2, 3, 4]);
        let cfg = DriftConfig {
            rotation_period: input.len() as u64,
            objects_per_site: 10,
        };
        let out: Vec<Request> = Drifted::new(input.clone().into_iter(), cfg).collect();
        assert_eq!(out, input);
    }

    #[test]
    fn rotation_shifts_objects_per_epoch() {
        let input = reqs(&[0, 0, 0, 0, 0, 0]);
        let cfg = DriftConfig {
            rotation_period: 2,
            objects_per_site: 10,
        };
        let out: Vec<u32> = Drifted::new(input.into_iter(), cfg)
            .map(|r| r.object)
            .collect();
        // Epochs: requests 0-1 shift 0, 2-3 shift 1, 4-5 shift 2.
        assert_eq!(out, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn objects_wrap_at_site_size() {
        let input = reqs(&[3, 3]);
        let cfg = DriftConfig {
            rotation_period: 1,
            objects_per_site: 4,
        };
        let out: Vec<u32> = Drifted::new(input.into_iter(), cfg)
            .map(|r| r.object)
            .collect();
        // Shifts 0 then 1: 3, (3+1)%4 = 0.
        assert_eq!(out, vec![3, 0]);
    }

    #[test]
    fn marginal_distribution_preserved_within_an_epoch() {
        // Rank frequencies in any single epoch equal the input frequencies.
        let input: Vec<Request> = (0..1000).map(|i| reqs(&[i % 7])[0]).collect();
        let cfg = DriftConfig {
            rotation_period: 1000,
            objects_per_site: 7,
        };
        let out: Vec<u32> = Drifted::new(input.into_iter(), cfg)
            .map(|r| r.object)
            .collect();
        let mut in_counts = [0u32; 7];
        let mut out_counts = [0u32; 7];
        for i in 0..1000u32 {
            in_counts[(i % 7) as usize] += 1;
        }
        for &o in &out {
            out_counts[o as usize] += 1;
        }
        assert_eq!(in_counts, out_counts); // shift 0 for the whole epoch
    }

    #[test]
    fn preserves_site_and_flavor() {
        let input = vec![Request {
            site: 5,
            object: 2,
            flavor: Flavor::Expired,
        }];
        let cfg = DriftConfig {
            rotation_period: 1,
            objects_per_site: 4,
        };
        let out: Vec<Request> = Drifted::new(input.into_iter(), cfg).collect();
        assert_eq!(out[0].site, 5);
        assert_eq!(out[0].flavor, Flavor::Expired);
    }

    #[test]
    fn size_hint_passthrough() {
        let input = reqs(&[1, 2, 3]);
        let cfg = DriftConfig {
            rotation_period: 1,
            objects_per_site: 5,
        };
        let d = Drifted::new(input.into_iter(), cfg);
        assert_eq!(d.size_hint(), (3, Some(3)));
    }

    #[test]
    #[should_panic]
    fn zero_period_panics() {
        let cfg = DriftConfig {
            rotation_period: 0,
            objects_per_site: 4,
        };
        let _ = Drifted::new(reqs(&[0]).into_iter(), cfg);
    }
}
