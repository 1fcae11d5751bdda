//! Deterministic per-server request streams.
//!
//! The trace-driven simulator consumes one stream per CDN server. Streams
//! are generated lazily from a seed (a paper-scale run is millions of
//! requests; materialising it would waste hundreds of megabytes) and are
//! fully deterministic: the same `(TraceSpec, server)` always yields the
//! same sequence, regardless of how other servers' streams are consumed.

use crate::demand::DemandMatrix;
use crate::dist::InverseCdf;
use crate::zipf::ZipfLike;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// How a λ-flagged request behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LambdaMode {
    /// λ-requests return uncacheable documents (cgi-bin, banners): never
    /// stored in the cache. First experiment family in the paper.
    Uncacheable,
    /// λ-requests hit objects that have expired: a cached copy must be
    /// refreshed from the nearest replica under strong consistency. Second
    /// experiment family in the paper.
    Expired,
}

/// Flavour of an individual request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Ordinary cacheable request.
    Normal,
    /// Target object has expired; a cache hit still pays a refresh trip.
    Expired,
    /// Response is uncacheable; the cache is bypassed entirely.
    Uncacheable,
}

/// One client request as seen by a first-hop server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Site id (index into the catalog).
    pub site: u32,
    /// Object rank within the site, 0-based (0 = most popular).
    pub object: u32,
    pub flavor: Flavor,
}

/// Immutable description of a full trace; hand out per-server streams with
/// [`TraceSpec::stream_for_server`]. The tables a stream reads (its
/// server's site CDF, the object law and λ) are held once here and shared
/// with every stream, never copied into one.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Per-server site-choice CDFs (cumulative over sites).
    site_cdfs: Vec<Arc<[f64]>>,
    /// Requests per server.
    lengths: Vec<u64>,
    object_zipf: ZipfLike,
    /// λ_j per site — the paper's §3.3 has "each web site O_j provide an
    /// estimation of the fraction λ_j of requests that return uncacheable
    /// documents".
    lambdas: Arc<[f64]>,
    lambda_mode: LambdaMode,
    seed: u64,
}

impl TraceSpec {
    /// Build a spec from the demand matrix and the shared object-popularity
    /// law. `lambda` is the fraction of requests carrying the λ flag.
    ///
    /// # Panics
    /// Panics if `lambda` is outside `[0, 1]`.
    pub fn new(
        demand: &DemandMatrix,
        object_zipf: ZipfLike,
        lambda: f64,
        lambda_mode: LambdaMode,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&lambda),
            "lambda {lambda} out of [0,1]"
        );
        Self::with_per_site_lambda(
            demand,
            object_zipf,
            vec![lambda; demand.m_sites()],
            lambda_mode,
            seed,
        )
    }

    /// Build with heterogeneous per-site λ (the paper's actual model — a
    /// scalar λ is the special case of all sites equal).
    ///
    /// # Panics
    /// Panics if any λ is outside `[0, 1]` or the vector's length differs
    /// from the demand matrix's site count.
    pub fn with_per_site_lambda(
        demand: &DemandMatrix,
        object_zipf: ZipfLike,
        lambdas: Vec<f64>,
        lambda_mode: LambdaMode,
        seed: u64,
    ) -> Self {
        assert_eq!(lambdas.len(), demand.m_sites(), "lambda vector shape");
        assert!(
            lambdas.iter().all(|l| (0.0..=1.0).contains(l)),
            "per-site lambda out of [0,1]"
        );
        let site_cdfs = (0..demand.n_servers())
            .map(|i| {
                let row = demand.server_row(i);
                let total = demand.server_total(i) as f64;
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = row
                    .iter()
                    .map(|&r| {
                        acc += r as f64;
                        if total > 0.0 {
                            acc / total
                        } else {
                            1.0
                        }
                    })
                    .collect();
                if let Some(last) = cdf.last_mut() {
                    *last = 1.0;
                }
                cdf.into()
            })
            .collect();
        let lengths = (0..demand.n_servers())
            .map(|i| demand.server_total(i))
            .collect();
        Self {
            site_cdfs,
            lengths,
            object_zipf,
            lambdas: lambdas.into(),
            lambda_mode,
            seed,
        }
    }

    /// Number of servers the spec covers.
    pub fn n_servers(&self) -> usize {
        self.site_cdfs.len()
    }

    /// Requests the stream for `server` will yield.
    pub fn len_for_server(&self, server: usize) -> u64 {
        self.lengths[server]
    }

    /// The request-weighted mean λ across sites (0 when empty).
    pub fn mean_lambda(&self) -> f64 {
        if self.lambdas.is_empty() {
            0.0
        } else {
            self.lambdas.iter().sum::<f64>() / self.lambdas.len() as f64
        }
    }

    /// λ of one site.
    pub fn lambda_for_site(&self, site: usize) -> f64 {
        self.lambdas[site]
    }

    /// Create the lazy stream for `server`. The stream shares the spec's
    /// tables and owns only its RNG and its site guide, one slot per site
    /// rounded up to a power of two: `O(M)` to build, about 2 KB at
    /// M = 400.
    pub fn stream_for_server(&self, server: usize) -> ServerStream {
        // Independent per-server seeding: SplitMix64 over (seed, server).
        let mix = splitmix64(self.seed ^ splitmix64(server as u64 + 0x9E37_79B9_7F4A_7C15));
        let site_cdf = &self.site_cdfs[server];
        ServerStream {
            sites: InverseCdf::new(Arc::clone(site_cdf)),
            objects: self.object_zipf.sampler().clone(),
            lambdas: Arc::clone(&self.lambdas),
            lambda_mode: self.lambda_mode,
            remaining: self.lengths[server],
            rng: StdRng::seed_from_u64(mix),
        }
    }
}

/// Lazy request iterator for one server: two guided inverse-CDF draws and
/// at most one Bernoulli draw per request, each O(1).
#[derive(Debug, Clone)]
pub struct ServerStream {
    /// The site draw over the server's demand row.
    sites: InverseCdf,
    /// The object draw over the site-internal Zipf law (0-based ranks).
    objects: InverseCdf,
    lambdas: Arc<[f64]>,
    lambda_mode: LambdaMode,
    remaining: u64,
    rng: StdRng,
}

impl Iterator for ServerStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let site = self.sites.sample(&mut self.rng) as u32;
        let object = self.objects.sample(&mut self.rng) as u32;
        let lambda = self.lambdas[site as usize];
        let flavor = if lambda > 0.0 && self.rng.gen_bool(lambda) {
            match self.lambda_mode {
                LambdaMode::Uncacheable => Flavor::Uncacheable,
                LambdaMode::Expired => Flavor::Expired,
            }
        } else {
            Flavor::Normal
        };
        Some(Request {
            site,
            object,
            flavor,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ServerStream {}

/// SplitMix64 step, used to derive independent per-server seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::site::SiteCatalog;

    fn spec(lambda: f64, mode: LambdaMode) -> TraceSpec {
        let cat = SiteCatalog::generate(&WorkloadConfig::small(), 3);
        let demand = DemandMatrix::generate(&cat, 4, 4);
        TraceSpec::new(&demand, cat.object_zipf.clone(), lambda, mode, 11)
    }

    #[test]
    fn stream_length_matches_demand() {
        let s = spec(0.0, LambdaMode::Uncacheable);
        for i in 0..s.n_servers() {
            let count = s.stream_for_server(i).count() as u64;
            assert_eq!(count, s.len_for_server(i), "server {i}");
        }
    }

    #[test]
    fn exact_size_iterator_contract() {
        let s = spec(0.0, LambdaMode::Uncacheable);
        let mut stream = s.stream_for_server(0);
        let total = stream.len();
        stream.next();
        assert_eq!(stream.len(), total - 1);
    }

    #[test]
    fn lambda_zero_yields_only_normal() {
        let s = spec(0.0, LambdaMode::Expired);
        assert!(s.stream_for_server(1).all(|r| r.flavor == Flavor::Normal));
    }

    #[test]
    fn lambda_fraction_approximately_respected() {
        let s = spec(0.1, LambdaMode::Expired);
        let reqs: Vec<Request> = s.stream_for_server(0).collect();
        let flagged = reqs.iter().filter(|r| r.flavor == Flavor::Expired).count();
        let frac = flagged as f64 / reqs.len() as f64;
        assert!((frac - 0.1).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn lambda_mode_selects_flavor() {
        let s = spec(1.0, LambdaMode::Uncacheable);
        assert!(s
            .stream_for_server(2)
            .all(|r| r.flavor == Flavor::Uncacheable));
    }

    #[test]
    fn site_mix_matches_demand_row() {
        let cat = SiteCatalog::generate(&WorkloadConfig::small(), 3);
        let demand = DemandMatrix::generate(&cat, 2, 4);
        let s = TraceSpec::new(
            &demand,
            cat.object_zipf.clone(),
            0.0,
            LambdaMode::Uncacheable,
            5,
        );
        let mut counts = vec![0u64; demand.m_sites()];
        for r in s.stream_for_server(0) {
            counts[r.site as usize] += 1;
        }
        let total = demand.server_total(0) as f64;
        for (j, &count) in counts.iter().enumerate() {
            let expected = demand.requests(0, j) as f64 / total;
            let got = count as f64 / total;
            assert!(
                (expected - got).abs() < 0.03,
                "site {j}: expected {expected}, got {got}"
            );
        }
    }

    #[test]
    fn object_ranks_follow_zipf() {
        let s = spec(0.0, LambdaMode::Uncacheable);
        let reqs: Vec<Request> = s.stream_for_server(0).collect();
        let rank1 = reqs.iter().filter(|r| r.object == 0).count() as f64 / reqs.len() as f64;
        let z = &s.object_zipf;
        assert!(
            (rank1 - z.pmf(1)).abs() < 0.03,
            "rank-1 freq {rank1} vs pmf {}",
            z.pmf(1)
        );
        // Objects are 0-based and within range.
        assert!(reqs.iter().all(|r| (r.object as usize) < z.n()));
    }

    /// The binary-search sampler the guided draws replaced, step for step:
    /// one uniform for the site, one for the object, then λ's Bernoulli.
    fn reference_stream(s: &TraceSpec, server: usize) -> Vec<Request> {
        let mix = splitmix64(s.seed ^ splitmix64(server as u64 + 0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(mix);
        let z = &s.object_zipf;
        let objects: Vec<f64> = (1..=z.n()).map(|k| z.prefix_mass(k)).collect();
        let sites = &s.site_cdfs[server];
        (0..s.len_for_server(server))
            .map(|_| {
                let u: f64 = rng.gen();
                let site = sites.partition_point(|&c| c < u);
                let u: f64 = rng.gen();
                let object = objects.partition_point(|&c| c < u);
                let lambda = s.lambdas[site];
                let flavor = if lambda > 0.0 && rng.gen_bool(lambda) {
                    match s.lambda_mode {
                        LambdaMode::Uncacheable => Flavor::Uncacheable,
                        LambdaMode::Expired => Flavor::Expired,
                    }
                } else {
                    Flavor::Normal
                };
                Request {
                    site: site as u32,
                    object: object as u32,
                    flavor,
                }
            })
            .collect()
    }

    #[test]
    fn seeded_streams_equal_a_binary_search_sampler() {
        for (lambda, mode) in [(0.0, LambdaMode::Uncacheable), (0.3, LambdaMode::Expired)] {
            let s = spec(lambda, mode);
            for i in 0..s.n_servers() {
                let guided: Vec<Request> = s.stream_for_server(i).collect();
                assert_eq!(guided, reference_stream(&s, i), "server {i}");
            }
        }
    }

    #[test]
    fn streams_share_the_spec_tables() {
        let s = spec(0.1, LambdaMode::Expired);
        let a = s.stream_for_server(0);
        let b = s.stream_for_server(0);
        assert!(Arc::ptr_eq(&a.lambdas, &s.lambdas));
        assert!(Arc::ptr_eq(&a.lambdas, &b.lambdas));
    }

    #[test]
    fn streams_are_deterministic_and_independent() {
        let s = spec(0.2, LambdaMode::Expired);
        let a: Vec<Request> = s.stream_for_server(1).take(100).collect();
        let b: Vec<Request> = s.stream_for_server(1).take(100).collect();
        assert_eq!(a, b);
        let c: Vec<Request> = s.stream_for_server(2).take(100).collect();
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic]
    fn invalid_lambda_panics() {
        spec(1.5, LambdaMode::Expired);
    }

    #[test]
    fn per_site_lambda_respected() {
        let cat = SiteCatalog::generate(&WorkloadConfig::small(), 3);
        let demand = DemandMatrix::generate(&cat, 2, 4);
        let m = demand.m_sites();
        // Site 0 fully uncacheable, everything else fully cacheable.
        let mut lambdas = vec![0.0; m];
        lambdas[0] = 1.0;
        let s = TraceSpec::with_per_site_lambda(
            &demand,
            cat.object_zipf.clone(),
            lambdas,
            LambdaMode::Uncacheable,
            8,
        );
        for r in s.stream_for_server(0) {
            if r.site == 0 {
                assert_eq!(r.flavor, Flavor::Uncacheable);
            } else {
                assert_eq!(r.flavor, Flavor::Normal);
            }
        }
        assert_eq!(s.lambda_for_site(0), 1.0);
        assert!((s.mean_lambda() - 1.0 / m as f64).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn per_site_lambda_shape_mismatch_panics() {
        let cat = SiteCatalog::generate(&WorkloadConfig::small(), 3);
        let demand = DemandMatrix::generate(&cat, 2, 4);
        TraceSpec::with_per_site_lambda(
            &demand,
            cat.object_zipf.clone(),
            vec![0.1; 3],
            LambdaMode::Expired,
            0,
        );
    }
}
