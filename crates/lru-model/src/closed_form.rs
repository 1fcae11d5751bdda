//! Closed-form LRU hit ratio under generalized power-law demand
//! (Laoutaris-style), the third interchangeable model backend.
//!
//! The paper's Eq. (1)/(2) and Che's approximation both pay a per-query sum
//! over a site's L objects (amortised by tables/memos, but still the
//! planner's hot path at internet scale). This backend instead answers in
//! O(1) arithmetic from a characteristic-rank argument:
//!
//! Merge every site's internal Zipf(θ) law into one server-wide power law —
//! object rank `r` of a site with popularity `w` is requested with
//! probability `w·α·r^{−θ}`. Che's residency of such an object is
//! `1 − e^{−(r*/r)^θ}` with a per-site characteristic rank
//! `r*_j = (w_j·α·T)^{1/θ} = w_j^{1/θ}·τ` — one shared scalar `τ` carries
//! the whole characteristic time. Two pieces make it fast:
//!
//! * **Occupancy.** In the continuum a site's buffer share is exactly
//!   separable, `O(r*) = ∫_0^L (1 − e^{−(r*/r)^θ}) dr = r*·I_θ(L/r*)`,
//!   where `I_θ` is a universal one-dimensional function tabulated once per
//!   model on a log grid. The buffer constraint `Σ_j O(w_j^{1/θ}·τ) = B`
//!   pins `τ` by a fixed-count bisection — one O(M·64) scalar solve per
//!   `(server, buffer)` (memoised by the oracle). Note the naive step-only
//!   split `Σ r*_j = B` is *not* good enough: the partially resident tail
//!   holds a large share of the buffer (most of it as θ → 1⁻ with large L),
//!   and ignoring it inflates `τ` by multiples.
//! * **Hit ratio.** Given `r*`, the top few ranks are summed discretely
//!   with the exact residency (they carry most of the mass); every deeper
//!   rank uses the continuum `min(1, (r*/r)^θ)` (step core + linear tail)
//!   minus its separable excess over that rank window:
//!
//!   ```text
//!   h(p | r*) ≈ Σ_{r ≤ F} pmf(r)·(1 − e^{−(r*/r)^θ})
//!             + α·∫_{F+½}^{L} r^{−θ}·min(1, (r*/r)^θ) dr
//!             − (α·r*^{1−θ}/θ)·(G(u_lo) − G(u_hi))
//!   ```
//!
//!   with `G` a second universal tabulated function (see
//!   `build_excess_table`) — O(1) arithmetic per query, no per-object
//!   series.
//!
//! Accuracy versus Eq. (1)/(2) is bounded by the differential suite and
//! measured in `ablation_model`.

use cdn_workload::ZipfLike;

/// Smallest θ the rank algebra runs at: the excess integral
/// [`build_excess_table`] needs θ > 1/3 to converge at its lower end, and
/// `w^{1/θ}` degenerates as θ → 0 (uniform demand) anyway. The repo's
/// workloads use θ ∈ [0.6, 1.2].
const MIN_THETA: f64 = 0.35;

/// Leading ranks evaluated discretely with the exact Che residency in
/// [`ClosedFormLru::site_hit_ratio_at`]. Under Zipf skew they carry most of
/// a site's mass, and the continuum approximation is at its worst there
/// (rank 1 alone can hold ~20% of the mass that an integral from 1 halves).
const TOP_RANKS: usize = 8;

/// The step core + linear tail bound the exact Che residency
/// `1 − e^{−u}`, `u = (r*/r)^θ`, from above. Substituting `r = r*·u^{−1/θ}`
/// into `Σ pmf·(approx − exact)` makes the excess mass over any rank window
/// separable:
///
/// ```text
/// excess(r_lo..r_hi) = (α·r*^{1−θ}/θ) · (G(u(r_hi)) − G(u(r_lo)))
/// G(u) = ∫_u^∞ (min(1, t) − 1 + e^{−t}) · t^{−1/θ} dt
/// ```
///
/// `G` is a universal decreasing function of `u`, tabulated once per model
/// on a log grid — the truncation matters: near saturation (`r* → L`) only
/// a sliver of the window remains and an untruncated correction would
/// overshoot several-fold.
const EXC_NODES: usize = 1024;
const EXC_LN_MIN: f64 = -30.0;
const EXC_LN_MAX: f64 = 4.0; // g(e^4) ≈ e^{−55}: zero beyond

fn build_excess_table(theta: f64) -> Vec<f64> {
    let g = |t: f64| t.min(1.0) - 1.0 + (-t).exp();
    let integrand = |t: f64| g(t) * t.powf(-1.0 / theta);
    let ln_step = (EXC_LN_MAX - EXC_LN_MIN) / (EXC_NODES - 1) as f64;
    let mut values = vec![0.0; EXC_NODES];
    const SUB: usize = 8;
    // Accumulate from the top down: values[i] = ∫_{u_i}^{u_max}.
    for i in (0..EXC_NODES - 1).rev() {
        let (a, b) = (
            (EXC_LN_MIN + i as f64 * ln_step).exp(),
            (EXC_LN_MIN + (i + 1) as f64 * ln_step).exp(),
        );
        let h = (b - a) / SUB as f64;
        let mut acc = values[i + 1];
        for s in 0..SUB {
            let (lo, hi) = (a + s as f64 * h, a + (s + 1) as f64 * h);
            acc += 0.5 * h * (integrand(lo) + integrand(hi));
        }
        values[i] = acc;
    }
    values
}

/// Log-grid tabulation of the universal occupancy integral
/// `I_θ(x) = ∫_0^x (1 − e^{−v^{−θ}}) dv` — a site with characteristic rank
/// `r*` occupies `r*·I_θ(L/r*)` buffer slots in the continuum. Strictly
/// increasing in `x`; `I_θ(x) ≈ x` for `x ≤ 1` (everything resident) and
/// grows like `x^{1−θ}/(1−θ)` (θ < 1), `ln x` (θ = 1) or saturates
/// (θ > 1) beyond.
const OCC_NODES: usize = 2048;
const OCC_LN_MAX: f64 = 36.0; // grid covers x ∈ [1, e^36 ≈ 4e15]

fn build_occupancy_table(theta: f64) -> Vec<f64> {
    let integrand = |v: f64| 1.0 - (-v.powf(-theta)).exp();
    // Base: I(1) by Simpson (integrand is smooth and ≤ 1 on (0, 1]; it
    // tends to 1 at v → 0).
    let n0 = 2000usize;
    let h0 = 1.0 / n0 as f64;
    let mut base = 1.0 + integrand(1.0); // v→0 limit is 1
    for k in 1..n0 {
        let w = if k % 2 == 1 { 4.0 } else { 2.0 };
        base += w * integrand(k as f64 * h0);
    }
    base *= h0 / 3.0;
    // Accumulate along the log grid with sub-stepped trapezoids.
    let ln_step = OCC_LN_MAX / (OCC_NODES - 1) as f64;
    let mut values = Vec::with_capacity(OCC_NODES);
    values.push(base);
    let mut acc = base;
    const SUB: usize = 8;
    for i in 1..OCC_NODES {
        let (a, b) = (((i - 1) as f64 * ln_step).exp(), (i as f64 * ln_step).exp());
        let h = (b - a) / SUB as f64;
        for s in 0..SUB {
            let (lo, hi) = (a + s as f64 * h, a + (s + 1) as f64 * h);
            acc += 0.5 * h * (integrand(lo) + integrand(hi));
        }
        values.push(acc);
    }
    values
}

/// Per-server demand geometry the closed form needs: each site's
/// `w^{1/θ}` (descending, for a deterministic summation order in the
/// `τ` bisection) and their total.
#[derive(Debug, Clone)]
pub struct DemandScale {
    /// `w_j^{1/θ}`, sorted descending.
    pows: Vec<f64>,
    /// `S = Σ_j w_j^{1/θ}`.
    total: f64,
}

impl DemandScale {
    /// Total scale `S = Σ_j w_j^{1/θ}`.
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// The closed-form model for one object law (`L` objects per site,
/// exponent θ).
#[derive(Debug, Clone)]
pub struct ClosedFormLru {
    zipf: ZipfLike,
    /// `G` on its log grid — see [`build_excess_table`].
    excess_table: Vec<f64>,
    /// `I_θ` on its log grid — see [`build_occupancy_table`].
    occupancy_table: Vec<f64>,
}

impl ClosedFormLru {
    pub fn new(objects_per_site: usize, theta: f64) -> Self {
        Self::from_zipf(ZipfLike::new(objects_per_site, theta))
    }

    pub fn from_zipf(zipf: ZipfLike) -> Self {
        let theta = zipf.theta().max(MIN_THETA);
        Self {
            excess_table: build_excess_table(theta),
            occupancy_table: build_occupancy_table(theta),
            zipf,
        }
    }

    /// The shared per-site object law.
    pub fn zipf(&self) -> &ZipfLike {
        &self.zipf
    }

    fn theta(&self) -> f64 {
        self.zipf.theta().max(MIN_THETA)
    }

    /// Precompute the demand geometry of a server from its site
    /// popularities (zero/negative weights are dropped).
    pub fn demand_scale(&self, site_pops: &[f64]) -> DemandScale {
        let inv_theta = 1.0 / self.theta();
        let mut pows: Vec<f64> = site_pops
            .iter()
            .filter(|&&w| w > 0.0)
            .map(|&w| w.powf(inv_theta))
            .collect();
        pows.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite weights"));
        let total = pows.iter().sum();
        DemandScale { pows, total }
    }

    /// Interpolated `I_θ(x)` (see [`build_occupancy_table`]).
    fn occupancy_integral(&self, x: f64) -> f64 {
        if x <= 1.0 {
            // Fully resident regime: the integrand is ≈ 1, and this branch
            // is only reached for sites about to be capped at L anyway.
            return self.occupancy_table[0] * x;
        }
        let ln_step = OCC_LN_MAX / (OCC_NODES - 1) as f64;
        let pos = x.ln() / ln_step;
        let i = pos as usize;
        if i + 1 >= OCC_NODES {
            // Beyond the grid: extend with the tail asymptotics
            // (1 − e^{−v^{−θ}} ≈ v^{−θ}).
            let theta = self.theta();
            let x_max = OCC_LN_MAX.exp();
            let last = self.occupancy_table[OCC_NODES - 1];
            return if (theta - 1.0).abs() < 1e-9 {
                last + (x / x_max).ln()
            } else {
                last + (x.powf(1.0 - theta) - x_max.powf(1.0 - theta)) / (1.0 - theta)
            };
        }
        let frac = pos - i as f64;
        self.occupancy_table[i] * (1.0 - frac) + self.occupancy_table[i + 1] * frac
    }

    /// Interpolated `G(u)` (see [`build_excess_table`]).
    fn excess_integral(&self, u: f64) -> f64 {
        if u <= 0.0 {
            return self.excess_table[0];
        }
        let ln_step = (EXC_LN_MAX - EXC_LN_MIN) / (EXC_NODES - 1) as f64;
        let pos = (u.ln() - EXC_LN_MIN) / ln_step;
        if pos <= 0.0 {
            return self.excess_table[0];
        }
        let i = pos as usize;
        if i + 1 >= EXC_NODES {
            return 0.0;
        }
        let frac = pos - i as f64;
        self.excess_table[i] * (1.0 - frac) + self.excess_table[i + 1] * frac
    }

    /// Continuum buffer occupancy of one site with characteristic rank
    /// `r*`: `∫_0^L (1 − e^{−(r*/r)^θ}) dr = r*·I_θ(L/r*)`. Strictly
    /// increasing in `r*`, saturating at `L`.
    fn occupancy(&self, r_star: f64) -> f64 {
        let lf = self.zipf.n() as f64;
        if r_star <= 0.0 {
            return 0.0;
        }
        (r_star * self.occupancy_integral(lf / r_star)).min(lf)
    }

    /// The shared characteristic scale `τ` (so that `r*_j = w_j^{1/θ}·τ`)
    /// at buffer size `b`: the root of `Σ_j occupancy(w_j^{1/θ}·τ) = b`,
    /// found by a fixed-count bisection (deterministic for any thread
    /// schedule). Returns `+∞` when the buffer covers every object.
    pub fn characteristic_scale(&self, b: usize, scale: &DemandScale) -> f64 {
        if b == 0 || scale.pows.is_empty() || scale.total <= 0.0 {
            return 0.0;
        }
        let lf = self.zipf.n() as f64;
        let target = b as f64;
        if target >= lf * scale.pows.len() as f64 {
            return f64::INFINITY;
        }
        let occ_total =
            |tau: f64| -> f64 { scale.pows.iter().map(|&w| self.occupancy(w * tau)).sum() };
        let mut hi = target / scale.total;
        let mut grow = 0;
        while occ_total(hi) < target && grow < 200 {
            hi *= 2.0;
            grow += 1;
        }
        let mut lo = 0.0f64;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if occ_total(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Characteristic rank of a site with popularity `p` when the server's
    /// buffer holds `b` objects: how many of the site's top ranks stay
    /// (fully) resident.
    pub fn characteristic_rank(&self, p: f64, b: usize, scale: &DemandScale) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        let tau = self.characteristic_scale(b, scale);
        let lf = self.zipf.n() as f64;
        if tau.is_infinite() {
            return lf;
        }
        (p.powf(1.0 / self.theta()) * tau).min(lf)
    }

    /// Closed-form site hit ratio at buffer size `b` (solves for `τ` each
    /// call; batch callers should solve once via [`Self::characteristic_scale`]
    /// and use [`Self::site_hit_ratio_at`]).
    pub fn site_hit_ratio(&self, p: f64, b: usize, scale: &DemandScale) -> f64 {
        self.site_hit_ratio_at(p, self.characteristic_scale(b, scale))
    }

    /// Closed-form site hit ratio given a precomputed characteristic scale
    /// `τ`: exact Che residency on the top `TOP_RANKS` ranks (they carry
    /// most of the mass and the continuum is worst there), then the
    /// step-core + linear-tail continuum with the tabulated excess
    /// correction for every deeper rank. O(1) arithmetic per query.
    pub fn site_hit_ratio_at(&self, p: f64, tau: f64) -> f64 {
        if p <= 0.0 || tau <= 0.0 {
            return 0.0;
        }
        let l = self.zipf.n();
        let theta = self.theta();
        let alpha = self.zipf.alpha();
        let lf = l as f64;
        let r_star = if tau.is_infinite() {
            lf
        } else {
            (p.powf(1.0 / theta) * tau).min(lf)
        };
        if r_star >= lf {
            return 1.0;
        }
        // Top ranks, discretely: pmf(r) · (1 − e^{−(r*/r)^θ}).
        let top = TOP_RANKS.min(l);
        let mut h: f64 = (1..=top)
            .map(|r| self.zipf.pmf(r) * (1.0 - (-(r_star / r as f64).powf(theta)).exp()))
            .sum();
        // Continuum region r ∈ [F + ½, L] (midpoint rule at the junction).
        let from = top as f64 + 0.5;
        if lf > from {
            // Step core over fully resident continuum ranks…
            if r_star > from {
                let core = if (theta - 1.0).abs() < 1e-9 {
                    (r_star / from).ln()
                } else {
                    (r_star.powf(1.0 - theta) - from.powf(1.0 - theta)) / (1.0 - theta)
                };
                h += alpha * core;
            }
            // …linear tail beyond: Σ_{r > r*} α·r^{−θ}·(r*/r)^θ
            //   = α·r*^θ · ∫ r^{−2θ} dr, closed form per 2θ ≷ 1.
            let tail_from = r_star.max(from);
            let two_theta = 2.0 * theta;
            let integral = if (two_theta - 1.0).abs() < 1e-9 {
                (lf / tail_from).ln()
            } else {
                (tail_from.powf(1.0 - two_theta) - lf.powf(1.0 - two_theta)) / (two_theta - 1.0)
            };
            h += alpha * r_star.powf(theta) * integral.max(0.0);
            // Both pieces overshoot the exact exponential residency;
            // subtract the excess over exactly this rank window,
            // u ∈ [(r*/L)^θ, (r*/(F+½))^θ] — see `build_excess_table`.
            let u_lo = (r_star / lf).powf(theta);
            let u_hi = (r_star / from).powf(theta);
            let excess = alpha * r_star.powf(1.0 - theta) / theta
                * (self.excess_integral(u_lo) - self.excess_integral(u_hi));
            h -= excess.max(0.0);
        }
        h.clamp(0.0, 1.0)
    }

    /// Server-wide hit ratio `Σ_j w_j · h(w_j, b)` — the ablation's view.
    pub fn aggregate_hit_ratio(&self, site_pops: &[f64], b: usize) -> f64 {
        let scale = self.demand_scale(site_pops);
        let tau = self.characteristic_scale(b, &scale);
        site_pops
            .iter()
            .map(|&w| {
                if w <= 0.0 {
                    0.0
                } else {
                    w * self.site_hit_ratio_at(w, tau)
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LruModel;

    fn pops() -> Vec<f64> {
        let mut w: Vec<f64> = (0..12).map(|i| 0.75f64.powi(i)).collect();
        let norm: f64 = w.iter().sum();
        w.iter_mut().for_each(|x| *x /= norm);
        w
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        let m = ClosedFormLru::new(200, 1.0);
        let s = m.demand_scale(&pops());
        assert_eq!(m.site_hit_ratio(0.0, 100, &s), 0.0);
        assert_eq!(m.site_hit_ratio(0.3, 0, &s), 0.0);
        assert_eq!(m.site_hit_ratio(-1.0, 100, &s), 0.0);
        let empty = m.demand_scale(&[]);
        assert_eq!(m.site_hit_ratio(0.3, 100, &empty), 0.0);
    }

    #[test]
    fn hit_ratio_in_unit_interval_and_monotone_in_buffer() {
        let m = ClosedFormLru::new(200, 0.8);
        let s = m.demand_scale(&pops());
        let mut prev = 0.0;
        for b in [1usize, 10, 50, 200, 800, 2400, 5000] {
            let h = m.site_hit_ratio(0.2, b, &s);
            assert!((0.0..=1.0).contains(&h), "b={b}: {h}");
            assert!(h + 1e-12 >= prev, "b={b}: {h} < {prev}");
            prev = h;
        }
    }

    #[test]
    fn full_coverage_hits_everything() {
        let m = ClosedFormLru::new(100, 1.0);
        let w = pops();
        let s = m.demand_scale(&w);
        // Buffer covering every object of every site: h → 1 for all sites,
        // including unpopular ones (the water-filling pass's job).
        let total = 100 * w.len();
        for &p in &w {
            let h = m.site_hit_ratio(p, total, &s);
            assert!(h > 0.999, "p={p}: {h}");
        }
    }

    #[test]
    fn occupancies_fill_the_buffer() {
        let m = ClosedFormLru::new(500, 1.0);
        let w = pops();
        let s = m.demand_scale(&w);
        for &b in &[40usize, 400, 2000] {
            let tau = m.characteristic_scale(b, &s);
            let occ: f64 = w
                .iter()
                .map(|&p| m.occupancy(p.powf(1.0 / m.theta()) * tau))
                .sum();
            // The τ bisection conserves the budget (up to solver and
            // interpolation slack).
            assert!(
                (occ - b as f64).abs() <= 0.02 * b as f64,
                "b={b}: occupancy {occ}"
            );
            // The fully resident prefixes alone can never exceed it.
            let ranks: f64 = w.iter().map(|&p| m.characteristic_rank(p, b, &s)).sum();
            assert!(ranks <= b as f64 + 1e-6, "b={b}: ranks {ranks}");
        }
    }

    #[test]
    fn tracks_the_paper_model() {
        // The accuracy contract the differential suite also enforces:
        // within 0.15 absolute of Eq. (1)/(2) across the operating
        // envelope (the paper model itself is only ~0.07 from ground
        // truth; see ablation_model for the full comparison).
        for &(l, theta) in &[(200usize, 0.8f64), (500, 1.0), (1000, 1.2), (300, 0.6)] {
            let cf = ClosedFormLru::new(l, theta);
            let paper = LruModel::new(l, theta);
            let w = pops();
            let scale = cf.demand_scale(&w);
            let mut worst: f64 = 0.0;
            for &b in &[l / 10, l / 2, l, 2 * l, 4 * l] {
                let p_b = paper.top_b_mass(&w, b);
                let k = paper.eviction_horizon_approx(b, p_b);
                for &p in &w {
                    let exact = paper.site_hit_ratio(p, k);
                    let approx = cf.site_hit_ratio(p, b, &scale);
                    worst = worst.max((exact - approx).abs());
                }
            }
            assert!(worst < 0.15, "L={l} θ={theta}: worst |err| {worst}");
        }
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    use crate::model::LruModel;

    #[test]
    #[ignore]
    fn dump_error_surface() {
        let mut w: Vec<f64> = (0..12).map(|i| 0.75f64.powi(i)).collect();
        let norm: f64 = w.iter().sum();
        w.iter_mut().for_each(|x| *x /= norm);
        for &(l, theta) in &[(200usize, 0.8f64), (500, 1.0), (1000, 1.2), (300, 0.6)] {
            let cf = ClosedFormLru::new(l, theta);
            let paper = LruModel::new(l, theta);
            let scale = cf.demand_scale(&w);
            println!("== L={l} theta={theta}");
            for &b in &[l / 10, l / 2, l, 2 * l, 4 * l] {
                let p_b = paper.top_b_mass(&w, b);
                let k = paper.eviction_horizon_approx(b, p_b);
                for (j, &p) in w.iter().enumerate() {
                    let exact = paper.site_hit_ratio(p, k);
                    let approx = cf.site_hit_ratio(p, b, &scale);
                    let r = cf.characteristic_rank(p, b, &scale);
                    if (exact - approx).abs() > 0.05 {
                        println!(
                            "  b={b:5} site{j:2} p={p:.4} r*={r:8.2} exact={exact:.4} cf={approx:.4} err={:+.4}",
                            approx - exact
                        );
                    }
                }
            }
        }
    }
}
