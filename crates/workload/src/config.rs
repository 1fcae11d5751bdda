//! Workload configuration with the paper's defaults.

/// SURGE-style object-size model: a lognormal body with a bounded-Pareto
/// tail. Sizes are in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeModel {
    /// Probability an object is drawn from the Pareto tail.
    pub tail_prob: f64,
    /// Lognormal body parameters (of ln-bytes).
    pub body_mu: f64,
    pub body_sigma: f64,
    /// Pareto tail parameters.
    pub tail_alpha: f64,
    pub tail_lo: f64,
    pub tail_hi: f64,
    /// Floor applied to every size so zero-byte objects cannot occur.
    pub min_bytes: u64,
}

impl SizeModel {
    /// SURGE's published fit for web object sizes: lognormal body
    /// (µ = 9.357, σ = 1.318 in ln-bytes, i.e. median ≈ 11.6 KB) with a
    /// Pareto(α = 1.1) tail starting at 133 KB, capped at 10 MB.
    pub fn surge_default() -> Self {
        Self {
            tail_prob: 0.07,
            body_mu: 9.357,
            body_sigma: 1.318,
            tail_alpha: 1.1,
            tail_lo: 133_000.0,
            tail_hi: 10_000_000.0,
            min_bytes: 64,
        }
    }

    /// Constant-size objects — handy in tests where byte-granularity
    /// effects would obscure the property under test.
    pub fn constant(bytes: u64) -> Self {
        Self {
            tail_prob: 0.0,
            body_mu: (bytes as f64).ln(),
            body_sigma: 0.0,
            tail_alpha: 1.0,
            tail_lo: 1.0,
            tail_hi: 2.0,
            min_bytes: bytes,
        }
    }
}

/// Relative request volume of the three site-popularity classes. The paper
/// generates "50 sites of low popularity, 100 sites of medium popularity and
/// 50 sites of high popularity" (digit reconstruction; see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Fraction of sites in each class (must sum to 1).
    pub low_frac: f64,
    pub medium_frac: f64,
    /// Request multiplier of each class relative to `base_requests`.
    pub low_weight: f64,
    pub medium_weight: f64,
    pub high_weight: f64,
}

impl ClassMix {
    pub fn paper_default() -> Self {
        Self {
            low_frac: 0.25,
            medium_frac: 0.5,
            low_weight: 1.0,
            medium_weight: 4.0,
            high_weight: 16.0,
        }
    }

    pub fn high_frac(&self) -> f64 {
        1.0 - self.low_frac - self.medium_frac
    }
}

/// Full workload configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of web sites (M).
    pub m_sites: usize,
    /// Objects per site (L).
    pub objects_per_site: usize,
    /// Zipf exponent θ of the object popularity inside each site.
    pub theta: f64,
    /// Requests a low-popularity site receives in total across all servers.
    pub base_requests: u64,
    pub class_mix: ClassMix,
    pub size_model: SizeModel,
}

impl WorkloadConfig {
    /// The paper's evaluation scale: M = 200 sites, L = 1000 objects,
    /// θ = 1.0 (see DESIGN.md for the digit reconstructions).
    pub fn paper_default() -> Self {
        Self {
            m_sites: 200,
            objects_per_site: 1000,
            theta: 1.0,
            base_requests: 10_000,
            class_mix: ClassMix::paper_default(),
            size_model: SizeModel::surge_default(),
        }
    }

    /// The internet-scale tier: M = 400 sites of L = 5000 objects (2M
    /// objects total). With the paper's class mix (mean weight 6.25) and
    /// `base_requests = 40_000`, the trace totals 400 × 6.25 × 40 000 =
    /// 10^8 requests — the regime where sharded parallel simulation pays.
    pub fn large() -> Self {
        Self {
            m_sites: 400,
            objects_per_site: 5000,
            theta: 1.0,
            base_requests: 40_000,
            class_mix: ClassMix::paper_default(),
            size_model: SizeModel::surge_default(),
        }
    }

    /// A small configuration for tests and examples.
    pub fn small() -> Self {
        Self {
            m_sites: 15,
            objects_per_site: 50,
            theta: 1.0,
            base_requests: 2_000,
            class_mix: ClassMix::paper_default(),
            size_model: SizeModel::surge_default(),
        }
    }

    /// Check the configuration: at least one site and one object per
    /// site, a finite non-negative θ, and class fractions that are
    /// non-negative and sum to at most 1. The error names the field and
    /// its value.
    pub fn validate(&self) -> Result<(), String> {
        if self.m_sites == 0 {
            return Err("m_sites must be at least 1, got 0".into());
        }
        if self.objects_per_site == 0 {
            return Err("objects_per_site must be at least 1, got 0".into());
        }
        if !(self.theta >= 0.0 && self.theta.is_finite()) {
            return Err(format!(
                "theta must be finite and non-negative, got {}",
                self.theta
            ));
        }
        let mix = &self.class_mix;
        if !(mix.low_frac >= 0.0 && mix.medium_frac >= 0.0 && mix.high_frac() >= -1e-12) {
            return Err(format!(
                "class_mix fractions must be non-negative and sum to at most 1, \
                 got low {} and medium {}",
                mix.low_frac, mix.medium_frac
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        assert_eq!(WorkloadConfig::paper_default().validate(), Ok(()));
    }

    #[test]
    fn class_fractions_sum_to_one() {
        let mix = ClassMix::paper_default();
        assert!((mix.low_frac + mix.medium_frac + mix.high_frac() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_size_model_floor() {
        let m = SizeModel::constant(1024);
        assert_eq!(m.min_bytes, 1024);
        assert_eq!(m.tail_prob, 0.0);
    }

    // `validate` reports the error; `SiteCatalog::generate` still panics
    // with the same message.
    #[test]
    #[should_panic(expected = "m_sites must be at least 1, got 0")]
    fn zero_sites_rejected() {
        let mut c = WorkloadConfig::small();
        c.m_sites = 0;
        assert!(c.validate().is_err());
        crate::SiteCatalog::generate(&c, 1);
    }

    #[test]
    #[should_panic(expected = "class_mix fractions must be non-negative")]
    fn overfull_class_mix_rejected() {
        let mut c = WorkloadConfig::small();
        c.class_mix.low_frac = 0.9;
        c.class_mix.medium_frac = 0.9;
        assert!(c.validate().is_err());
        crate::SiteCatalog::generate(&c, 1);
    }
}
