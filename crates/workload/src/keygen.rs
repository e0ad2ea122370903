//! Parametric key distributions over a 64-bit integer key space.
//!
//! Each [`KeyDistribution`] describes a *shape*; a [`KeyGenerator`] binds it
//! to a key range and a seeded RNG. Distributions are the knobs the
//! benchmark turns to create easy-to-learn (sequential, uniform) versus
//! hard-to-learn (zipfian, clustered, drifting) datasets and access
//! patterns — exactly the variation §III-A says real deployments exhibit.

use crate::{Result, WorkloadError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use Param::{Int, Num};

/// The distribution shapes — the one table everything that maps names to
/// distributions reads: `lsbench list` and `lsbench quality`, and the
/// scenario spec language's parser, renderer and drift axis. Adding a
/// shape means adding a [`KeyDistribution`] variant, its row here, its arm
/// in [`KeyDistribution::params`], and its sampler.
pub const CANONICAL_DISTRIBUTIONS: &[Shape] = &[
    Shape {
        name: "uniform",
        summary: "uniform over the key range",
        params: &[],
        make: |_| KeyDistribution::Uniform,
    },
    Shape {
        name: "zipf",
        summary: "zipfian popularity",
        params: &[("theta", Num(0.99))],
        make: |p| KeyDistribution::Zipf { theta: p[0].num() },
    },
    Shape {
        name: "normal",
        summary: "truncated normal",
        params: &[("center", Num(0.5)), ("std_frac", Num(0.1))],
        make: |p| KeyDistribution::Normal {
            center: p[0].num(),
            std_frac: p[1].num(),
        },
    },
    Shape {
        name: "lognormal",
        summary: "log-normal, heavy right tail",
        params: &[("mu", Num(0.0)), ("sigma", Num(1.2))],
        make: |p| KeyDistribution::LogNormal {
            mu: p[0].num(),
            sigma: p[1].num(),
        },
    },
    Shape {
        name: "hotspot",
        summary: "hot span absorbing most accesses",
        params: &[("hot_span", Num(0.05)), ("hot_fraction", Num(0.95))],
        make: |p| KeyDistribution::Hotspot {
            hot_span: p[0].num(),
            hot_fraction: p[1].num(),
        },
    },
    Shape {
        name: "clustered",
        summary: "equally spaced Gaussian bumps",
        params: &[("clusters", Int(4)), ("cluster_std_frac", Num(0.01))],
        make: |p| KeyDistribution::Clustered {
            clusters: p[0].int() as usize,
            cluster_std_frac: p[1].num(),
        },
    },
    Shape {
        name: "seq",
        summary: "sequential with bounded noise",
        params: &[("noise_frac", Num(0.01))],
        make: |p| KeyDistribution::SequentialNoise {
            noise_frac: p[0].num(),
        },
    },
];

/// One distribution shape: a row of [`CANONICAL_DISTRIBUTIONS`].
#[derive(Debug)]
pub struct Shape {
    /// The canonical identifier (`distribution = "zipf"`).
    pub name: &'static str,
    /// A one-line summary; `lsbench list` follows it with the keys.
    pub summary: &'static str,
    /// The parameter keys in declaration order, each with the default
    /// [`KeyDistribution::from_canonical`] uses. A [`Param::Int`]
    /// default marks an integer parameter.
    pub params: &'static [(&'static str, Param)],
    make: fn(&[Param]) -> KeyDistribution,
}

impl Shape {
    /// The row named `name`.
    pub fn named(name: &str) -> Option<&'static Shape> {
        CANONICAL_DISTRIBUTIONS.iter().find(|s| s.name == name)
    }

    /// The distribution of this shape with `params` in declaration order:
    /// the inverse of [`KeyDistribution::params`].
    pub fn build(&self, params: &[Param]) -> KeyDistribution {
        (self.make)(params)
    }
}

/// One parameter of a distribution. Integer parameters stay integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// A real-valued parameter.
    Num(f64),
    /// An integer parameter (`clusters`).
    Int(u64),
}

impl Param {
    /// The value as a float.
    pub fn num(self) -> f64 {
        match self {
            Num(v) => v,
            Int(v) => v as f64,
        }
    }

    /// The value as an integer (a float truncates).
    pub fn int(self) -> u64 {
        match self {
            Int(v) => v,
            Num(v) => v as u64,
        }
    }
}

/// Shape of a key distribution, independent of the key range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KeyDistribution {
    /// Uniform over the whole range — maximum entropy, trivial to model.
    Uniform,
    /// Zipfian with exponent `theta > 0`; rank 1 is hottest. Key popularity
    /// follows `1/rank^theta` over the range, scattered by a fixed
    /// permutation so hot keys are not adjacent.
    Zipf {
        /// Skew exponent; 0.99 is the YCSB default, larger is more skewed.
        theta: f64,
    },
    /// Truncated normal centered at `center` (fraction of the range, in
    /// `[0,1]`) with standard deviation `std_frac` of the range width.
    Normal {
        /// Center as a fraction of the key range.
        center: f64,
        /// Standard deviation as a fraction of the key range.
        std_frac: f64,
    },
    /// Log-normal: heavy right tail. `mu` and `sigma` are the parameters of
    /// the underlying normal in log space; samples are scaled into the range.
    LogNormal {
        /// Mean of the underlying normal distribution (log space).
        mu: f64,
        /// Standard deviation of the underlying normal (log space).
        sigma: f64,
    },
    /// Hotspot: `hot_fraction` of accesses hit the first `hot_span` fraction
    /// of the range; the rest are uniform over the remainder.
    Hotspot {
        /// Fraction of the key range that is "hot".
        hot_span: f64,
        /// Fraction of samples landing in the hot span.
        hot_fraction: f64,
    },
    /// Multi-modal: `clusters` equally spaced Gaussian bumps, each with
    /// width `cluster_std_frac` of the range.
    Clustered {
        /// Number of clusters.
        clusters: usize,
        /// Per-cluster standard deviation as a fraction of the range.
        cluster_std_frac: f64,
    },
    /// Sequential with bounded random noise: key `i` maps near position `i`.
    /// Models append-mostly time-ordered data (trivial for learned indexes).
    SequentialNoise {
        /// Maximum absolute displacement as a fraction of the range.
        noise_frac: f64,
    },
}

impl KeyDistribution {
    /// A human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            KeyDistribution::Uniform => "uniform".to_string(),
            KeyDistribution::Zipf { theta } => format!("zipf({theta})"),
            KeyDistribution::Normal { center, std_frac } => {
                format!("normal(c={center},s={std_frac})")
            }
            KeyDistribution::LogNormal { mu, sigma } => format!("lognormal({mu},{sigma})"),
            KeyDistribution::Hotspot {
                hot_span,
                hot_fraction,
            } => format!("hotspot({hot_span}/{hot_fraction})"),
            KeyDistribution::Clustered {
                clusters,
                cluster_std_frac,
            } => format!("clustered({clusters},{cluster_std_frac})"),
            KeyDistribution::SequentialNoise { noise_frac } => {
                format!("seq-noise({noise_frac})")
            }
        }
    }

    /// This value's row of [`CANONICAL_DISTRIBUTIONS`] and its parameters
    /// in the row's declaration order; [`Shape::build`] is the inverse.
    pub fn params(&self) -> (&'static Shape, Vec<Param>) {
        use KeyDistribution as D;
        let (row, params) = match *self {
            D::Uniform => (0, vec![]),
            D::Zipf { theta } => (1, vec![Num(theta)]),
            D::Normal { center, std_frac } => (2, vec![Num(center), Num(std_frac)]),
            D::LogNormal { mu, sigma } => (3, vec![Num(mu), Num(sigma)]),
            D::Hotspot {
                hot_span,
                hot_fraction,
            } => (4, vec![Num(hot_span), Num(hot_fraction)]),
            D::Clustered {
                clusters,
                cluster_std_frac,
            } => (5, vec![Int(clusters as u64), Num(cluster_std_frac)]),
            D::SequentialNoise { noise_frac } => (6, vec![Num(noise_frac)]),
        };
        (&CANONICAL_DISTRIBUTIONS[row], params)
    }

    /// The canonical identifier of this distribution's shape.
    pub fn canonical_name(&self) -> &'static str {
        self.params().0.name
    }

    /// The shape named `name` with its default parameters, or `None` for
    /// unknown names.
    pub fn from_canonical(name: &str) -> Option<KeyDistribution> {
        let shape = Shape::named(name)?;
        let defaults: Vec<Param> = shape.params.iter().map(|&(_, d)| d).collect();
        Some(shape.build(&defaults))
    }

    /// Validates the distribution's parameters.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: &str| Err(WorkloadError::InvalidParameter(msg.to_string()));
        match *self {
            KeyDistribution::Uniform => Ok(()),
            KeyDistribution::Zipf { theta } => {
                if theta <= 0.0 || !theta.is_finite() {
                    bad("zipf theta must be positive and finite")
                } else {
                    Ok(())
                }
            }
            KeyDistribution::Normal { center, std_frac } => {
                if !(0.0..=1.0).contains(&center) {
                    bad("normal center must be in [0, 1]")
                } else if std_frac <= 0.0 {
                    bad("normal std_frac must be positive")
                } else {
                    Ok(())
                }
            }
            KeyDistribution::LogNormal { sigma, .. } => {
                if sigma <= 0.0 {
                    bad("lognormal sigma must be positive")
                } else {
                    Ok(())
                }
            }
            KeyDistribution::Hotspot {
                hot_span,
                hot_fraction,
            } => {
                if !(0.0 < hot_span && hot_span < 1.0) {
                    bad("hot_span must be in (0, 1)")
                } else if !(0.0..=1.0).contains(&hot_fraction) {
                    bad("hot_fraction must be in [0, 1]")
                } else {
                    Ok(())
                }
            }
            KeyDistribution::Clustered {
                clusters,
                cluster_std_frac,
            } => {
                if clusters == 0 {
                    bad("clusters must be > 0")
                } else if cluster_std_frac <= 0.0 {
                    bad("cluster_std_frac must be positive")
                } else {
                    Ok(())
                }
            }
            KeyDistribution::SequentialNoise { noise_frac } => {
                if !(0.0..=1.0).contains(&noise_frac) {
                    bad("noise_frac must be in [0, 1]")
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Zipf sampler over ranks `1..=n` using Gray's rejection-inversion method
/// (the approach used by `rand_distr`; works for any `theta > 0`).
#[derive(Debug, Clone)]
struct ZipfSampler {
    n: f64,
    theta: f64,
    /// `H(1.5) - 1`, cached.
    hx0: f64,
    /// `H(n + 0.5)`, cached.
    hn: f64,
    s: f64,
}

impl ZipfSampler {
    fn new(n: u64, theta: f64) -> Self {
        let n = n as f64;
        let hx0 = Self::h(1.5, theta) - 1.0;
        let hn = Self::h(n + 0.5, theta);
        let s = 2.0 - Self::h_inv(Self::h(2.5, theta) - (2.0f64).powf(-theta), theta);
        ZipfSampler {
            n,
            theta,
            hx0,
            hn,
            s,
        }
    }

    /// `H(x) = (x^(1-theta) - 1) / (1 - theta)`, or `ln(x)` when theta == 1.
    fn h(x: f64, theta: f64) -> f64 {
        if (theta - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            (x.powf(1.0 - theta) - 1.0) / (1.0 - theta)
        }
    }

    fn h_inv(x: f64, theta: f64) -> f64 {
        if (theta - 1.0).abs() < 1e-12 {
            x.exp()
        } else {
            (1.0 + x * (1.0 - theta)).powf(1.0 / (1.0 - theta))
        }
    }

    /// Samples a rank in `1..=n` (1 = most popular).
    fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.hx0 + rng.gen::<f64>() * (self.hn - self.hx0);
            let x = Self::h_inv(u, self.theta);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.s || u >= Self::h(k + 0.5, self.theta) - k.powf(-self.theta) {
                return k as u64;
            }
        }
    }
}

/// A seeded sampler producing `u64` keys in `[lo, hi)` from a
/// [`KeyDistribution`].
#[derive(Debug, Clone)]
pub struct KeyGenerator {
    dist: KeyDistribution,
    lo: u64,
    hi: u64,
    rng: StdRng,
    zipf: Option<ZipfSampler>,
    /// Multiplicative scatter constant for Zipf rank→key mapping (odd, so it
    /// is a bijection modulo 2^64).
    scatter: u64,
    /// Monotone counter for sequential generation.
    seq: u64,
    /// Log-normal: `e^(mu + 3 sigma)`, the value that maps near the top of
    /// the range (1 for every other distribution).
    lognormal_top: f64,
}

impl KeyGenerator {
    /// Creates a generator over `[lo, hi)` with the given seed.
    pub fn new(dist: KeyDistribution, lo: u64, hi: u64, seed: u64) -> Result<Self> {
        dist.validate()?;
        if lo >= hi {
            return Err(WorkloadError::EmptyDomain);
        }
        let zipf = match dist {
            KeyDistribution::Zipf { theta } => Some(ZipfSampler::new(hi - lo, theta)),
            _ => None,
        };
        let lognormal_top = match dist {
            KeyDistribution::LogNormal { mu, sigma } => (mu + 3.0 * sigma).exp(),
            _ => 1.0,
        };
        Ok(KeyGenerator {
            dist,
            lo,
            hi,
            rng: StdRng::seed_from_u64(seed),
            zipf,
            scatter: 0x9E37_79B9_7F4A_7C15, // odd golden-ratio constant
            seq: 0,
            lognormal_top,
        })
    }

    /// The distribution this generator draws from.
    pub fn distribution(&self) -> &KeyDistribution {
        &self.dist
    }

    /// The key range `[lo, hi)`.
    pub fn range(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    fn span(&self) -> u64 {
        self.hi - self.lo
    }

    /// Clamps a real-valued position in `[0, 1]` into the key range.
    fn pos_to_key(&self, pos: f64) -> u64 {
        let pos = pos.clamp(0.0, 1.0 - 1e-15);
        self.lo + (pos * self.span() as f64) as u64
    }

    /// Standard normal sample via Box–Muller.
    fn std_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Draws the next key.
    pub fn next_key(&mut self) -> u64 {
        match self.dist {
            KeyDistribution::Uniform => self.rng.gen_range(self.lo..self.hi),
            KeyDistribution::Zipf { .. } => {
                let rank = self
                    .zipf
                    .as_ref()
                    .expect("zipf sampler initialized in constructor")
                    .sample(&mut self.rng);
                // Scatter ranks over the range so popular keys are spread out,
                // as YCSB does, keeping the mapping deterministic.
                let scattered = (rank.wrapping_mul(self.scatter)) % self.span();
                self.lo + scattered
            }
            KeyDistribution::Normal { center, std_frac } => {
                let z = self.std_normal();
                self.pos_to_key(center + z * std_frac)
            }
            KeyDistribution::LogNormal { mu, sigma } => {
                let z = self.std_normal();
                let v = (mu + sigma * z).exp();
                self.pos_to_key(v / self.lognormal_top)
            }
            KeyDistribution::Hotspot {
                hot_span,
                hot_fraction,
            } => {
                let pos = if self.rng.gen::<f64>() < hot_fraction {
                    self.rng.gen::<f64>() * hot_span
                } else {
                    hot_span + self.rng.gen::<f64>() * (1.0 - hot_span)
                };
                self.pos_to_key(pos)
            }
            KeyDistribution::Clustered {
                clusters,
                cluster_std_frac,
            } => {
                let c = self.rng.gen_range(0..clusters);
                let center = (c as f64 + 0.5) / clusters as f64;
                let z = self.std_normal();
                self.pos_to_key(center + z * cluster_std_frac)
            }
            KeyDistribution::SequentialNoise { noise_frac } => {
                let i = self.seq;
                self.seq = (self.seq + 1) % self.span();
                let noise_span = (noise_frac * self.span() as f64) as i64;
                let noise = if noise_span > 0 {
                    self.rng.gen_range(-noise_span..=noise_span)
                } else {
                    0
                };
                let base = self.lo + i;
                let shifted = base as i128 + noise as i128;
                shifted.clamp(self.lo as i128, (self.hi - 1) as i128) as u64
            }
        }
    }

    /// Draws `n` keys.
    pub fn take(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_key()).collect()
    }

    /// Draws `n` keys as `f64` positions (useful for KS/MMD distance between
    /// distributions).
    pub fn sample_f64(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_key() as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(dist: KeyDistribution) -> KeyGenerator {
        KeyGenerator::new(dist, 0, 1_000_000, 42).unwrap()
    }

    #[test]
    fn canonical_table_round_trips() {
        // Every canonical name resolves to a valid default distribution
        // whose canonical_name maps back — the CLI and spec language rely
        // on this closure property.
        for shape in CANONICAL_DISTRIBUTIONS {
            let name = shape.name;
            let dist = KeyDistribution::from_canonical(name)
                .unwrap_or_else(|| panic!("'{name}' resolves"));
            dist.validate().unwrap();
            assert_eq!(dist.canonical_name(), name);
            assert!(!shape.summary.is_empty());
            // The view and its inverse agree with the row, parameter types
            // included.
            let (row, params) = dist.params();
            assert_eq!(row.name, name, "params() picks its own row");
            let defaults: Vec<Param> = shape.params.iter().map(|&(_, d)| d).collect();
            assert_eq!(params, defaults, "{name}");
            assert_eq!(shape.build(&params), dist, "{name}");
        }
        assert_eq!(KeyDistribution::from_canonical("no-such"), None);
    }

    #[test]
    fn keys_stay_in_range() {
        let dists = [
            KeyDistribution::Uniform,
            KeyDistribution::Zipf { theta: 0.99 },
            KeyDistribution::Normal {
                center: 0.5,
                std_frac: 0.1,
            },
            KeyDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.0,
            },
            KeyDistribution::Hotspot {
                hot_span: 0.1,
                hot_fraction: 0.9,
            },
            KeyDistribution::Clustered {
                clusters: 4,
                cluster_std_frac: 0.02,
            },
            KeyDistribution::SequentialNoise { noise_frac: 0.01 },
        ];
        for dist in dists {
            let mut g = fresh(dist.clone());
            for _ in 0..5000 {
                let k = g.next_key();
                assert!(k < 1_000_000, "{} out of range: {k}", dist.name());
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = KeyGenerator::new(KeyDistribution::Zipf { theta: 1.1 }, 0, 1000, 7).unwrap();
        let mut b = KeyGenerator::new(KeyDistribution::Zipf { theta: 1.1 }, 0, 1000, 7).unwrap();
        assert_eq!(a.take(100), b.take(100));
        let mut c = KeyGenerator::new(KeyDistribution::Zipf { theta: 1.1 }, 0, 1000, 8).unwrap();
        assert_ne!(a.take(100), c.take(100));
    }

    #[test]
    fn uniform_covers_range() {
        let mut g = fresh(KeyDistribution::Uniform);
        let keys = g.take(10_000);
        let lo_half = keys.iter().filter(|&&k| k < 500_000).count();
        // Roughly balanced halves.
        assert!((lo_half as i64 - 5000).abs() < 400, "lo_half = {lo_half}");
    }

    #[test]
    fn zipf_is_skewed() {
        let mut g = fresh(KeyDistribution::Zipf { theta: 1.2 });
        let keys = g.take(20_000);
        let mut counts = std::collections::HashMap::new();
        for k in keys {
            *counts.entry(k).or_insert(0u64) += 1;
        }
        let max_count = *counts.values().max().unwrap();
        // Under zipf(1.2) the hottest key dominates; under uniform over 1M
        // keys, max count would be ~1-2.
        assert!(max_count > 500, "max_count = {max_count}");
    }

    #[test]
    fn zipf_theta_one_works() {
        let mut g = fresh(KeyDistribution::Zipf { theta: 1.0 });
        for _ in 0..1000 {
            assert!(g.next_key() < 1_000_000);
        }
    }

    #[test]
    fn normal_concentrates_at_center() {
        let mut g = fresh(KeyDistribution::Normal {
            center: 0.5,
            std_frac: 0.05,
        });
        let keys = g.take(5000);
        let near = keys
            .iter()
            .filter(|&&k| (400_000..600_000).contains(&k))
            .count();
        assert!(near > 4700, "near = {near}"); // ±2 sigma covers ~95%
    }

    #[test]
    fn hotspot_respects_fractions() {
        let mut g = fresh(KeyDistribution::Hotspot {
            hot_span: 0.1,
            hot_fraction: 0.9,
        });
        let keys = g.take(10_000);
        let hot = keys.iter().filter(|&&k| k < 100_000).count();
        assert!((hot as f64 / 10_000.0 - 0.9).abs() < 0.03, "hot = {hot}");
    }

    #[test]
    fn clusters_have_gaps() {
        let mut g = fresh(KeyDistribution::Clustered {
            clusters: 2,
            cluster_std_frac: 0.01,
        });
        let keys = g.take(5000);
        // Midpoint between clusters (at 0.25 and 0.75) should be almost empty.
        let dead_zone = keys
            .iter()
            .filter(|&&k| (400_000..600_000).contains(&k))
            .count();
        assert!(dead_zone < 100, "dead_zone = {dead_zone}");
    }

    #[test]
    fn sequential_is_monotonic_modulo_noise() {
        let mut g = fresh(KeyDistribution::SequentialNoise { noise_frac: 0.0 });
        let keys = g.take(100);
        let expected: Vec<u64> = (0..100).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(KeyGenerator::new(KeyDistribution::Zipf { theta: 0.0 }, 0, 10, 1).is_err());
        assert!(KeyGenerator::new(
            KeyDistribution::Normal {
                center: 2.0,
                std_frac: 0.1
            },
            0,
            10,
            1
        )
        .is_err());
        assert!(KeyGenerator::new(
            KeyDistribution::Hotspot {
                hot_span: 0.0,
                hot_fraction: 0.5
            },
            0,
            10,
            1
        )
        .is_err());
        assert!(KeyGenerator::new(KeyDistribution::Uniform, 10, 10, 1).is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(KeyDistribution::Uniform.name(), "uniform");
        assert_eq!(KeyDistribution::Zipf { theta: 0.99 }.name(), "zipf(0.99)");
    }

    #[test]
    fn sample_f64_matches_keys() {
        let mut a = fresh(KeyDistribution::Uniform);
        let mut b = fresh(KeyDistribution::Uniform);
        let ks = a.take(50);
        let fs = b.sample_f64(50);
        assert_eq!(ks.iter().map(|&k| k as f64).collect::<Vec<_>>(), fs);
    }
}
