//! Physical oscillator model of a compute node's time source.
//!
//! A node's clock frequency error is modeled as
//!
//! ```text
//! d(t) = skew + a1·sin(2π t / p1 + φ1) + a2·sin(2π t / p2 + φ2)
//! ```
//!
//! (all terms dimensionless frequency fractions, e.g. `1e-6` = 1 ppm).
//! The *displacement* of the clock relative to true time is the integral
//! of `d(t)`, which is analytic, so clock readings are O(1) to compute.
//!
//! This matches the paper's empirical findings (Fig. 2 and §III-C2 /
//! Doleschal et al.): over a 10 s window drift is almost perfectly linear
//! (R² > 0.9), while over 500 s the wander terms curve it visibly.

use hcs_sim::rngx::{self, label};
use hcs_sim::{ClockSpec, SimTime};

use std::f64::consts::TAU;

/// Deterministic per-node frequency-error model.
#[derive(Debug, Clone, PartialEq)]
pub struct Oscillator {
    /// Constant frequency error (fraction, 1e-6 = 1 ppm).
    pub skew: f64,
    /// Primary wander amplitude (fraction).
    pub a1: f64,
    /// Primary wander period, s.
    pub p1: f64,
    /// Primary wander phase, rad.
    pub phi1: f64,
    /// Secondary wander amplitude (fraction).
    pub a2: f64,
    /// Secondary wander period, s.
    pub p2: f64,
    /// Secondary wander phase, rad.
    pub phi2: f64,
}

impl Oscillator {
    /// A perfect oscillator (zero error).
    pub fn perfect() -> Self {
        Self {
            skew: 0.0,
            a1: 0.0,
            p1: 1.0,
            phi1: 0.0,
            a2: 0.0,
            p2: 1.0,
            phi2: 0.0,
        }
    }

    /// An oscillator with constant skew only (fraction, not ppm).
    pub fn with_skew(skew: f64) -> Self {
        Self {
            skew,
            ..Self::perfect()
        }
    }

    /// Derives the oscillator of `node` from the machine's [`ClockSpec`]
    /// and the run's master seed. All ranks of a node share this
    /// oscillator — that is precisely the property `ClockPropSync`
    /// exploits.
    pub fn for_node(spec: &ClockSpec, master_seed: u64, node: usize) -> Self {
        let mut rng = rngx::stream_rng(master_seed, label::node_oscillator(node));
        let ppm = 1e-6;
        let skew = rngx::normal_with(&mut rng, 0.0, spec.skew_sd_ppm * ppm);
        let a1 = spec.wander_amp_ppm * ppm * rng.range(0.6, 1.4);
        let p1 = spec.wander_period_s.seconds() * rng.range(0.5, 1.5);
        let phi1 = rng.range(0.0, TAU);
        let a2 = spec.wander2_amp_ppm * ppm * rng.range(0.6, 1.4);
        let p2 = spec.wander2_period_s.seconds() * rng.range(0.5, 1.5);
        let phi2 = rng.range(0.0, TAU);
        Self {
            skew,
            a1,
            p1,
            phi1,
            a2,
            p2,
            phi2,
        }
    }

    /// Instantaneous frequency error at true time `t`.
    pub fn drift_rate(&self, t: SimTime) -> f64 {
        let t = t.seconds();
        self.skew
            + self.a1 * (TAU * t / self.p1 + self.phi1).sin()
            + self.a2 * (TAU * t / self.p2 + self.phi2).sin()
    }

    /// Accumulated clock displacement at true time `t`:
    /// `∫₀ᵗ d(τ) dτ` (seconds of clock error relative to true time).
    pub fn displacement(&self, t: SimTime) -> f64 {
        Displacement::new(self).at(t)
    }

    /// The clock's elapsed reading after `t` seconds of true time
    /// (without any constant offset): `t + displacement(t)`.
    pub fn elapsed(&self, t: SimTime) -> f64 {
        Displacement::new(self).elapsed(t)
    }
}

/// [`Oscillator::displacement`] with its per-oscillator constants
/// hoisted: `a·p/2π` and `cos φ` of each wander term are computed once,
/// so a clock read evaluates one cosine per term instead of two. The
/// evaluation order is the formula's, so every result is bit-identical
/// to the unhoisted expression.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Displacement {
    skew: f64,
    w1: Option<Wander>,
    w2: Option<Wander>,
}

/// One wander term `a·p/2π · (cos φ − cos(2π t/p + φ))`.
#[derive(Debug, Clone, Copy)]
struct Wander {
    /// `a·p/2π`.
    scale: f64,
    p: f64,
    phi: f64,
    cos_phi: f64,
}

impl Wander {
    /// `None` for a zero amplitude: the term is then exactly zero.
    fn new(a: f64, p: f64, phi: f64) -> Option<Self> {
        (a != 0.0).then(|| Wander {
            scale: a * p / TAU,
            p,
            phi,
            cos_phi: phi.cos(),
        })
    }

    fn at(&self, t: SimTime) -> f64 {
        self.scale * (self.cos_phi - (TAU * t.seconds() / self.p + self.phi).cos())
    }
}

impl Displacement {
    pub(crate) fn new(o: &Oscillator) -> Self {
        Displacement {
            skew: o.skew,
            w1: Wander::new(o.a1, o.p1, o.phi1),
            w2: Wander::new(o.a2, o.p2, o.phi2),
        }
    }

    /// See [`Oscillator::displacement`].
    pub(crate) fn at(&self, t: SimTime) -> f64 {
        let w1 = self.w1.map_or(0.0, |w| w.at(t));
        let w2 = self.w2.map_or(0.0, |w| w.at(t));
        self.skew * t.seconds() + w1 + w2
    }

    /// See [`Oscillator::elapsed`].
    pub(crate) fn elapsed(&self, t: SimTime) -> f64 {
        t.seconds() + self.at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_tracks_true_time() {
        let o = Oscillator::perfect();
        for t in [0.0, 1.0, 100.0, 12345.6] {
            assert_eq!(o.elapsed(SimTime::from_secs(t)), t);
        }
    }

    #[test]
    fn constant_skew_is_linear() {
        let o = Oscillator::with_skew(1e-6);
        assert!((o.elapsed(SimTime::from_secs(10.0)) - (10.0 + 10.0e-6)).abs() < 1e-15);
        assert!((o.elapsed(SimTime::from_secs(500.0)) - (500.0 + 500.0e-6)).abs() < 1e-12);
    }

    #[test]
    fn displacement_is_integral_of_drift_rate() {
        let o = Oscillator {
            skew: 0.4e-6,
            a1: 0.1e-6,
            p1: 250.0,
            phi1: 1.2,
            a2: 0.02e-6,
            p2: 31.0,
            phi2: 0.3,
        };
        // Numerically integrate drift_rate and compare to displacement.
        let t_end = 200.0;
        let n = 200_000;
        let dt = t_end / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let t = (i as f64 + 0.5) * dt;
            acc += o.drift_rate(SimTime::from_secs(t)) * dt;
        }
        let err = (acc - o.displacement(SimTime::from_secs(t_end))).abs();
        assert!(err < 1e-12, "integration mismatch: {err:.3e}");
    }

    #[test]
    fn hoisted_displacement_is_bit_identical_to_the_formula() {
        // The unhoisted formula, written out literally.
        fn literal(o: &Oscillator, t: f64) -> f64 {
            let w1 = if o.a1 != 0.0 {
                o.a1 * o.p1 / TAU * (o.phi1.cos() - (TAU * t / o.p1 + o.phi1).cos())
            } else {
                0.0
            };
            let w2 = if o.a2 != 0.0 {
                o.a2 * o.p2 / TAU * (o.phi2.cos() - (TAU * t / o.p2 + o.phi2).cos())
            } else {
                0.0
            };
            o.skew * t + w1 + w2
        }
        // Both wander terms, only the first, and none (skew only).
        let specs = [
            ClockSpec::commodity(),
            ClockSpec {
                wander2_amp_ppm: 0.0,
                ..ClockSpec::commodity()
            },
            ClockSpec::linear(0.5),
        ];
        let mut oscs = vec![Oscillator::perfect(), Oscillator::with_skew(-3e-7)];
        for seed in 0..20u64 {
            for spec in &specs {
                oscs.extend((0..8).map(|node| Oscillator::for_node(spec, seed, node)));
            }
        }
        let mut rng = rngx::stream_rng(5, 0);
        let mut checked = 0;
        for o in &oscs {
            let hoisted = Displacement::new(o);
            for i in 0..500 {
                // Skewed local clocks read slightly negative times too.
                let t = match i % 4 {
                    0 => rng.range(-1e-3, 1e-3),
                    1 => rng.range(0.0, 20.0),
                    2 => rng.range(0.0, 1e5),
                    _ => i as f64 * 1e-6,
                };
                let st = SimTime::from_secs(t);
                assert_eq!(
                    hoisted.at(st).to_bits(),
                    literal(o, t).to_bits(),
                    "{o:?} t={t}"
                );
                assert_eq!(o.displacement(st).to_bits(), literal(o, t).to_bits());
                assert_eq!(o.elapsed(st).to_bits(), (t + literal(o, t)).to_bits());
                checked += 1;
            }
        }
        assert_eq!(checked, oscs.len() * 500);
    }

    #[test]
    fn displacement_starts_at_zero() {
        let o = Oscillator::for_node(&ClockSpec::commodity(), 1, 0);
        assert_eq!(o.displacement(SimTime::ZERO), 0.0);
    }

    #[test]
    fn per_node_derivation_is_deterministic_and_distinct() {
        let spec = ClockSpec::commodity();
        let a = Oscillator::for_node(&spec, 99, 3);
        let b = Oscillator::for_node(&spec, 99, 3);
        let c = Oscillator::for_node(&spec, 99, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn commodity_magnitudes_match_fig2() {
        // Relative drift between two nodes over 500 s should be in the
        // hundreds-of-microseconds range (paper Fig. 2a: ~100-400 us).
        let spec = ClockSpec::commodity();
        let mut max_rel: f64 = 0.0;
        for node in 1..10 {
            let a = Oscillator::for_node(&spec, 7, 0);
            let b = Oscillator::for_node(&spec, 7, node);
            let t = SimTime::from_secs(500.0);
            let rel = (a.displacement(t) - b.displacement(t)).abs();
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel > 50e-6, "max relative drift {max_rel:.3e}");
        assert!(max_rel < 3e-3, "max relative drift {max_rel:.3e}");
    }

    #[test]
    fn short_windows_are_nearly_linear() {
        // R^2 of a linear fit over 10 s must exceed 0.9 (paper §III-C2).
        let spec = ClockSpec::commodity();
        let a = Oscillator::for_node(&spec, 11, 0);
        let b = Oscillator::for_node(&spec, 11, 1);
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&t| {
                let t = SimTime::from_secs(t);
                a.displacement(t) - b.displacement(t)
            })
            .collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        let r2 = sxy * sxy / (sxx * syy);
        assert!(r2 > 0.9, "r2 {r2}");
    }
}
