//! Property tests for workload generators: traces never exceed their
//! peaks, CDFs behave like distribution functions, the SIPp model is
//! monotone in starvation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vbundle_dcn::Bandwidth;
use vbundle_sim::{SimDuration, SimTime};
use vbundle_workloads::{Cdf, SippGenerator, SkewedLoad, Trace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A trace never exceeds its declared peak and never goes negative.
    #[test]
    fn traces_bounded_by_peak(
        mean in 0.0f64..500.0,
        amplitude in 0.0f64..500.0,
        period_s in 1u64..10_000,
        t_us in 0u64..10_000_000_000,
    ) {
        let traces = [
            Trace::constant(Bandwidth::from_mbps(mean)),
            Trace::step(
                Bandwidth::from_mbps(mean),
                Bandwidth::from_mbps(amplitude),
                SimTime::from_secs(period_s),
            ),
            Trace::Sinusoid {
                mean: Bandwidth::from_mbps(mean),
                amplitude: Bandwidth::from_mbps(amplitude),
                period: SimDuration::from_secs(period_s),
                phase: SimDuration::ZERO,
            },
            Trace::Pulse {
                base: Bandwidth::from_mbps(mean),
                peak: Bandwidth::from_mbps(amplitude),
                period: SimDuration::from_secs(period_s),
                duty: 0.3,
                phase: SimDuration::ZERO,
            },
        ];
        let t = SimTime::from_micros(t_us);
        for trace in traces {
            let d = trace.demand_at(t);
            prop_assert!(d.as_mbps() >= 0.0);
            prop_assert!(d.as_mbps() <= trace.peak().as_mbps() + 1e-9);
        }
    }

    /// CDF: fraction is monotone, 0 below the min, 1 at or above the max,
    /// and quantile is a (generalized) inverse of fraction.
    #[test]
    fn cdf_laws(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(samples.clone());
        let min = cdf.min().unwrap();
        let max = cdf.max().unwrap();
        prop_assert_eq!(cdf.fraction_at_or_below(min - 1.0), 0.0);
        prop_assert_eq!(cdf.fraction_at_or_below(max), 1.0);
        // Monotone over a few probe points.
        let mut last = 0.0;
        for i in 0..10 {
            let x = min + (max - min) * i as f64 / 9.0;
            let f = cdf.fraction_at_or_below(x);
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
        // Quantile inverse: at least p of the mass is ≤ quantile(p).
        for &p in &[0.1, 0.5, 0.9, 1.0] {
            let q = cdf.quantile(p);
            prop_assert!(cdf.fraction_at_or_below(q) >= p - 1e-12);
        }
    }

    /// SIPp failures are monotone in starvation: less granted bandwidth
    /// never yields fewer failures (same step, same rng seed).
    #[test]
    fn sipp_failures_monotone_in_starvation(
        grant_frac_lo in 0.0f64..1.0,
        grant_frac_hi in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let (lo, hi) = if grant_frac_lo <= grant_frac_hi {
            (grant_frac_lo, grant_frac_hi)
        } else {
            (grant_frac_hi, grant_frac_lo)
        };
        let run = |frac: f64| {
            let mut g = SippGenerator::new(SimTime::ZERO);
            let mut rng = StdRng::seed_from_u64(seed);
            let now = SimTime::from_secs(1);
            let demand = g.bw_demand_at(now);
            g.step(now, SimDuration::from_secs(1), demand * frac, &mut rng).failed
        };
        prop_assert!(run(lo) >= run(hi), "more bandwidth should not fail more calls");
    }

    /// The skewed-load draw always hits its target mean and stays
    /// non-negative.
    #[test]
    fn skewed_load_mean_exact(
        n in 1usize..500,
        target in 0.05f64..1.0,
        seed in any::<u64>(),
    ) {
        let utils = SkewedLoad {
            target_mean: Some(target),
            seed,
            ..SkewedLoad::default()
        }
        .draw(n);
        prop_assert_eq!(utils.len(), n);
        prop_assert!(utils.iter().all(|&u| u >= 0.0));
        let mean = utils.iter().sum::<f64>() / n as f64;
        prop_assert!((mean - target).abs() < 1e-9, "mean {mean} != {target}");
    }
}
