//! A SIPp-like call-generator model (§V.A).
//!
//! The paper drives its QoS experiments with SIPp: a SIP traffic generator
//! whose call rate ramps from 800 calls/s by +10 every second up to
//! 3000 calls/s, for one million calls total. Calls carry RTP media, so
//! each concurrent call consumes bandwidth; when the hosting server's NIC
//! is saturated by interference traffic, calls fail and response times
//! balloon — the effects Figures 12 and 13 measure.
//!
//! The model is a fluid approximation: in each step the generator offers
//! `rate × dt` calls needing `rate × bw_per_call` of bandwidth. The
//! fraction of that demand actually granted (by the HTB shaper) sets the
//! per-call failure probability and the response-time distribution.

use rand::rngs::StdRng;
use rand::Rng;
use vbundle_dcn::Bandwidth;
use vbundle_sim::{SimDuration, SimTime};

/// Initial call rate (calls per second).
const START_RATE: f64 = 800.0;
/// Rate increase per second.
const RAMP_PER_SEC: f64 = 10.0;
/// Maximum call rate.
const MAX_RATE: f64 = 3000.0;
/// Total calls to place before the generator stops.
const TOTAL_CALLS: u64 = 1_000_000;
/// Bandwidth each concurrent call consumes, in Mbps: a ~100 kbps RTP
/// stream.
const BW_PER_CALL_MBPS: f64 = 0.1;
/// Response time of a healthy call: uniform in this range (ms).
const HEALTHY_RESPONSE_MS: (f64, f64) = (1.0, 9.0);
/// Response time of a congested call: uniform in this range (ms).
const CONGESTED_RESPONSE_MS: (f64, f64) = (12.0, 200.0);
/// Fraction of unsatisfied demand that turns into failed calls (the rest
/// merely slows down).
const FAILURE_SHARE: f64 = 0.5;

/// One measurement step's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SippSample {
    /// Calls attempted in the step.
    pub attempted: u64,
    /// Calls that failed in the step.
    pub failed: u64,
}

/// The SIPp generator state; its load is the paper's fixed §V.A ramp.
#[derive(Debug, Clone)]
pub struct SippGenerator {
    started_at: SimTime,
    placed: u64,
    cumulative_failed: u64,
    response_samples: Vec<f64>,
}

impl SippGenerator {
    /// Creates a generator that starts ramping at `started_at`.
    pub fn new(started_at: SimTime) -> Self {
        SippGenerator {
            started_at,
            placed: 0,
            cumulative_failed: 0,
            response_samples: Vec::new(),
        }
    }

    /// Current call rate at instant `t` (calls/s).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        if t < self.started_at || self.placed >= TOTAL_CALLS {
            return 0.0;
        }
        let elapsed = (t - self.started_at).as_secs_f64();
        (START_RATE + RAMP_PER_SEC * elapsed).min(MAX_RATE)
    }

    /// Bandwidth the generator currently demands.
    pub fn bw_demand_at(&self, t: SimTime) -> Bandwidth {
        Bandwidth::from_mbps(BW_PER_CALL_MBPS) * self.rate_at(t)
    }

    /// Advances one step of length `dt` ending at `now`, given the
    /// bandwidth actually `granted` to the SIPp VM. Returns the step's
    /// attempted/failed counts; response-time samples accumulate for the
    /// CDF (up to 64 per step to bound memory).
    pub fn step(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        granted: Bandwidth,
        rng: &mut StdRng,
    ) -> SippSample {
        let rate = self.rate_at(now);
        if rate <= 0.0 {
            return SippSample::default();
        }
        let mut attempted = (rate * dt.as_secs_f64()).round() as u64;
        attempted = attempted.min(TOTAL_CALLS - self.placed);
        self.placed += attempted;
        let demand = Bandwidth::from_mbps(BW_PER_CALL_MBPS) * rate;
        let satisfied_frac = if demand.is_zero() {
            1.0
        } else {
            (granted / demand).clamp(0.0, 1.0)
        };
        let starved_frac = 1.0 - satisfied_frac;
        let failed = (attempted as f64 * starved_frac * FAILURE_SHARE).round() as u64;
        self.cumulative_failed += failed;
        // Sample response times. Queueing delay near saturation affects
        // nearly every call, not just the starved share, so the healthy
        // probability falls off as the cube of the satisfied fraction
        // (an M/M/1-flavoured knee): at 50% satisfaction only ~12% of
        // calls still answer fast — matching the paper's Fig. 13, where
        // barely 10% of calls met 10 ms before rebalancing.
        let healthy_prob = satisfied_frac.clamp(0.0, 1.0).powi(3);
        let samples = attempted.min(64);
        for _ in 0..samples {
            let healthy = rng.gen_bool(healthy_prob);
            let (lo, hi) = if healthy {
                HEALTHY_RESPONSE_MS
            } else {
                CONGESTED_RESPONSE_MS
            };
            self.response_samples.push(rng.gen_range(lo..hi));
        }
        SippSample { attempted, failed }
    }

    /// Calls placed so far.
    pub fn placed(&self) -> u64 {
        self.placed
    }

    /// Total failed calls so far (the Y axis of Fig. 12).
    pub fn cumulative_failed(&self) -> u64 {
        self.cumulative_failed
    }

    /// Response-time samples gathered so far (ms), for the Fig. 13 CDF.
    pub fn response_samples(&self) -> &[f64] {
        &self.response_samples
    }

    /// Drains the response samples (e.g. to split before/after phases).
    pub fn take_response_samples(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.response_samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn rate_ramps_and_caps() {
        let g = SippGenerator::new(SimTime::from_secs(100));
        assert_eq!(g.rate_at(SimTime::from_secs(50)), 0.0);
        assert_eq!(g.rate_at(SimTime::from_secs(100)), 800.0);
        assert_eq!(g.rate_at(SimTime::from_secs(110)), 900.0);
        assert_eq!(g.rate_at(SimTime::from_secs(400)), 3000.0); // capped
    }

    #[test]
    fn healthy_calls_do_not_fail() {
        let mut g = SippGenerator::new(SimTime::ZERO);
        let mut r = rng();
        let demand = g.bw_demand_at(SimTime::from_secs(1));
        let s = g.step(
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            demand,
            &mut r,
        );
        assert!(s.attempted > 0);
        assert_eq!(s.failed, 0);
        assert_eq!(g.cumulative_failed(), 0);
        // All response samples in the healthy band.
        assert!(g.response_samples().iter().all(|&ms| ms < 10.0));
    }

    #[test]
    fn starved_calls_fail_and_slow_down() {
        let mut g = SippGenerator::new(SimTime::ZERO);
        let mut r = rng();
        let demand = g.bw_demand_at(SimTime::from_secs(1));
        let s = g.step(
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            demand / 10.0, // 90% starved
            &mut r,
        );
        assert!(s.failed > 0);
        assert!(s.failed < s.attempted);
        let slow = g
            .response_samples()
            .iter()
            .filter(|&&ms| ms >= 10.0)
            .count();
        assert!(slow * 10 >= g.response_samples().len() * 7, "mostly slow");
    }

    #[test]
    fn total_calls_bound_respected() {
        let mut g = SippGenerator::new(SimTime::ZERO);
        let mut r = rng();
        // One-minute steps reach the million calls in the seventh step,
        // which is cut to what is left; later steps place nothing.
        for minute in 1..10 {
            let now = SimTime::from_mins(minute);
            let grant = g.bw_demand_at(now);
            g.step(now, SimDuration::from_mins(1), grant, &mut r);
        }
        assert_eq!(g.placed(), TOTAL_CALLS);
        assert_eq!(g.rate_at(SimTime::from_mins(20)), 0.0);
    }

    #[test]
    fn take_samples_splits_phases() {
        let mut g = SippGenerator::new(SimTime::ZERO);
        let mut r = rng();
        g.step(
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            Bandwidth::ZERO,
            &mut r,
        );
        let before = g.take_response_samples();
        assert!(!before.is_empty());
        assert!(g.response_samples().is_empty());
    }
}
