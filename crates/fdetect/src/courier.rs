//! A reliable request/response courier: retransmission with exponential
//! backoff, deterministic jitter and a bounded retry budget.
//!
//! The courier is a passive table — it does not send anything itself,
//! because every protocol layer in this workspace owns its own wire type
//! and timer loop. The embedding layer drives it:
//!
//! 1. [`Courier::register`] a request key before the first send; arm a
//!    timer with the returned timeout.
//! 2. On the timer, call [`Courier::on_timeout`]: [`RetryDecision::Retry`]
//!    means resend and re-arm, [`RetryDecision::GiveUp`] means the retry
//!    budget is exhausted (roll back / escalate), [`RetryDecision::Settled`]
//!    means the ack won the race with the timer.
//! 3. On the response, call [`Courier::ack`].
//!
//! Jitter is drawn from the in-tree `rand` stub seeded with
//! `(salt, key, attempt)`, so retransmission schedules are fully
//! deterministic yet de-synchronized across concurrent requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbundle_sim::{FlatMap, SimDuration};

/// Jitter added to each timeout, as a percentage of that timeout (up to
/// +10 %). De-synchronizes retry storms.
const JITTER_PCT: u64 = 10;

/// Tunables of a [`Courier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CourierConfig {
    /// Timeout of the first attempt.
    pub base_timeout: SimDuration,
    /// Cap on the backed-off timeout.
    pub max_timeout: SimDuration,
    /// Total send attempts (first transmission included) before
    /// [`RetryDecision::GiveUp`].
    pub max_attempts: u32,
    /// Seed salt for the jitter stream — lets two couriers with the same
    /// keys jitter differently.
    pub salt: u64,
}

impl Default for CourierConfig {
    fn default() -> Self {
        CourierConfig {
            base_timeout: SimDuration::from_secs(1),
            max_timeout: SimDuration::from_mins(1),
            max_attempts: 4,
            salt: 0,
        }
    }
}

/// What to do when a request's ack timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Resend and re-arm the timer with this timeout.
    Retry {
        /// Timeout for the retransmitted attempt.
        timeout: SimDuration,
    },
    /// Retry budget exhausted: the request failed.
    GiveUp,
    /// The request was acked (or abandoned) before the timer fired.
    Settled,
}

/// Retransmission state for outstanding requests keyed by message id.
#[derive(Debug, Clone)]
pub struct Courier {
    /// key → attempts already sent.
    outstanding: FlatMap<u64, u32>,
    config: CourierConfig,
}

impl Courier {
    /// Creates a courier.
    pub fn new(config: CourierConfig) -> Self {
        Courier {
            outstanding: FlatMap::new(),
            config,
        }
    }

    /// The tunables in effect.
    pub fn config(&self) -> &CourierConfig {
        &self.config
    }

    /// Timeout for a given attempt of `key`: exponential backoff from
    /// `base_timeout`, capped, plus deterministic jitter.
    pub fn timeout_for(&self, key: u64, attempt: u32) -> SimDuration {
        let base = self.config.base_timeout.as_micros().max(1);
        let cap = self.config.max_timeout.as_micros().max(base);
        let backed_off = base.saturating_mul(1u64 << attempt.min(16)).min(cap);
        let jitter_cap = backed_off / 100 * JITTER_PCT;
        let jitter = if jitter_cap == 0 {
            0
        } else {
            let seed = self
                .config
                .salt
                .wrapping_add(key.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((attempt as u64) << 32);
            StdRng::seed_from_u64(seed).gen_range(0..=jitter_cap)
        };
        SimDuration::from_micros(backed_off + jitter)
    }

    /// Registers a new request and returns the first attempt's timeout.
    /// Re-registering an outstanding key restarts its budget.
    pub fn register(&mut self, key: u64) -> SimDuration {
        self.outstanding.insert(key, 1);
        self.timeout_for(key, 0)
    }

    /// Returns the timeout covering `key`'s current attempt, registering
    /// the key if it is not outstanding — used to re-arm timers after a
    /// restart purged them without burning a retry.
    pub fn arm(&mut self, key: u64) -> SimDuration {
        let attempts = *self.outstanding.get_or_insert_with(key, || 1);
        self.timeout_for(key, attempts - 1)
    }

    /// The response arrived; returns true if the key was outstanding
    /// (false = duplicate or stale ack, already settled).
    pub fn ack(&mut self, key: u64) -> bool {
        self.outstanding.remove(&key).is_some()
    }

    /// The ack timer for `key` fired.
    pub fn on_timeout(&mut self, key: u64) -> RetryDecision {
        let Some(attempts) = self.outstanding.get_mut(&key) else {
            return RetryDecision::Settled;
        };
        if *attempts >= self.config.max_attempts {
            self.outstanding.remove(&key);
            return RetryDecision::GiveUp;
        }
        let attempt = *attempts;
        *attempts += 1;
        RetryDecision::Retry {
            timeout: self.timeout_for(key, attempt),
        }
    }

    /// Whether `key` still awaits its response.
    pub fn is_outstanding(&self, key: u64) -> bool {
        self.outstanding.contains_key(&key)
    }

    /// Outstanding keys, in order.
    pub fn outstanding_keys(&self) -> Vec<u64> {
        self.outstanding.keys().copied().collect()
    }

    /// Abandons `key` without an ack (e.g. the peer was declared dead).
    pub fn forget(&mut self, key: u64) {
        self.outstanding.remove(&key);
    }
}

/// Rounds to wait before resurrection-probe attempt `attempt`, with the
/// exponent capped at `max_exp`: `1, 2, 4, …, 2^max_exp, 2^max_exp, …`.
///
/// Used where retries piggyback on an existing periodic timer (Pastry's
/// maintenance loop probing its graveyard) instead of arming their own:
/// the schedule backs off like the courier's but is measured in rounds.
pub fn backoff_rounds(attempt: u32, max_exp: u32) -> u64 {
    1u64 << attempt.min(max_exp).min(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> CourierConfig {
        CourierConfig {
            base_timeout: SimDuration::from_secs(1),
            max_timeout: SimDuration::from_secs(6),
            max_attempts: 3,
            salt: 42,
        }
    }

    /// Attempt `k` waits `2^k` s, capped at 6 s, plus up to 10 % jitter.
    #[test]
    fn backoff_doubles_and_caps() {
        let c = Courier::new(config());
        for (attempt, secs) in [(0, 1), (1, 2), (2, 4), (3, 6), (63, 6)] {
            let base = SimDuration::from_secs(secs);
            let t = c.timeout_for(1, attempt);
            assert!(t >= base && t <= base + base / 10, "attempt {attempt}: {t}");
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let c = Courier::new(config());
        let t1 = c.timeout_for(9, 1);
        let t2 = c.timeout_for(9, 1);
        assert_eq!(t1, t2, "same (key, attempt) must jitter identically");
        assert!(t1 >= SimDuration::from_secs(2));
        assert!(t1 <= SimDuration::from_micros(2_200_000));
        // Different keys de-synchronize.
        let spread: Vec<SimDuration> = (0..16).map(|k| c.timeout_for(k, 1)).collect();
        assert!(spread.iter().any(|&t| t != spread[0]));
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut c = Courier::new(config());
        c.register(5);
        assert!(matches!(c.on_timeout(5), RetryDecision::Retry { .. }));
        assert!(matches!(c.on_timeout(5), RetryDecision::Retry { .. }));
        assert_eq!(c.on_timeout(5), RetryDecision::GiveUp);
        assert!(!c.is_outstanding(5));
        assert_eq!(c.on_timeout(5), RetryDecision::Settled);
    }

    /// Drive a request all the way to exhaustion: the decision sequence is
    /// exactly `Retry^(max_attempts-1), GiveUp`, the give-up fires *once*
    /// (spurious timers afterwards settle silently), and the backoff
    /// schedule — jitter included — replays identically in a fresh courier.
    #[test]
    fn exhaustion_gives_up_once_with_replayable_backoff() {
        let schedule = |c: &mut Courier| {
            let mut timeouts = vec![c.register(77)];
            let mut give_ups = 0;
            // Fire the timer well past the budget, as a buggy embedding
            // that re-arms after give-up would.
            for _ in 0..10 {
                match c.on_timeout(77) {
                    RetryDecision::Retry { timeout } => timeouts.push(timeout),
                    RetryDecision::GiveUp => give_ups += 1,
                    RetryDecision::Settled => {}
                }
            }
            (timeouts, give_ups)
        };
        let (timeouts, give_ups) = schedule(&mut Courier::new(config()));
        assert_eq!(give_ups, 1, "give-up must fire exactly once");
        assert_eq!(
            timeouts.len(),
            config().max_attempts as usize,
            "one timeout per attempt, first transmission included"
        );
        assert!(
            timeouts.windows(2).all(|w| w[0] < w[1]),
            "backoff grows monotonically: {timeouts:?}"
        );
        let (replay, _) = schedule(&mut Courier::new(config()));
        assert_eq!(timeouts, replay, "schedule must replay bit-for-bit");
    }

    #[test]
    fn ack_settles_and_dedups() {
        let mut c = Courier::new(config());
        c.register(8);
        assert!(c.ack(8));
        assert!(!c.ack(8), "second ack is a duplicate");
        assert_eq!(c.on_timeout(8), RetryDecision::Settled);
    }

    #[test]
    fn arm_does_not_burn_retries() {
        let mut c = Courier::new(config());
        c.register(3);
        assert!(matches!(c.on_timeout(3), RetryDecision::Retry { .. }));
        let before = c.outstanding_keys();
        let t = c.arm(3);
        assert_eq!(before, c.outstanding_keys());
        assert_eq!(t, c.timeout_for(3, 1));
    }

    #[test]
    fn backoff_rounds_schedule() {
        let rounds: Vec<u64> = (0..5).map(|a| backoff_rounds(a, 2)).collect();
        assert_eq!(rounds, vec![1, 2, 4, 4, 4]);
    }
}
