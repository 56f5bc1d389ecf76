//! The phi-accrual failure detector with SWIM-style suspicion tracking.
//!
//! Instead of a binary "alive until N missed probes" verdict, a phi-accrual
//! detector (Hayashibara et al., SRDS 2004) keeps a sliding window of
//! inter-arrival times per peer and outputs a *suspicion level*
//! `phi(t) = -log10(P(next arrival later than t))` under a normal
//! distribution fitted to the window. On a lossy or slow link the window
//! absorbs the longer gaps, so the same silence that would trip a fixed
//! `3 × interval` deadline yields a low phi — the detector adapts to the
//! link instead of evicting a live peer.
//!
//! Crossing the threshold does not kill the peer either: the detector
//! moves it to *suspect* and the protocol layer is expected to launch
//! SWIM-style indirect probes (ask `k` intermediaries to ping the suspect
//! on our behalf). Only when the confirmation grace expires with no proof
//! of life — direct or relayed — does [`PeerDetector::evaluate`] return
//! [`Verdict::Dead`].
//!
//! Everything here is pure state driven by the simulated clock: no wall
//! time, no hidden randomness, so detection decisions are deterministic
//! and replayable.

use vbundle_sim::{SimDuration, SimTime};

/// Expected inter-arrival time before any sample has been observed, for
/// holders with no better per-peer estimate (such as the probe interval
/// plus the peer's RTT) to hand to [`PeerDetector::new`].
pub const FIRST_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Inter-arrival samples kept per peer.
pub const WINDOW: usize = 16;
// `ArrivalWindow` indexes its ring with `u8`s.
const _: () = assert!(WINDOW <= u8::MAX as usize);

/// Suspicion level at which a peer becomes suspect. Phi 8 corresponds to
/// a false-positive probability of 1e-8 under the fitted model.
pub const PHI_THRESHOLD: f64 = 8.0;

/// Floor on the fitted standard deviation: very regular arrival streams
/// (a deterministic simulator is the extreme case) would otherwise make
/// the detector hair-triggered.
pub const MIN_STD_DEV: SimDuration = SimDuration::from_millis(200);

/// Slack added to the fitted mean — tolerated silence beyond the expected
/// cadence before phi starts to climb.
pub const ACCEPTABLE_PAUSE: SimDuration = SimDuration::ZERO;

/// How long a suspect may redeem itself (e.g. through an indirect probe
/// relayed by an intermediary) before it is declared dead.
pub const CONFIRM_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Stands for "never" in the stamps below: no real arrival or evaluation
/// happens at the end of time, and a plain `SimTime` is half the size of
/// an `Option`.
const NEVER: SimTime = SimTime::MAX;

/// A window's samples in micros: `u32`s while every gap fits one (up to
/// 71.6 min), widened for good into boxed `u64`s the first time one does
/// not, so every sample stays exact.
#[derive(Debug, Clone)]
enum Samples {
    Narrow([u32; WINDOW]),
    Wide(Box<[u64; WINDOW]>),
}

impl Samples {
    fn get(&self, i: usize) -> u64 {
        match self {
            Samples::Narrow(s) => u64::from(s[i]),
            Samples::Wide(s) => s[i],
        }
    }

    fn set(&mut self, i: usize, gap: u64) {
        match self {
            Samples::Wide(s) => s[i] = gap,
            Samples::Narrow(s) => match u32::try_from(gap) {
                Ok(narrow) => s[i] = narrow,
                Err(_) => {
                    let mut wide = Box::new(s.map(u64::from));
                    wide[i] = gap;
                    *self = Samples::Wide(wide);
                }
            },
        }
    }
}

/// A bounded window of inter-arrival times for one peer: the last
/// [`WINDOW`] samples in a ring held inline, so a link record that embeds
/// one owns no heap block until a gap outgrows a `u32`.
#[derive(Debug, Clone)]
pub struct ArrivalWindow {
    /// `len` samples, the oldest at `head`.
    samples: Samples,
    head: u8,
    len: u8,
    /// Sum of the samples, kept so the fitted mean is O(1).
    sum: u64,
    /// The last arrival (or start of observation); [`NEVER`] before one.
    last: SimTime,
    first_estimate: u64, // micros
}

impl ArrivalWindow {
    /// An empty window that will treat `first_estimate` as the expected
    /// cadence until real samples arrive.
    pub fn new(first_estimate: SimDuration) -> Self {
        ArrivalWindow {
            samples: Samples::Narrow([0; WINDOW]),
            head: 0,
            len: 0,
            sum: 0,
            last: NEVER,
            first_estimate: first_estimate.as_micros().max(1),
        }
    }

    /// Starts the silence clock without recording an interval — call when
    /// a peer first becomes interesting, so that it can accrue suspicion
    /// even if it never sends anything.
    pub fn observe(&mut self, now: SimTime) {
        if self.last == NEVER {
            self.last = now;
        }
    }

    /// Records a proof-of-life arrival; a full window drops its oldest
    /// sample.
    pub fn record(&mut self, now: SimTime) {
        if self.last != NEVER {
            let gap = now.saturating_since(self.last).as_micros();
            let len = usize::from(self.len);
            let at = (usize::from(self.head) + len) % WINDOW;
            if len == WINDOW {
                self.sum -= self.samples.get(at);
                self.head = ((at + 1) % WINDOW) as u8;
            } else {
                self.len += 1;
            }
            self.samples.set(at, gap);
            self.sum += gap;
        }
        self.last = now;
    }

    /// The samples, oldest first.
    fn samples_in_order(&self) -> impl Iterator<Item = u64> + '_ {
        let head = usize::from(self.head);
        (0..usize::from(self.len)).map(move |i| self.samples.get((head + i) % WINDOW))
    }

    /// When the peer last proved itself (or started being observed).
    pub fn last_seen(&self) -> Option<SimTime> {
        (self.last != NEVER).then_some(self.last)
    }

    /// Number of recorded inter-arrival samples.
    pub fn samples(&self) -> usize {
        usize::from(self.len)
    }

    /// Fitted mean inter-arrival time in microseconds.
    fn mean_micros(&self) -> f64 {
        if self.len == 0 {
            self.first_estimate as f64
        } else {
            self.sum as f64 / self.samples() as f64
        }
    }

    /// Fitted standard deviation in microseconds, floored at `min_std`.
    fn std_micros(&self, min_std: f64) -> f64 {
        if self.len < 2 {
            return min_std;
        }
        let mean = self.mean_micros();
        let var = self
            .samples_in_order()
            .map(|x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (self.samples() - 1) as f64;
        var.sqrt().max(min_std)
    }

    /// The silence so far and the expected gap (fitted mean plus `pause`),
    /// both in microseconds; `None` before the first observation.
    fn silence_and_expected(&self, now: SimTime, pause: SimDuration) -> Option<(f64, f64)> {
        let elapsed = now.saturating_since(self.last_seen()?).as_micros() as f64;
        Some((elapsed, self.mean_micros() + pause.as_micros() as f64))
    }

    /// Whether the silence at `now` is still within the expected gap.
    /// There [`phi`](ArrivalWindow::phi) takes its `elapsed <= mean`
    /// branch with `e >= 1`, so `p_later >= 1/2` and phi is at most
    /// `log10(2)` whatever the variance — the bound
    /// [`PeerDetector::evaluate`] uses to skip the fit. (Before the first
    /// observation phi is 0.)
    fn within_expected_gap(&self, now: SimTime, pause: SimDuration) -> bool {
        self.silence_and_expected(now, pause)
            .is_none_or(|(elapsed, expected)| elapsed <= expected)
    }

    /// The suspicion level at `now`: `-log10(P(arrival later than now))`
    /// under a normal fit of the window (logistic approximation to the
    /// normal CDF, as in the Akka/Cassandra implementations).
    pub fn phi(&self, now: SimTime, min_std: SimDuration, pause: SimDuration) -> f64 {
        let Some((elapsed, mean)) = self.silence_and_expected(now, pause) else {
            return 0.0;
        };
        let std = self.std_micros(min_std.as_micros().max(1) as f64);
        let y = (elapsed - mean) / std;
        let e = (-y * (1.5976 + 0.070566 * y * y)).exp();
        let p_later = if elapsed > mean {
            e / (1.0 + e)
        } else {
            1.0 - 1.0 / (1.0 + e)
        };
        -p_later.max(f64::MIN_POSITIVE).log10()
    }
}

/// Upper bound on phi while the silence is within the expected gap:
/// `log10(2)`, plus a margin far above the float error of the full
/// computation, so the two can never disagree about a threshold.
const PHI_WITHIN_EXPECTED_GAP: f64 = std::f64::consts::LOG10_2 + 1e-9;
// `PeerDetector::evaluate` skips the fit within the expected gap.
const _: () = assert!(PHI_THRESHOLD > PHI_WITHIN_EXPECTED_GAP);

/// What [`PeerDetector::evaluate`] concluded about a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Suspicion below threshold; keep probing normally.
    Alive,
    /// Phi crossed the threshold just now: the caller should launch
    /// indirect probes through intermediaries.
    NewlySuspect,
    /// Already suspect, confirmation grace still running.
    Suspect,
    /// The grace expired with no proof of life: evict.
    Dead,
}

/// One peer's phi-accrual state: its arrival window plus the SWIM
/// suspicion stamp. A layer embeds one in the record it keeps per peer
/// anyway (Pastry's leaf links, Scribe's tree links), so the state dies
/// with the record that holds it.
#[derive(Debug, Clone)]
pub struct PeerDetector {
    window: ArrivalWindow,
    /// When the peer became suspect; [`NEVER`] while it is not.
    suspect_since: SimTime,
}

impl PeerDetector {
    /// Starts tracking a peer at `now`: the silence clock runs from here,
    /// so the peer accrues suspicion even if it never sends anything.
    /// `estimate` is the expected cadence until real samples arrive.
    pub fn new(estimate: SimDuration, now: SimTime) -> Self {
        let mut window = ArrivalWindow::new(estimate);
        window.observe(now);
        PeerDetector {
            window,
            suspect_since: NEVER,
        }
    }

    /// Records a proof of life and clears any suspicion.
    pub fn heartbeat(&mut self, now: SimTime) {
        self.window.record(now);
        self.suspect_since = NEVER;
    }

    /// The current suspicion level.
    pub fn phi(&self, now: SimTime) -> f64 {
        self.window.phi(now, MIN_STD_DEV, ACCEPTABLE_PAUSE)
    }

    /// When the peer last proved itself alive, or started being tracked.
    pub fn last_seen(&self) -> SimTime {
        self.window.last
    }

    /// Whether the peer is currently under suspicion.
    pub fn is_suspect(&self) -> bool {
        self.suspect_since != NEVER
    }

    /// Classifies the peer at `now`, advancing the suspicion state machine.
    ///
    /// A peer still within its expected gap has `phi <= log10(2)`, below
    /// [`PHI_THRESHOLD`], so the verdict is `Alive` without fitting the
    /// variance or evaluating `exp`/`log10` — the common case on every
    /// probe round.
    pub fn evaluate(&mut self, now: SimTime) -> Verdict {
        if self.window.within_expected_gap(now, ACCEPTABLE_PAUSE) || self.phi(now) < PHI_THRESHOLD {
            self.suspect_since = NEVER;
            return Verdict::Alive;
        }
        if self.suspect_since == NEVER {
            self.suspect_since = now;
            Verdict::NewlySuspect
        } else if now.saturating_since(self.suspect_since) >= CONFIRM_TIMEOUT {
            Verdict::Dead
        } else {
            Verdict::Suspect
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn phi_grows_with_silence() {
        let mut w = ArrivalWindow::new(SimDuration::from_secs(1));
        for s in 0..8 {
            w.record(t(s));
        }
        let min = SimDuration::from_millis(200);
        let p1 = w.phi(t(9), min, SimDuration::ZERO);
        let p2 = w.phi(t(12), min, SimDuration::ZERO);
        assert!(p1 < p2, "phi must be monotone in silence: {p1} vs {p2}");
        assert!(w.phi(t(8), min, SimDuration::ZERO) < 1.0);
        assert!(p2 > 8.0, "5 s of silence on a 1 s cadence is damning: {p2}");
    }

    #[test]
    fn irregular_links_are_tolerated() {
        // Same total silence, but the window has seen multi-second gaps
        // before (a lossy link): phi stays low where the regular stream
        // above would have evicted.
        let mut w = ArrivalWindow::new(SimDuration::from_secs(1));
        for &s in &[0u64, 1, 4, 5, 8, 9, 12, 13] {
            w.record(t(s));
        }
        let min = SimDuration::from_millis(200);
        assert!(w.phi(t(16), min, SimDuration::ZERO) < 8.0);
    }

    #[test]
    fn suspect_state_machine_escalates_then_redeems() {
        let mut d = PeerDetector::new(FIRST_INTERVAL, t(0));
        for s in 0..6 {
            d.heartbeat(t(s));
        }
        assert_eq!(d.evaluate(t(6)), Verdict::Alive);
        // Silence: threshold crossing yields exactly one NewlySuspect.
        assert_eq!(d.evaluate(t(9)), Verdict::NewlySuspect);
        assert_eq!(d.evaluate(t(10)), Verdict::Suspect);
        assert!(d.is_suspect());
        // A (relayed) proof of life redeems the suspect.
        d.heartbeat(t(10));
        assert!(!d.is_suspect());
        assert_eq!(d.evaluate(t(11)), Verdict::Alive);
        // Silence again — longer this time, because the window has now
        // absorbed the 5 s gap and adapted its expectations — and this
        // time nobody vouches: dead after the confirmation grace.
        assert_eq!(d.evaluate(t(22)), Verdict::NewlySuspect);
        assert_eq!(d.evaluate(t(25)), Verdict::Dead);
    }

    #[test]
    fn observe_alone_accrues_suspicion() {
        let mut d = PeerDetector::new(SimDuration::from_secs(1), t(0));
        assert_eq!(d.evaluate(t(30)), Verdict::NewlySuspect);
    }

    #[test]
    fn a_gap_past_u32_widens_the_window_for_good() {
        let mut w = ArrivalWindow::new(FIRST_INTERVAL);
        w.record(t(0));
        w.record(t(1));
        assert!(matches!(w.samples, Samples::Narrow(_)));
        let long = SimDuration::from_micros(u64::from(u32::MAX) + 1);
        let at = t(1) + long;
        w.record(at);
        assert!(matches!(w.samples, Samples::Wide(_)));
        assert_eq!(w.sum, 1_000_000 + long.as_micros());
        // Once the long gap has left the ring, the window stays wide.
        for s in 1..=WINDOW as u64 {
            w.record(at + SimDuration::from_secs(s));
        }
        assert_eq!(w.sum, WINDOW as u64 * 1_000_000);
        assert!(matches!(w.samples, Samples::Wide(_)));
    }

    /// `ArrivalWindow` as it was before the inline ring: a `VecDeque` of
    /// at most [`WINDOW`] samples, the reference the ring must match.
    struct DequeWindow {
        intervals: std::collections::VecDeque<u64>,
        sum: u64,
        last: Option<SimTime>,
        first_estimate: u64,
    }

    impl DequeWindow {
        fn new(first_estimate: SimDuration) -> Self {
            DequeWindow {
                intervals: std::collections::VecDeque::with_capacity(WINDOW),
                sum: 0,
                last: None,
                first_estimate: first_estimate.as_micros().max(1),
            }
        }

        fn observe(&mut self, now: SimTime) {
            if self.last.is_none() {
                self.last = Some(now);
            }
        }

        fn record(&mut self, now: SimTime) {
            if let Some(last) = self.last {
                if self.intervals.len() == WINDOW {
                    self.sum -= self.intervals.pop_front().unwrap_or(0);
                }
                let gap = now.saturating_since(last).as_micros();
                self.intervals.push_back(gap);
                self.sum += gap;
            }
            self.last = Some(now);
        }

        fn mean_micros(&self) -> f64 {
            if self.intervals.is_empty() {
                self.first_estimate as f64
            } else {
                self.sum as f64 / self.intervals.len() as f64
            }
        }

        fn std_micros(&self, min_std: f64) -> f64 {
            if self.intervals.len() < 2 {
                return min_std;
            }
            let mean = self.mean_micros();
            let var = self
                .intervals
                .iter()
                .map(|&x| {
                    let d = x as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / (self.intervals.len() - 1) as f64;
            var.sqrt().max(min_std)
        }

        fn phi(&self, now: SimTime, min_std: SimDuration, pause: SimDuration) -> f64 {
            let Some(last) = self.last else {
                return 0.0;
            };
            let elapsed = now.saturating_since(last).as_micros() as f64;
            let mean = self.mean_micros() + pause.as_micros() as f64;
            let std = self.std_micros(min_std.as_micros().max(1) as f64);
            let y = (elapsed - mean) / std;
            let e = (-y * (1.5976 + 0.070566 * y * y)).exp();
            let p_later = if elapsed > mean {
                e / (1.0 + e)
            } else {
                1.0 - 1.0 / (1.0 + e)
            };
            -p_later.max(f64::MIN_POSITIVE).log10()
        }
    }

    proptest::proptest! {
        /// The ring holds what the deque held: after any sequence of
        /// arrivals — gaps of zero, under a millisecond, seconds, and past
        /// `u32::MAX` µs, enough of them to wrap the ring several times —
        /// sample count, fitted mean and phi at arbitrary instants agree
        /// to the bit.
        #[test]
        fn ring_matches_the_deque(
            observed in proptest::prelude::any::<bool>(),
            estimate_ms in 0u64..5000,
            min_std_ms in 0u64..400,
            pause_ms in 0u64..2000,
            steps in proptest::collection::vec((0u32..5, 0u64..1_000_000, 0u64..10_000_000), 1..80),
        ) {
            let estimate = SimDuration::from_millis(estimate_ms);
            let min_std = SimDuration::from_millis(min_std_ms);
            let pause = SimDuration::from_millis(pause_ms);
            let mut now = SimTime::from_secs(1);
            let mut ring = ArrivalWindow::new(estimate);
            let mut deque = DequeWindow::new(estimate);
            if observed {
                ring.observe(now);
                deque.observe(now);
            }
            for (class, small, large) in steps {
                let gap = match class {
                    0 => 0,
                    1 => small % 1000,
                    2 => 1_000_000 + large,
                    3 => u64::from(u32::MAX) + large,
                    // Not an arrival: read both at an instant ahead.
                    _ => {
                        let at = now + SimDuration::from_micros(large);
                        proptest::prop_assert_eq!(
                            ring.phi(at, min_std, pause).to_bits(),
                            deque.phi(at, min_std, pause).to_bits()
                        );
                        continue;
                    }
                };
                now += SimDuration::from_micros(gap);
                ring.record(now);
                deque.record(now);
                proptest::prop_assert_eq!(ring.samples(), deque.intervals.len());
                proptest::prop_assert_eq!(ring.last_seen(), deque.last);
                proptest::prop_assert_eq!(ring.mean_micros().to_bits(), deque.mean_micros().to_bits());
                proptest::prop_assert_eq!(
                    ring.phi(now, min_std, pause).to_bits(),
                    deque.phi(now, min_std, pause).to_bits()
                );
            }
        }
    }

    /// `evaluate` as it was before the within-expected-gap shortcut: the
    /// verdict always comes from the fitted phi.
    fn evaluate_reference(d: &mut PeerDetector, now: SimTime) -> Verdict {
        if d.phi(now) < PHI_THRESHOLD {
            d.suspect_since = NEVER;
            return Verdict::Alive;
        }
        if d.suspect_since == NEVER {
            d.suspect_since = now;
            Verdict::NewlySuspect
        } else if now.saturating_since(d.suspect_since) >= CONFIRM_TIMEOUT {
            Verdict::Dead
        } else {
            Verdict::Suspect
        }
    }

    proptest::proptest! {
        /// Steps are mostly around the 1 s cadence (so evaluations land on
        /// both sides of the fitted mean), with the odd long silence.
        #[test]
        fn shortcut_never_changes_a_verdict(
            estimate_ms in 1u64..3000,
            steps in proptest::collection::vec((0u32..4, 0u64..8, 0u64..1_000_000), 1..120),
        ) {
            let estimate = SimDuration::from_millis(estimate_ms);
            let mut now = SimTime::from_secs(1);
            let mut fast = PeerDetector::new(estimate, now);
            let mut slow = fast.clone();
            for (kind, whole, micros) in steps {
                // 0..2 s in most steps, up to 8 s in one of eight.
                let secs = if whole == 7 { 8 } else { whole % 2 };
                now += SimDuration::from_micros(secs * 1_000_000 + micros);
                if kind == 0 {
                    fast.heartbeat(now);
                    slow.heartbeat(now);
                } else {
                    proptest::prop_assert_eq!(
                        fast.evaluate(now),
                        evaluate_reference(&mut slow, now)
                    );
                }
                proptest::prop_assert_eq!(fast.is_suspect(), slow.is_suspect());
                proptest::prop_assert_eq!(fast.suspect_since, slow.suspect_since);
                proptest::prop_assert_eq!(fast.last_seen(), slow.last_seen());
            }
        }
    }
}
