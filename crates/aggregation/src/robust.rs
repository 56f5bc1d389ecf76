//! Poison-tolerant combine policies for the aggregation trees.
//!
//! The global mean published by a tree steers every v-Bundle controller's
//! shedder/receiver self-classification, so one lying reporter can whipsaw
//! the whole cluster. This module hardens the tree against *wrong data*
//! (as opposed to the silence and duplication the failure detectors already
//! cover) with three independent layers:
//!
//! 1. **Input validation** — a subtree report must be finite, non-negative,
//!    internally consistent (`min ≤ mean ≤ max`), within the physical
//!    per-sample ceiling, and claim no more nodes than a subtree can
//!    legally contain. Reports failing any rule are rejected outright and
//!    the child's *last accepted* contribution is kept (an epoch-stamped
//!    last-good snapshot: the information base simply is not overwritten).
//! 2. **Winsorized (trimmed-mean) combine** — at every interior node the
//!    single highest- and lowest-mean contributions are clamped to the
//!    nearest other contribution's mean before merging. Unlike a dropping
//!    trim this preserves the honest subtree's node *count*, so the global
//!    `count` stays exact while a stuck-at-zero or inflated child loses its
//!    leverage over the mean.
//! 3. **Bounded publication delta** — the root limits how far the published
//!    global mean may move per publication relative to its last published
//!    value, so even a poison value that survives 1–2 crawls toward the lie
//!    instead of jumping, giving the controller's sanity gate time to react.
//!
//! [`Robustness::TrustAll`] disables all three and is the ablation baseline
//! the `poison_sweep` benchmark measures against.

use crate::AggValue;

/// How an [`Aggregator`](crate::Aggregator) treats incoming contributions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Robustness {
    /// Believe every report verbatim (the pre-hardening behavior, kept as
    /// the ablation baseline). Lossless: honest runs aggregate exactly.
    #[default]
    TrustAll,
    /// Validate, clamp, winsorize and bound-step against the constants
    /// below.
    Defensive,
}

/// Why a contribution was rejected by [`Robustness::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A field is NaN or infinite.
    NonFinite,
    /// A negative sum, minimum or maximum (load cannot be negative).
    Negative,
    /// The report claims more samples than a legal subtree can hold.
    CountBound,
    /// `min ≤ mean ≤ max` does not hold — the summary lies about itself.
    Inconsistent,
    /// The mean or maximum exceeds the physical per-sample ceiling.
    OverCapacity,
}

/// Physical ceiling on a single sample (e.g. a server's NIC capacity in
/// Mbps). A subtree of `n` nodes can legally report at most
/// `n × MAX_SAMPLE` of anything. Generous: 100 Gbps in Mbps, far above the
/// paper's 1 Gbps testbed NICs, so honest traffic never trips it.
const MAX_SAMPLE: f64 = 100_000.0;
/// Upper bound on the node count a single contribution may claim — no
/// subtree can be larger than the cluster.
const MAX_SUBTREE_NODES: u64 = 65_536;
/// Fraction of the last published mean the root may move per publication
/// (the bounded per-interval delta).
const MAX_STEP_FRAC: f64 = 0.5;
/// Absolute mean delta always allowed per publication, so the global can
/// move off zero and small topics are not frozen.
const MAX_STEP_FLOOR: f64 = 10.0;

/// Relative slack for internal-consistency float comparisons.
const CONSISTENCY_SLACK: f64 = 1e-6;

impl Robustness {
    /// Validates one contribution against the rules above; `TrustAll`
    /// admits everything. Empty values are legal (a still-joining child
    /// has nothing to report — and nothing to poison).
    pub fn check(self, v: &AggValue) -> Result<(), RejectReason> {
        if self == Robustness::TrustAll || v.is_empty() {
            return Ok(());
        }
        let finite = v.sum.is_finite()
            && v.min.is_none_or(f64::is_finite)
            && v.max.is_none_or(f64::is_finite);
        if !finite {
            return Err(RejectReason::NonFinite);
        }
        if v.sum < 0.0 || v.min.is_some_and(|m| m < 0.0) || v.max.is_some_and(|m| m < 0.0) {
            return Err(RejectReason::Negative);
        }
        if v.count > MAX_SUBTREE_NODES {
            return Err(RejectReason::CountBound);
        }
        let mean = v.sum / v.count as f64;
        let slack = CONSISTENCY_SLACK * (1.0 + mean.abs());
        let (min, max) = (v.min.unwrap_or(mean), v.max.unwrap_or(mean));
        if min > max + slack || mean < min - slack || mean > max + slack {
            return Err(RejectReason::Inconsistent);
        }
        if mean > MAX_SAMPLE + slack || max > MAX_SAMPLE + slack {
            return Err(RejectReason::OverCapacity);
        }
        Ok(())
    }

    /// Clamps an accepted contribution into `[0, MAX_SAMPLE]` per sample —
    /// a no-op for anything [`check`](Robustness::check) admits, kept as
    /// defense in depth should validation rules and physical ceilings ever
    /// drift apart. `TrustAll` returns `v` as is.
    pub fn clamp(self, v: AggValue) -> AggValue {
        if self == Robustness::TrustAll || v.is_empty() {
            return v;
        }
        let mean = (v.sum / v.count as f64).clamp(0.0, MAX_SAMPLE);
        AggValue {
            sum: mean * v.count as f64,
            count: v.count,
            min: v.min.map(|m| m.clamp(0.0, MAX_SAMPLE)),
            max: v.max.map(|m| m.clamp(0.0, MAX_SAMPLE)),
        }
    }

    /// Limits how far the next published global may move the mean relative
    /// to the last published value. The returned value keeps `next`'s count
    /// (the membership view is not in question, only the magnitude) and
    /// widens `min`/`max` just enough to stay internally consistent.
    /// `TrustAll` publishes `next` unbounded.
    pub fn bound_step(self, last: Option<AggValue>, next: AggValue) -> AggValue {
        let Some(last) = last.filter(|_| self == Robustness::Defensive) else {
            return next;
        };
        let (Some(last_mean), Some(next_mean)) = (last.mean(), next.mean()) else {
            return next;
        };
        let allowed = MAX_STEP_FLOOR + MAX_STEP_FRAC * last_mean.abs();
        let bounded = next_mean.clamp(last_mean - allowed, last_mean + allowed);
        if bounded == next_mean {
            return next;
        }
        AggValue {
            sum: bounded * next.count as f64,
            count: next.count,
            min: next.min.map(|m| m.min(bounded)),
            max: next.max.map(|m| m.max(bounded)),
        }
    }
}

/// Merges contributions after clamping the single highest- and lowest-mean
/// ones to the nearest other contribution's mean (a winsorized trim).
///
/// With two or fewer non-empty contributions there is no "crowd" to trim
/// against and the plain merge is returned. The trim clamps rather than
/// drops, so every honest node under a trimmed subtree still counts toward
/// the global `count`; only the outlier's *magnitude* is reined in. The
/// trimmed contribution's `min`/`max` are clamped into the same bounds so
/// poison cannot ride the extrema fields upward instead.
pub fn winsorized_combine(contribs: &[AggValue]) -> AggValue {
    let mut nonempty: Vec<AggValue> = contribs.iter().copied().filter(|v| !v.is_empty()).collect();
    if nonempty.len() <= 2 {
        return nonempty.iter().fold(AggValue::EMPTY, |acc, v| acc.merge(v));
    }
    let mut ranked: Vec<(usize, f64)> = nonempty
        .iter()
        .enumerate()
        .map(|(i, v)| (i, v.sum / v.count as f64))
        .collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let lo_bound = ranked[1].1;
    let hi_bound = ranked[ranked.len() - 2].1;
    let lo_idx = ranked[0].0;
    let hi_idx = ranked[ranked.len() - 1].0;
    winsorize(&mut nonempty[lo_idx], lo_bound, hi_bound);
    winsorize(&mut nonempty[hi_idx], lo_bound, hi_bound);
    nonempty.iter().fold(AggValue::EMPTY, |acc, v| acc.merge(v))
}

fn winsorize(v: &mut AggValue, lo: f64, hi: f64) {
    debug_assert!(lo <= hi);
    let mean = v.sum / v.count as f64;
    let clamped = mean.clamp(lo, hi);
    v.sum = clamped * v.count as f64;
    v.min = v.min.map(|m| m.clamp(lo, hi));
    v.max = v.max.map(|m| m.clamp(lo, hi));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Robustness {
        Robustness::Defensive
    }

    #[test]
    fn check_accepts_honest_and_empty() {
        assert_eq!(p().check(&AggValue::EMPTY), Ok(()));
        let honest: AggValue = vec![10.0, 620.0, 330.0].into_iter().collect();
        assert_eq!(p().check(&honest), Ok(()));
    }

    #[test]
    fn check_rejects_each_poison_shape() {
        let mut nan = AggValue::of(5.0);
        nan.sum = f64::NAN;
        assert_eq!(p().check(&nan), Err(RejectReason::NonFinite));

        let mut inf = AggValue::of(5.0);
        inf.max = Some(f64::INFINITY);
        assert_eq!(p().check(&inf), Err(RejectReason::NonFinite));

        let mut neg = AggValue::of(5.0);
        neg.sum = -5.0;
        neg.min = Some(-5.0);
        assert_eq!(p().check(&neg), Err(RejectReason::Negative));

        let mut fat = AggValue::of(5.0);
        fat.count = 1 << 40;
        assert_eq!(p().check(&fat), Err(RejectReason::CountBound));

        let mut liar = AggValue::of(5.0);
        liar.min = Some(50.0);
        liar.max = Some(60.0);
        assert_eq!(p().check(&liar), Err(RejectReason::Inconsistent));

        let huge = AggValue::of(5.0e9);
        assert_eq!(p().check(&huge), Err(RejectReason::OverCapacity));
    }

    #[test]
    fn frozen_zero_passes_validation() {
        // A stuck-at-zero reporter is *plausible* — range checks cannot
        // catch it; only the trimmed combine / controller gate can.
        let mut frozen = AggValue::of(620.0);
        frozen.sum = 0.0;
        frozen.min = Some(0.0);
        frozen.max = Some(0.0);
        assert_eq!(p().check(&frozen), Ok(()));
    }

    #[test]
    fn clamp_is_identity_on_valid_input() {
        let honest: AggValue = vec![10.0, 620.0].into_iter().collect();
        assert_eq!(p().clamp(honest), honest);
        assert_eq!(p().clamp(AggValue::EMPTY), AggValue::EMPTY);
    }

    #[test]
    fn winsorized_combine_tames_an_outlier() {
        // Nine honest servers near 500 and one stuck at zero.
        let mut contribs: Vec<AggValue> = (0..9)
            .map(|i| AggValue::of(480.0 + i as f64 * 5.0))
            .collect();
        let mut frozen = AggValue::of(500.0);
        frozen.sum = 0.0;
        frozen.min = Some(0.0);
        frozen.max = Some(0.0);
        contribs.push(frozen);

        let robust = winsorized_combine(&contribs);
        assert_eq!(robust.count, 10, "clamping must not lose the node");
        let mean = robust.mean().unwrap();
        assert!(
            (mean - 500.0).abs() < 25.0,
            "outlier clamped to the crowd: mean={mean}"
        );

        // The plain merge, for contrast, is dragged far down.
        let naive = contribs.iter().fold(AggValue::EMPTY, |acc, v| acc.merge(v));
        assert!(naive.mean().unwrap() < 460.0);
    }

    #[test]
    fn winsorized_combine_small_sets_merge_plainly() {
        let a = AggValue::of(1.0);
        let b = AggValue::of(100.0);
        let merged = winsorized_combine(&[a, b, AggValue::EMPTY]);
        assert_eq!(merged, a.merge(&b));
        assert_eq!(winsorized_combine(&[]), AggValue::EMPTY);
    }

    #[test]
    fn winsorized_combine_is_lossless_on_agreeing_inputs() {
        let contribs: Vec<AggValue> = vec![AggValue::of(5.0); 6];
        let merged = winsorized_combine(&contribs);
        assert_eq!(merged.count, 6);
        assert!((merged.sum - 30.0).abs() < 1e-9);
    }

    #[test]
    fn bound_step_limits_mean_jumps() {
        let last = AggValue {
            sum: 1000.0,
            count: 10,
            min: Some(50.0),
            max: Some(150.0),
        }; // mean 100
        let spike = AggValue {
            sum: 100_000.0,
            count: 10,
            min: Some(50.0),
            max: Some(99_000.0),
        }; // mean 10_000
        let bounded = p().bound_step(Some(last), spike);
        // Allowed step: 10 + 0.5 × 100 = 60 → mean at most 160.
        let mean = bounded.mean().unwrap();
        assert!((mean - 160.0).abs() < 1e-9, "mean={mean}");
        assert_eq!(bounded.count, 10);
        assert!(bounded.max.unwrap() >= mean);

        // Small honest drift passes through untouched.
        let drift = AggValue {
            sum: 1100.0,
            count: 10,
            min: Some(50.0),
            max: Some(160.0),
        };
        assert_eq!(p().bound_step(Some(last), drift), drift);
        // First publication is unbounded.
        assert_eq!(p().bound_step(None, spike), spike);
    }
}
