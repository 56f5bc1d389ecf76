//! `benchmark compare A.json B.json`: applies the per-metric bounds to two
//! `result.json` files (A the baseline, B the candidate) and prints one
//! `ok / regressed / unresolved` row per (metric, workload).

use crate::catalog::{Better, Bound, END_TO_END};
use crate::harness::spread;
use crate::json::Value;

/// `setup_s` may worsen by its bound or by this many seconds, whichever
/// is larger: two of the workloads set up in ~20 ms, where a share of the
/// median is below the host's timer noise.
const SETUP_FLOOR_S: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// One side of a comparison: the reported value and, for wall metrics,
/// the per-rep samples behind it.
struct Side {
    value: f64,
    samples: Vec<f64>,
}

fn side(metric: &Value) -> Option<Side> {
    Some(Side {
        value: metric.get("value")?.as_f64()?,
        samples: metric
            .get("samples")
            .map(|s| s.as_arr().iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default(),
    })
}

/// Judges one row. `worse` is how much worse the candidate's value is, as
/// a signed amount in the metric's own unit.
fn judge(name: &str, better: Better, bound: Bound, a: &Side, b: &Side) -> Verdict {
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse = sign * (b.value - a.value);
    match bound {
        Bound::Exact => {
            if worse > 0.0 {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
        Bound::Share(share) => {
            // Spread wider than the bound: the medians prove nothing,
            // unless every candidate rep beats every baseline rep.
            if spread(&a.samples) > share || spread(&b.samples) > share {
                let all_better = !a.samples.is_empty()
                    && !b.samples.is_empty()
                    && a.samples
                        .iter()
                        .all(|&x| b.samples.iter().all(|&y| sign * (y - x) < 0.0));
                return if all_better {
                    Verdict::Ok
                } else {
                    Verdict::Unresolved
                };
            }
            let mut allowed = share * a.value.abs();
            if name == "setup_s" {
                allowed = allowed.max(SETUP_FLOOR_S);
            }
            if worse > allowed {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
    }
}

/// Compares two parsed `result.json` documents; prints the table and
/// returns `Err` with the reason when the files cannot be compared, else
/// whether any row regressed.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let mode = |v: &Value| v.get("mode").and_then(Value::as_str).map(str::to_owned);
    let (ma, mb) = (mode(a), mode(b));
    if ma != mb || ma.is_none() {
        return Err(format!(
            "refusing to compare a {ma:?} run with a {mb:?} run: quick numbers are not full numbers"
        ));
    }
    let same_seed = a.get("seed") == b.get("seed");
    if !same_seed {
        println!("note: seeds differ, so the exact rows compare different inputs");
    }
    let workloads = |v: &Value| {
        v.get("workloads")
            .and_then(Value::as_obj)
            .cloned()
            .ok_or("no workloads object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut regressed = false;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "baseline", "candidate", "worse"
    );
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            return Err(format!("workload {name} is missing from the candidate"));
        };
        if same_seed && ra.get("outcome_digest") != rb.get("outcome_digest") {
            println!("{name:<14} outcome_digest differs: the simulated outcome changed");
        }
        for m in &END_TO_END {
            let get = |r: &Value| r.get("end_to_end")?.get(m.name).and_then(side);
            let (Some(sa), Some(sb)) = (get(ra), get(rb)) else {
                continue;
            };
            let verdict = judge(m.name, m.better, m.bound, &sa, &sb);
            regressed |= verdict == Verdict::Regressed;
            let pct = if sa.value != 0.0 {
                format!("{:+.1}%", 100.0 * (sb.value - sa.value) / sa.value)
            } else {
                format!("{:+.3}", sb.value - sa.value)
            };
            println!(
                "{name:<14} {:<22} {:>14.6} {:>14.6} {pct:>9}  {}",
                m.name,
                sa.value,
                sb.value,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall(value: f64, samples: &[f64]) -> Side {
        Side {
            value,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn wall_metrics_use_share_bounds_and_spread() {
        let b = Bound::Share(0.10);
        let tight = wall(1.0, &[0.99, 1.0, 1.01, 1.0, 1.0]);
        let slower = wall(1.2, &[1.19, 1.2, 1.21, 1.2, 1.2]);
        let bit_slower = wall(1.05, &[1.04, 1.05, 1.06, 1.05, 1.05]);
        assert_eq!(
            judge("run_s", Better::Lower, b, &tight, &slower),
            Verdict::Regressed
        );
        assert_eq!(
            judge("run_s", Better::Lower, b, &tight, &bit_slower),
            Verdict::Ok
        );
        assert_eq!(
            judge("run_s", Better::Lower, b, &slower, &tight),
            Verdict::Ok
        );
        // A noisy side makes the row unresolved ...
        let noisy = wall(1.0, &[0.7, 0.9, 1.0, 1.2, 1.4]);
        assert_eq!(
            judge("run_s", Better::Lower, b, &tight, &noisy),
            Verdict::Unresolved
        );
        // ... unless every candidate rep beats every baseline rep.
        let fast_noisy = wall(0.5, &[0.3, 0.4, 0.5, 0.6, 0.7]);
        assert_eq!(
            judge("run_s", Better::Lower, b, &tight, &fast_noisy),
            Verdict::Ok
        );
    }

    #[test]
    fn setup_has_an_absolute_floor_and_exact_rows_do_not() {
        let a = wall(0.020, &[0.020, 0.020, 0.020]);
        let b = wall(0.040, &[0.040, 0.040, 0.040]);
        let share = Bound::Share(0.25);
        assert_eq!(judge("setup_s", Better::Lower, share, &a, &b), Verdict::Ok);
        assert_eq!(
            judge("run_s", Better::Lower, share, &a, &b),
            Verdict::Regressed
        );
        let exact = |x| wall(x, &[]);
        assert_eq!(
            judge(
                "balance_sd",
                Better::Lower,
                Bound::Exact,
                &exact(0.2),
                &exact(0.2)
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                "balance_sd",
                Better::Lower,
                Bound::Exact,
                &exact(0.2),
                &exact(0.2001)
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                "failed_ops_pct",
                Better::Lower,
                Bound::Exact,
                &exact(0.0),
                &exact(0.1)
            ),
            Verdict::Regressed
        );
    }
}
