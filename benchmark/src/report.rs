//! Rendering of outcomes: the printed table, `out/result.json`, the span
//! traces, and the one-line result of a single-workload run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::catalog::{unit_of, BOUNDED, END_TO_END, PER_LAYER};
use crate::harness::Outcome;
use crate::json::{num, obj, string, Value};
use crate::span::{root_self_sums, Tracer};
use crate::stats::quartiles;
use crate::workloads::Params;

fn samples_of<'a>(o: &'a Outcome, name: &str) -> Option<&'a [f64]> {
    match name {
        "setup_s" => Some(&o.setup_s),
        "run_s" => Some(&o.run_s),
        _ => None,
    }
}

/// Prints every metric by name with its unit.
pub fn print(outcomes: &[Outcome]) {
    for o in outcomes {
        println!(
            "## {}  (outcome {:016x}, {} timed reps, {} of {} operations failed)",
            o.name,
            o.digest,
            o.run_s.len(),
            o.failed,
            o.attempted
        );
        for (name, value) in o.e2e.iter().chain(&o.layers) {
            let unit = unit_of(name).unwrap_or("?");
            let mut line = format!("{:<14} {name:<42} {value:>16.6} {unit}", o.name);
            if let Some(xs) = samples_of(o, name) {
                let (q1, q3) = quartiles(xs);
                let _ = write!(line, "  [q1 {q1:.4} q3 {q3:.4} n {}]", xs.len());
            }
            println!("{line}");
        }
        for b in &o.broken {
            println!("{:<14} SELF-CHECK FAILED: {b}", o.name);
        }
    }
}

fn metric(name: &str, value: f64, samples: Option<&[f64]>) -> Value {
    let mut m = BTreeMap::new();
    m.insert("value".to_string(), num(value));
    m.insert("unit".to_string(), string(unit_of(name).unwrap_or("?")));
    if let Some(xs) = samples {
        let (q1, q3) = quartiles(xs);
        m.insert("q1".to_string(), num(q1));
        m.insert("q3".to_string(), num(q3));
        m.insert(
            "samples".to_string(),
            Value::Arr(xs.iter().map(|&x| num(x)).collect()),
        );
    }
    Value::Obj(m)
}

/// The `result.json` document of a `run`.
pub fn result_json(outcomes: &[Outcome], p: &Params) -> Value {
    let workloads = outcomes.iter().map(|o| {
        let e2e = o
            .e2e
            .iter()
            .map(|(&k, &v)| (k, metric(k, v, samples_of(o, k))));
        let layers = o.layers.iter().map(|(&k, &v)| (k, metric(k, v, None)));
        (
            o.name,
            obj([
                ("outcome_digest", string(format!("{:016x}", o.digest))),
                ("attempted", num(o.attempted as f64)),
                ("failed", num(o.failed as f64)),
                ("reps", num(o.run_s.len() as f64)),
                (
                    "self_checks_failed",
                    Value::Arr(o.broken.iter().map(string).collect()),
                ),
                ("end_to_end", obj(e2e)),
                ("per_layer", obj(layers)),
            ]),
        )
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("benchmark", string("v-bundle full stack")),
        // `compare` refuses to set a quick run against a full one.
        ("mode", string(if p.quick { "quick" } else { "full" })),
        ("seed", num(p.seed as f64)),
        ("host", obj([("nproc", num(nproc as f64))])),
        ("workloads", obj(workloads)),
    ])
}

/// One span trace: the in-memory span list as recorded.
pub fn trace_json(tr: &Tracer) -> Value {
    Value::Arr(
        tr.spans()
            .iter()
            .map(|s| {
                obj([
                    ("id", num(s.id as f64)),
                    ("parent", s.parent.map_or(Value::Null, |p| num(p as f64))),
                    ("name", string(s.name)),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                    ("events", num(s.events as f64)),
                    ("msgs", num(s.msgs as f64)),
                ])
            })
            .collect(),
    )
}

/// Writes `result.json` and one `trace-<workload>.json` per traced
/// workload into `dir`; returns an error string for the caller to print.
pub fn write_files(dir: &Path, outcomes: &[Outcome], p: &Params) -> Result<(), String> {
    let put = |name: String, v: Value| {
        let path = dir.join(name);
        std::fs::write(&path, v.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    put("result.json".into(), result_json(outcomes, p))?;
    for o in outcomes {
        if let Some(tr) = &o.trace {
            put(format!("trace-{}.json", o.name), trace_json(tr))?;
        }
    }
    Ok(())
}

/// Checks that in every trace the self times below each root add up to
/// the root's own duration within 1 %.
pub fn check_traces(outcomes: &mut [Outcome]) {
    for o in outcomes {
        let Some(tr) = &o.trace else { continue };
        for (root, sum) in root_self_sums(tr.spans()) {
            let span = &tr.spans()[root];
            let total = span.duration_ns();
            if sum.abs_diff(total) as f64 > 0.01 * total as f64 {
                o.broken.push(format!(
                    "{}: self times under span {} sum to {sum} ns, the span took {total} ns",
                    o.name, span.name
                ));
            }
        }
    }
}

/// The single JSON line a `--workload` run ends with. `--trace 0` carries
/// the bounded end-to-end metrics; `--trace 1` every other catalogued
/// metric, with 0 where the workload does not define it.
pub fn result_line(o: &Outcome, traced: bool) -> String {
    let value_of = |name: &str| {
        o.e2e
            .get(name)
            .or_else(|| o.layers.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    let names: Vec<&str> = if traced {
        END_TO_END[BOUNDED..]
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect()
    } else {
        END_TO_END[..BOUNDED].iter().map(|m| m.name).collect()
    };
    let metrics = names.into_iter().map(|name| {
        (
            name,
            obj([
                ("value", num(value_of(name))),
                ("unit", string(unit_of(name).unwrap_or("?"))),
            ]),
        )
    });
    obj([
        ("correct", Value::Bool(o.broken.is_empty())),
        ("attempted", num(o.attempted as f64)),
        ("failed", num(o.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .render()
}
