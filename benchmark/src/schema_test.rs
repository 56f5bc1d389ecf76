//! `BENCHMARK.json`, the catalogue and what a run actually emits must name
//! the same workloads and metrics, in both directions.

use std::collections::BTreeSet;

use crate::catalog::{Bound, BOUNDED, END_TO_END, PER_LAYER};
use crate::harness::{self, Plan, Policy};
use crate::json::{self, Value};
use crate::report;
use crate::workloads::{Params, NAMES};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<&str> {
    list.as_arr()
        .iter()
        .map(|e| e.get("name").and_then(Value::as_str).expect("name"))
        .collect()
}

#[test]
fn manifest_declares_exactly_the_catalogue() {
    let doc = manifest();
    assert_eq!(names(doc.get("workloads").unwrap()), NAMES);

    let e2e = doc.get("end_to_end").unwrap().as_arr();
    assert_eq!(e2e.len(), BOUNDED);
    for (declared, m) in e2e.iter().zip(&END_TO_END) {
        let field = |k| declared.get(k).and_then(Value::as_str).unwrap();
        assert_eq!((field("name"), field("unit")), (m.name, m.unit));
        assert_eq!(field("better"), m.better.as_str());
        let bound = declared.get("bound").and_then(Value::as_f64).unwrap();
        assert_eq!(Bound::Share(bound), m.bound, "{}", m.name);
    }

    let layers = doc.get("per_layer").unwrap().as_arr();
    let catalogued: Vec<(&str, &str, &str)> = END_TO_END[BOUNDED..]
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str()))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1, m.2.as_str())))
        .collect();
    let declared: Vec<(&str, &str, &str)> = layers
        .iter()
        .map(|e| {
            let field = |k| e.get(k).and_then(Value::as_str).unwrap();
            (field("name"), field("unit"), field("better"))
        })
        .collect();
    assert_eq!(declared, catalogued);
}

#[test]
fn quick_run_emits_every_declared_metric_and_nothing_else() {
    let p = Params {
        seed: 20120618,
        quick: true,
    };
    let plan = Plan {
        policy: Policy::Reps { min: 1, max: 1 },
        layers: true,
    };
    let mut outcomes = harness::measure(&NAMES, &p, plan);
    report::check_traces(&mut outcomes);
    let doc = manifest();
    let declared: BTreeSet<&str> = names(doc.get("end_to_end").unwrap())
        .into_iter()
        .chain(names(doc.get("per_layer").unwrap()))
        .collect();

    let mut emitted = BTreeSet::new();
    for o in &outcomes {
        assert!(o.broken.is_empty(), "{}: {:?}", o.name, o.broken);
        for m in &END_TO_END[..BOUNDED] {
            assert!(o.e2e[m.name] > 0.0, "{} {} must never be 0", o.name, m.name);
        }
        emitted.extend(o.e2e.keys().chain(o.layers.keys()).copied());

        // The single-workload result line carries every declared name,
        // split by --trace as the contract asks.
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = json::parse(&report::result_line(o, traced)).unwrap();
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
            let keys: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
            let wanted: BTreeSet<&str> = names(doc.get(list).unwrap()).into_iter().collect();
            assert_eq!(keys, wanted, "{} --trace {}", o.name, traced as u8);
        }
    }
    let undeclared: Vec<_> = emitted.difference(&declared).collect();
    let never_emitted: Vec<_> = declared.difference(&emitted).collect();
    assert!(
        undeclared.is_empty(),
        "emitted but not declared: {undeclared:?}"
    );
    assert!(
        never_emitted.is_empty(),
        "declared but no workload emits: {never_emitted:?}"
    );

    // `compare` refuses to set these quick numbers against a full run.
    let quick = report::result_json(&outcomes, &p);
    let mut full = quick.clone();
    if let Value::Obj(m) = &mut full {
        m.insert("mode".into(), json::string("full"));
    }
    assert!(crate::compare::compare(&quick, &full).is_err());
    assert_eq!(crate::compare::compare(&quick, &quick), Ok(false));
}
