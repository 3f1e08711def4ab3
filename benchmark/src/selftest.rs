//! Self-tests that need whole workloads: names against
//! `BENCHMARK.json`, and the smoke runs.

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, EXTRA, PER_LAYER, WORKLOADS};
use crate::report::{self, DEFAULT_SECONDS};
use crate::{RunCfg, Scale};

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn benchmark_json() -> Json {
    let path = crate::bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside benchmark/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    doc.get(key)
        .expect(key)
        .as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_owned(),
                m.get("better")
                    .and_then(Json::as_str)
                    .expect("better")
                    .to_owned(),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

fn defined(defs: &[Metric], with_bound: bool) -> Vec<(String, String, String, Option<f64>)> {
    defs.iter()
        .map(|m| {
            (
                m.name.to_owned(),
                m.unit.to_owned(),
                m.better.label().to_owned(),
                with_bound.then_some(m.bound),
            )
        })
        .collect()
}

#[test]
fn names_are_well_formed_and_equal_benchmark_json() {
    let mut seen = std::collections::BTreeSet::new();
    for m in END_TO_END.iter().chain(EXTRA).chain(PER_LAYER) {
        assert!(well_formed(m.name), "bad metric name {:?}", m.name);
        assert!(seen.insert(m.name), "metric name used twice: {}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "bad unit {:?} on {}",
            m.unit,
            m.name
        );
    }
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), defined(END_TO_END, true));
    assert_eq!(listed(&doc, "per_layer"), defined(PER_LAYER, false));
    let names: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    // The contract's shape: setup_s leads and has the largest bound.
    assert_eq!(END_TO_END[0].name, "setup_s");
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound <= END_TO_END[0].bound && m.bound <= 0.25));
    assert!(PER_LAYER.len() <= 128);
}

fn smoke() -> RunCfg {
    RunCfg {
        seed: 7,
        seconds: 2.0,
        scale: Scale::Smoke,
        setups: 2,
    }
}

#[test]
fn smoke_completes_all_four_workloads() {
    for w in WORKLOADS {
        let f = report::untraced(w, &smoke());
        assert!(f.correct, "{w}: wrong answers");
        assert_eq!(f.failed, 0, "{w}: failed operations");
        assert!(f.attempted > 0, "{w}: nothing attempted");
        let want: Vec<&str> = END_TO_END
            .iter()
            .chain(EXTRA.iter().filter(|m| m.reported_by(w)))
            .map(|m| m.name)
            .collect();
        let got: Vec<&str> = f.listed.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(got, want, "{w}: emitted names");
        for (name, value) in &f.listed {
            // Tails may lack samples at smoke scale; nothing else may.
            let tail = name.contains("_p9");
            assert!(value.is_finite() || tail, "{w}: {name} is not a number");
            assert!(*value >= 0.0 || !value.is_finite(), "{w}: {name} negative");
        }
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    let f = report::traced("engine_batch", &smoke());
    assert!(f.correct, "wrong answers in a traced run");
    let got: Vec<&str> = f.listed.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(got, want);
    for (name, value) in &f.listed {
        // As above: a tail may lack samples at smoke scale.
        assert!(
            value.is_finite() || name.contains("_p9"),
            "{name} is not a number"
        );
    }
    assert!(f.files.iter().any(|(n, _)| n == "trace-engine_batch.json"));
}

#[test]
fn a_second_seed_changes_the_exact_counts() {
    let count = |seed| {
        let f = report::untraced(
            "paper_replay",
            &RunCfg {
                seed,
                setups: 1,
                ..smoke()
            },
        );
        f.listed
            .iter()
            .find(|(n, _)| n == "pages_scanned_per_query")
            .expect("exact count reported")
            .1
    };
    let a = count(11);
    assert_eq!(a.to_bits(), count(11).to_bits(), "same seed, same count");
    assert_ne!(a.to_bits(), count(12).to_bits(), "the seed is live");
}
