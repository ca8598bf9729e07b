//! `perf --all --quick` against `BENCHMARK.json`, and the replay's
//! determinism.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use quorumcc_perf::json::Json;
use quorumcc_perf::metrics::{Metric, END_TO_END, PER_LAYER};
use quorumcc_perf::replay::replay;
use quorumcc_perf::run::exact_values;
use quorumcc_perf::workload::{setup, WORKLOADS};
use quorumcc_replication::protocol::Mode;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `BENCHMARK.json` and the tables in `metrics.rs` / `workload.rs` name
/// the same things with the same units, directions and bounds.
#[test]
fn benchmark_json_matches_the_tables() {
    let bench = benchmark_json();
    let listed = |key: &str| bench.get(key).and_then(Json::as_arr).unwrap().to_vec();
    let check = |key: &str, table: &[Metric], bounded: bool| {
        let entries = listed(key);
        assert_eq!(entries.len(), table.len(), "{key} length");
        for (e, m) in entries.iter().zip(table) {
            let field = |f: &str| e.get(f).and_then(Json::as_str).unwrap();
            assert_eq!(field("name"), m.name);
            assert_eq!(field("unit"), m.unit, "{}", m.name);
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field("better"), better, "{}", m.name);
            let bound = e.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, bounded.then_some(m.bound), "{}", m.name);
        }
    };
    check("end_to_end", END_TO_END, true);
    check("per_layer", PER_LAYER, false);
    let workloads = listed("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (e, shape) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(e.get("name").and_then(Json::as_str), Some(shape.name));
        assert_eq!(e.get("why").and_then(Json::as_str), Some(shape.why));
    }
}

/// Every workload and metric `BENCHMARK.json` names is printed by
/// `perf --all --quick` exactly once, finite, with its unit.
#[test]
fn quick_run_prints_every_metric_of_every_workload_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--all", "--quick", "--seed", "9"])
        .output()
        .expect("perf starts");
    assert!(
        out.status.success(),
        "perf --all --quick failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut seen: BTreeMap<(String, String), (f64, String)> = BTreeMap::new();
    for line in String::from_utf8(out.stdout).unwrap().lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let [workload, metric, value, unit] = f.as_slice() else {
            panic!("unexpected line {line:?}");
        };
        let value: f64 = value.parse().unwrap();
        assert!(value.is_finite(), "{line}");
        let key = (workload.to_string(), metric.to_string());
        assert!(
            seen.insert(key, (value, unit.to_string())).is_none(),
            "{workload} {metric} printed twice"
        );
    }
    let bench = benchmark_json();
    let names = |key: &str, field: &str| -> Vec<(String, Option<String>)> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str).unwrap().to_string(),
                    e.get(field).and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect()
    };
    let mut expected = 0;
    for (workload, _) in names("workloads", "why") {
        for (metric, unit) in names("end_to_end", "unit")
            .into_iter()
            .chain(names("per_layer", "unit"))
        {
            let got = seen
                .get(&(workload.clone(), metric.clone()))
                .unwrap_or_else(|| panic!("{workload} {metric} was not printed"));
            assert_eq!(Some(&got.1), unit.as_ref(), "{workload} {metric}");
            expected += 1;
        }
    }
    assert_eq!(
        seen.len(),
        expected,
        "metrics printed that BENCHMARK.json does not name"
    );
    // End-to-end metrics are never zero; fault counters are zero wherever
    // no fault is injected.
    for ((workload, metric), (value, _)) in &seen {
        if END_TO_END.iter().any(|m| m.name == metric) {
            assert!(*value > 0.0, "{workload} {metric} is {value}");
        }
        if metric.starts_with("fault.") && workload != "sock_lossy" {
            assert_eq!(*value, 0.0, "{workload} {metric}");
        }
    }
}

/// Two replays at one seed agree on every metric marked exact; another
/// seed moves the bytes on the wire.
#[test]
fn replay_counts_repeat_exactly() {
    let exact: BTreeSet<&str> = PER_LAYER
        .iter()
        .filter(|m| m.exact)
        .map(|m| m.name)
        .collect();
    let (relation, _) = setup();
    for shape in WORKLOADS {
        let cfg = |seed| shape.quick().config(Mode::Hybrid, &relation, seed);
        let a = exact_values(&replay(&cfg(41), true).unwrap());
        let b = exact_values(&replay(&cfg(41), true).unwrap());
        let c = exact_values(&replay(&cfg(42), true).unwrap());
        assert_eq!(a.keys().copied().collect::<BTreeSet<_>>(), exact);
        assert_eq!(a, b, "{}", shape.name);
        assert_ne!(
            a["wire.bytes_per_txn"], c["wire.bytes_per_txn"],
            "{}",
            shape.name
        );
    }
}
