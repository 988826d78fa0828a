//! CI check over the *committed* benchmark artifacts: every
//! `crates/bench/results/BENCH_*.json` must read back through the lib's
//! parser as a complete schema-2 document. The benches publish with a
//! write-then-rename so a killed run can't leave a truncated file; this is
//! the other half of that contract — a hand edit or a bad merge that
//! corrupts an artifact fails here, not in whoever reads the record next.

use cca_bench::{committed_dir, Json};

#[test]
fn committed_artifacts_are_complete_schema_2_documents() {
    let mut checked = 0;
    for entry in std::fs::read_dir(committed_dir()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let text_of = |v: Option<&Json>| v.and_then(Json::as_str).map(String::from);
        assert_eq!(
            text_of(doc.get("schema")).as_deref(),
            Some("cca-bench/2"),
            "{name}"
        );
        let experiment = text_of(doc.get("experiment")).unwrap_or_default();
        assert_eq!(name, format!("BENCH_{experiment}.json"));
        let host = doc.get("host").unwrap_or(&Json::Null);
        for key in ["cpu_model", "logical_cpus", "kernel", "rustc", "fast"] {
            assert!(host.get(key).is_some(), "{name}: host block lacks '{key}'");
        }
        let metrics = doc.get("metrics").unwrap_or(&Json::Null);
        assert!(!metrics.entries().is_empty(), "{name}: no metrics");
        for (key, stats) in metrics.entries() {
            for field in ["median", "p10", "p90"] {
                let value = stats.get(field).and_then(Json::as_f64);
                assert!(value.is_some(), "{name}: {key} lacks numeric '{field}'");
            }
            let n = stats.get("n").and_then(Json::as_f64).unwrap_or(0.0);
            assert!(n >= 1.0, "{name}: {key} has n = {n}");
        }
        for gate in doc.get("gates").unwrap_or(&Json::Null).items() {
            let metric = text_of(gate.get("metric")).unwrap_or_default();
            assert!(
                metrics.get(&metric).is_some(),
                "{name}: a gate bounds '{metric}', which is not a metric"
            );
        }
        checked += 1;
    }
    assert!(
        checked > 0,
        "no BENCH_*.json under {}",
        committed_dir().display()
    );
}
