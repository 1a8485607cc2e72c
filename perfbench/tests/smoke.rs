//! Tiny-parameter smoke runs of every workload, traced and untraced:
//! each still checks every decrypted output, and reports exactly the
//! metrics `BENCHMARK.json` lists, with the units it lists.

use strix_perfbench::workloads::Workload;
use strix_perfbench::{run, Options};

/// `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body[..end]
        .lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

#[test]
fn every_workload_runs_checked_and_reports_the_listed_metrics() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert_eq!(end_to_end.len(), 8);
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert_eq!(per_layer.len(), 33);
    for workload in Workload::ALL {
        for trace in [false, true] {
            let options = Options { workload, seed: 5, seconds: 0.6, trace, fast: true };
            let out = run(&options).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
            assert!(out.correct, "{workload:?} trace={trace}: {out:?}");
            assert_eq!(out.wrong, 0);
            assert!(out.counts.attempted > 0);
            assert_eq!(out.counts.failed, 0);
            let got: Vec<(String, String)> =
                out.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
            assert_eq!(got, if trace { per_layer.clone() } else { end_to_end.clone() });
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if trace {
                let rec = out.reconciliation.as_ref().expect("traced runs reconcile");
                assert!(rec.holds() && rec.requests_checked > 0, "{rec:?}");
            } else {
                assert!(out.metrics.iter().all(|m| m.value > 0.0), "{:?}", out.metrics);
            }
        }
    }
}
