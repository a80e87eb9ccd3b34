//! Every workload `BENCHMARK.json` declares runs briefly on the default
//! seed and on a held-out seed, untraced and traced: each run is correct
//! with an error rate of 0, and prints every declared metric of its mode
//! with the declared unit.

use std::path::Path;
use std::process::Command;

/// The default seed and one no workload was tuned on.
const SEEDS: [u64; 2] = [1, 7_340_033];

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The body of the JSON array under `key` (no nested arrays inside).
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let open = at + json[at..].find('[').expect("an array follows the key");
    let close = open + json[open..].find(']').expect("the array closes");
    &json[open + 1..close]
}

/// Every string value of `field` in `body`, in order.
fn strings(body: &str, field: &str) -> Vec<String> {
    let pattern = format!("\"{field}\"");
    body.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &body[at + pattern.len()..];
            let open = rest.find('"').expect("a string value") + 1;
            let len = rest[open..].find('"').expect("the string closes");
            rest[open..open + len].to_string()
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} seed {seed}:\n{stdout}");
    stdout
}

#[test]
fn every_workload_is_correct_and_prints_every_metric_on_two_seeds() {
    let manifest = manifest();
    let workloads = strings(array(&manifest, "workloads"), "name");
    assert!(workloads.len() >= 2, "at least two workloads");
    for trace in [false, true] {
        let section = array(&manifest, if trace { "per_layer" } else { "end_to_end" });
        let metrics: Vec<_> = strings(section, "name")
            .into_iter()
            .zip(strings(section, "unit"))
            .collect();
        for workload in &workloads {
            for seed in SEEDS {
                let stdout = run(workload, seed, trace);
                let context = format!("{workload} seed {seed} trace {trace}:\n{stdout}");
                assert!(stdout.contains("\n# error_rate = 0 ("), "{context}");
                let result = stdout.lines().last().expect("a result line");
                assert!(
                    result.starts_with("{\"correct\":true,") && result.contains(",\"failed\":0,"),
                    "{context}"
                );
                for (name, unit) in &metrics {
                    let entry = format!("\"{name}\":{{\"value\":");
                    let at = result
                        .find(&entry)
                        .unwrap_or_else(|| panic!("{name} missing: {context}"));
                    let rest = &result[at + entry.len()..];
                    let (value, tail) = rest.split_once(',').expect("value then unit");
                    assert!(
                        value.parse::<f64>().is_ok_and(f64::is_finite),
                        "{name}: {context}"
                    );
                    assert!(
                        tail.starts_with(&format!("\"unit\":\"{unit}\"}}")),
                        "{name} unit: {context}"
                    );
                }
                assert_eq!(
                    result.matches("\"value\":").count(),
                    metrics.len(),
                    "exactly the declared metrics: {context}"
                );
            }
        }
    }
}

#[test]
fn a_bad_invocation_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("the benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
