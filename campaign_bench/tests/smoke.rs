//! Schema test: `--smoke` runs of every workload print exactly the
//! metrics `BENCHMARK.json` declares, with their units, and every
//! verdict agrees with the reference table. Also checks `--compare`.

use equitls_campaign_bench::Workload;
use equitls_obs::json::{self, JsonValue};
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_equitls-campaign-bench");

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.get(key) {
        Some(JsonValue::Array(items)) => items,
        _ => panic!("BENCHMARK.json has no `{key}` list"),
    }
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    array(doc, key)
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one smoke run and return its last stdout line, parsed.
fn smoke(workload: Workload, trace: bool) -> JsonValue {
    let out = Command::new(BIN)
        .args(["--workload", workload.name(), "--smoke", "--seed", "5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload:?} trace {trace}:\n{stdout}"
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

#[test]
fn benchmark_json_names_the_workloads_the_binary_runs() {
    let doc = benchmark();
    let names: Vec<&str> = array(&doc, "workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for m in array(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
    }
}

#[test]
fn smoke_runs_print_exactly_the_declared_metrics() {
    let doc = benchmark();
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = smoke(workload, trace);
            let JsonValue::Object(fields) = &result else {
                panic!("result is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
            let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
                panic!("no metrics object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(JsonValue::as_f64).unwrap();
                    assert!(value.is_finite(), "{workload:?} {name}");
                    // CPU time counts in 10 ms ticks, and a smoke
                    // iteration may fit inside one.
                    if !trace && name != "cpu_s" {
                        assert!(value > 0.0, "{workload:?} {name} reads 0");
                    }
                    let unit = m.get("unit").and_then(JsonValue::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, declared(&doc, list), "{workload:?} trace {trace}");
        }
    }
}

fn record(setup_s: f64, wall_s: f64, failed: u64) -> String {
    format!(
        r#"{{"workload":"check","trace":0,"result":{{"correct":{},"attempted":3,"failed":{failed},"metrics":{{"setup_s":{{"value":{setup_s},"unit":"s"}},"wall_s":{{"value":{wall_s},"unit":"s"}}}}}}}}"#,
        failed == 0
    )
}

#[test]
fn compare_fails_on_a_regression_beyond_the_bound_or_a_failed_run() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, lines: &[String]| {
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n")).unwrap();
        path
    };
    let base = write("base.jsonl", &[record(0.01, 1.0, 0), record(0.01, 1.02, 0)]);
    let close = write("close.jsonl", &[record(0.01, 1.03, 0)]);
    let slow = write("slow.jsonl", &[record(0.01, 1.6, 0)]);
    // +40 % of a 10 ms set-up is 4 ms, inside the 5 ms floor; +100 % is not.
    let jitter = write("jitter.jsonl", &[record(0.014, 1.0, 0)]);
    let slow_setup = write("slow_setup.jsonl", &[record(0.02, 1.0, 0)]);
    let failed = write("failed.jsonl", &[record(0.01, 1.0, 1)]);
    let compare = |b: &Path| {
        Command::new(BIN)
            .arg("--compare")
            .args([base.as_path(), b])
            .status()
            .expect("the benchmark runs")
            .code()
    };
    assert_eq!(compare(&close), Some(0));
    assert_eq!(compare(&slow), Some(1));
    assert_eq!(compare(&jitter), Some(0));
    assert_eq!(compare(&slow_setup), Some(1));
    assert_eq!(compare(&failed), Some(1));
}
