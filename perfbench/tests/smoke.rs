//! Every workload at smoke size passes its gates and reports exactly the
//! metrics `BENCHMARK.json` declares, with the declared units.

use std::process::Command;

use dpm_harness::Json;

const WORKLOADS: [&str; 4] = ["frontier", "fleet", "fleet_durable", "cluster"];

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    let mut out: Vec<(String, String)> = metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

fn reported(result: &Json) -> Vec<(String, String)> {
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {}", result.render_compact());
    };
    let mut out: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name} has no finite value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect();
    out.sort();
    out
}

fn check(trace: bool, section: &str) {
    let declared = declared(section);
    for workload in WORKLOADS {
        let result = run(workload, trace);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(
            matches!(result.get("attempted"), Some(Json::Int(n)) if *n >= 1),
            "{workload}: nothing attempted"
        );
        assert_eq!(
            reported(&result),
            declared,
            "{workload} (trace {trace}) reports other metrics than BENCHMARK.json declares"
        );
    }
}

#[test]
fn untraced_runs_report_the_end_to_end_metrics() {
    check(false, "end_to_end");
}

#[test]
fn traced_runs_report_the_per_layer_metrics() {
    check(true, "per_layer");
}
