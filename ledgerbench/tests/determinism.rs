//! Count-valued metrics are functions of the seed alone: two runs with
//! the same `--seed` report them exactly equal, and a different seed
//! changes them on every workload that takes one (`lisp-compiled` reads
//! fixed inputs, so its counts must not move at all).
//!
//! Runs the release benchmark binary; use `cargo test --release`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "lisp-compiled",
    "sim-pressure",
    "serve-resident",
    "serve-evict",
];

/// The count-valued per-layer metrics (`--trace 1`).
fn is_count(name: &str) -> bool {
    name == "lisp.vm.instructions"
        || name.starts_with("core.lp.calls.")
        || name == "core.lp.pseudo_overflows"
        || name.starts_with("heap.calls.")
        || name == "persist.blob_bytes"
}

/// Run once and return the named metrics of the result line.
fn run(workload: &str, seed: u64, trace: bool, keep: &dyn Fn(&str) -> bool) -> Vec<(String, f64)> {
    let spans = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
        "out/test-{}-{workload}-{seed}.jsonl",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_small-ledgerbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .args(["--spans-out".as_ref(), spans.as_os_str()])
        .output()
        .expect("benchmark runs");
    let _ = std::fs::remove_file(&spans);
    let _ = std::fs::remove_file(spans.with_extension("server.json"));
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed: {out:?}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let v = json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert_eq!(v.get("correct"), Some(&json::Value::Bool(true)));
    let Some(json::Value::Object(metrics)) = v.get("metrics") else {
        panic!("no metrics in {stdout}");
    };
    metrics
        .iter()
        .filter(|(name, _)| keep(name))
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(json::Value::as_f64).unwrap(),
            )
        })
        .collect()
}

fn counts(workload: &str, seed: u64) -> Vec<(String, f64)> {
    let mut c = run(workload, seed, true, &is_count);
    c.extend(run(workload, seed, false, &|n| n == "vcycles_per_op"));
    c
}

#[test]
fn counts_repeat_per_seed_and_follow_the_seed() {
    for workload in WORKLOADS {
        let a = counts(workload, 7);
        assert_eq!(
            a,
            counts(workload, 7),
            "{workload}: same seed, different counts"
        );
        let b = counts(workload, 8);
        if workload == "lisp-compiled" {
            assert_eq!(a, b, "{workload} takes no seed");
            continue;
        }
        for name in ["core.lp.calls.car", "vcycles_per_op"] {
            let get = |v: &[(String, f64)]| v.iter().find(|(n, _)| n == name).map(|(_, x)| *x);
            assert_ne!(get(&a), get(&b), "{workload}: {name} ignores the seed");
        }
    }
}
