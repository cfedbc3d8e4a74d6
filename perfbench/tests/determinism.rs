//! Self-test of the benchmark: every run's outputs check out, for one
//! seed the deterministic outputs (drawn inputs, ops, failures, wire
//! volume, EMD ratio, sample count) repeat exactly across runs, and
//! another seed draws other inputs.

use std::process::Command;

/// One run's output: the digest of its drawn inputs and its result line.
struct Run {
    inputs: String,
    result: String,
}

/// Runs one short benchmark invocation.
fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "perfbench {workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = stdout.lines().last().expect("a result line").to_string();
    assert!(
        result.starts_with("{\"correct\": true,"),
        "perfbench {workload} seed {seed}: outputs did not check out: {result}"
    );
    let inputs = stdout
        .lines()
        .find_map(|l| l.strip_prefix("inputs "))
        .expect("an inputs line")
        .to_string();
    Run { inputs, result }
}

/// The number stored under `key`, either directly (`"attempted": 12`) or
/// as a metric (`"wire_bits_per_op": {"value": 13201.5, ...}`).
fn field(line: &str, key: &str) -> f64 {
    let pattern = format!("\"{key}\": ");
    let at = line
        .find(&pattern)
        .unwrap_or_else(|| panic!("{key} missing from {line}"))
        + pattern.len();
    let rest = line[at..].trim_start_matches("{\"value\": ");
    rest.split([',', '}'])
        .next()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} is not a number in {line}"))
}

fn check(workload: &str) {
    let (a, b, other) = (
        run(workload, 11, 0),
        run(workload, 11, 0),
        run(workload, 12, 0),
    );
    assert_eq!(
        a.inputs, b.inputs,
        "{workload}: one seed drew different inputs"
    );
    for key in [
        "attempted",
        "failed",
        "wire_bits_per_op",
        "wire_bytes_per_op",
    ] {
        assert_eq!(
            field(&a.result, key),
            field(&b.result, key),
            "{workload}: {key} differs between two runs of one seed"
        );
    }
    assert_ne!(
        a.inputs, other.inputs,
        "{workload}: another seed must draw other inputs"
    );

    let (a, b) = (run(workload, 11, 1), run(workload, 11, 1));
    assert_eq!(
        a.inputs, b.inputs,
        "{workload}: one seed drew different inputs when traced"
    );
    for key in [
        "failed",
        "fail_ratio",
        "emd_ratio_p50",
        "gap_guarantee_misses",
        "samples",
    ] {
        assert_eq!(
            field(&a.result, key),
            field(&b.result, key),
            "{workload}: {key} differs between two traced runs of one seed"
        );
    }
}

#[test]
fn interactive_repeats_per_seed() {
    check("interactive");
}

#[test]
fn bulk_repeats_per_seed() {
    check("bulk");
}

#[test]
fn continuous_repeats_per_seed() {
    check("continuous");
}
