//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload interactive|bulk|continuous --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run starts the reconciliation server as a child process
//! (`perfbench serve`: reactor + two executor shards), connects a
//! one-worker generator to it over loopback TCP, drives the workload,
//! checks every output, and prints one JSON object as the last line of
//! stdout. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the workload once untraced and once traced (timing wrappers on both
//! endpoints, the `rsr-obs` registry on in both processes, direct calls
//! into the compute layers) and reports the per-layer metrics plus the
//! tracing overhead. See `perfbench/README.md` for why each workload and
//! metric exists.

mod client;
mod layers;
mod server;
mod stats;
mod workloads;

use stats::{median, quantile, ratio};
use std::process::ExitCode;
use workloads::{Pass, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// The end-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "cpu_us_per_op",
    "wire_bits_per_op",
    "wire_bytes_per_op",
    "peak_rss_mb",
];

/// Per-layer metrics measured by the traced pass, in print order. A
/// layer a workload never reaches reads 0 (see the README's map).
const LAYERS: &[(&str, &str)] = &[
    ("core.alice_build_us", "us"),
    ("core.alice_build_us_p99", "us"),
    ("core.alice_cpu_us", "us"),
    ("core.bob_cpu_us", "us"),
    ("net.open_spec_us", "us"),
    ("net.open_spec_us_p99", "us"),
    ("core.exec_wait_client_us", "us"),
    ("core.exec_wait_server_us", "us"),
    ("net.residual_us", "us"),
    ("loadgen.inject_lag_p99_ms", "ms"),
    ("loadgen.inject_lag_max_ms", "ms"),
    ("core.emd.alice_encode_us", "us"),
    ("core.emd.bob_decode_us", "us"),
    ("core.scaled_emd.alice_encode_us", "us"),
    ("core.scaled_emd.bob_decode_us", "us"),
    ("hash.gap_key_us", "us"),
    ("setsofsets.round_cpu_us", "us"),
    ("iblt.codec_write_mb_per_s", "MB/s"),
    ("iblt.codec_read_mb_per_s", "MB/s"),
    ("core.continuous.churn_apply_us", "us"),
    ("core.continuous.delta_us", "us"),
    ("iblt.delta_decode_us", "us"),
    ("iblt.delta_decode_fail_ratio", "ratio"),
    ("net.driver.empty_batch_us", "us"),
];

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    Ok(Opts {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .ok()
            .filter(|s| *s >= 1)
            .ok_or("--seconds must be a whole number ≥ 1")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn run_pass(opts: &Opts, trace: bool, reps: usize) -> Result<Pass, String> {
    match opts.workload {
        Workload::Interactive => workloads::interactive(opts.seed, opts.seconds, trace, reps),
        Workload::Bulk => workloads::bulk(opts.seed, opts.seconds, trace, reps),
        Workload::Continuous => workloads::continuous(opts.seed, opts.seconds, trace, reps),
    }
}

type Metric = (&'static str, f64, &'static str);

/// Every run-level metric of a pass: the end-to-end set plus the
/// run-level numbers reported per layer.
fn run_metrics(p: &Pass) -> Vec<Metric> {
    let setup: Vec<f64> = p.setup.iter().map(|d| d.as_secs_f64()).collect();
    let attempted = p.attempted as f64;
    vec![
        ("setup_s", median(&setup), "s"),
        (
            "throughput_per_s",
            ratio(p.settled_ok as f64, p.window.as_secs_f64()),
            "ops/s",
        ),
        ("latency_p50_ms", quantile(&p.latencies_ms, 0.5), "ms"),
        ("latency_p99_ms", quantile(&p.latencies_ms, 0.99), "ms"),
        ("slo_ratio", p.slo_ratio(), "ratio"),
        (
            "cpu_us_per_op",
            ratio(
                stats::us(p.client_cpu) + p.server.value("cpu_us"),
                attempted,
            ),
            "us",
        ),
        (
            "wire_bits_per_op",
            ratio(p.payload_bits as f64, attempted),
            "bits",
        ),
        (
            "wire_bytes_per_op",
            ratio(p.wire_bytes as f64, attempted),
            "bytes",
        ),
        ("peak_rss_mb", p.server.value("peak_rss_mb"), "MB"),
        ("fail_ratio", ratio(p.failed as f64, attempted), "ratio"),
        ("emd_ratio_p50", median(&p.emd_ratios), "ratio"),
        ("samples", p.latencies_ms.len() as f64, "count"),
        ("gap_guarantee_misses", p.guarantee_misses as f64, "count"),
        (
            "net.record_overhead_ratio",
            ratio(p.wire_bytes as f64 * 8.0, p.payload_bits as f64) - 1.0,
            "ratio",
        ),
    ]
}

/// The registry-derived rows: generator registry (this process) and the
/// server's, both from the traced pass.
fn obs_metrics(traced: &Pass) -> Vec<Metric> {
    let client = rsr_obs::global().snapshot();
    let server = &traced.server;
    let attempted = traced.attempted as f64;
    let mailbox_hwm = client
        .entries()
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .chain(
            server
                .values
                .iter()
                .filter_map(|(k, v)| k.strip_prefix("obs.").map(|k| (k, *v))),
        )
        .filter(|(k, _)| k.starts_with("exec_shard") && k.ends_with("_mailbox_hwm"))
        .map(|(_, v)| v)
        .fold(0.0, f64::max);
    let both = |key: &str| client.value(key).unwrap_or(0.0) + server.value(&format!("obs.{key}"));
    vec![
        (
            "obs.net_client_polls_per_op",
            ratio(client.value("net_client_polls").unwrap_or(0.0), attempted),
            "count",
        ),
        (
            "obs.net_reactor_polls_per_op",
            ratio(server.value("obs.net_reactor_polls"), attempted),
            "count",
        ),
        ("obs.exec_mailbox_depth_hwm", mailbox_hwm, "count"),
        (
            "obs.iblt_decode_solved_total",
            both("iblt_decode_solved_total"),
            "count",
        ),
        (
            "obs.iblt_decode_failed_total",
            both("iblt_decode_failed_total"),
            "count",
        ),
    ]
}

fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or(0.0, |(_, v, _)| *v)
}

/// Runs the benchmark and returns the result line. A line
/// `inputs <digest>` naming the drawn inputs is printed before it.
fn run(opts: &Opts) -> Result<String, String> {
    let plain = run_pass(opts, false, SETUP_REPS)?;
    println!("inputs {:016x}", plain.inputs_digest);
    let plain_metrics = run_metrics(&plain);
    let mut violations = plain.violations;
    let metrics: Vec<Metric> = if opts.trace {
        rsr_obs::set_enabled(true);
        let traced = run_pass(opts, true, 1)?;
        violations += traced.violations;
        let traced_metrics = run_metrics(&traced);
        let pct = |name: &str, worse_when_higher: bool| {
            let (before, after) = (
                value_of(&plain_metrics, name),
                value_of(&traced_metrics, name),
            );
            let change = ratio(after - before, before) * 100.0;
            if worse_when_higher {
                change
            } else {
                -change
            }
        };
        let mut out: Vec<Metric> = plain_metrics
            .iter()
            .filter(|(n, _, _)| !END_TO_END.contains(n))
            .copied()
            .collect();
        out.extend(LAYERS.iter().map(|(name, unit)| {
            let value = traced
                .layers
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, value, *unit)
        }));
        out.extend(obs_metrics(&traced));
        out.push((
            "trace.overhead_throughput_pct",
            pct("throughput_per_s", false),
            "%",
        ));
        out.push((
            "trace.overhead_latency_p50_pct",
            pct("latency_p50_ms", true),
            "%",
        ));
        out.push(("trace.overhead_cpu_pct", pct("cpu_us_per_op", true), "%"));
        out
    } else {
        plain_metrics
            .into_iter()
            .filter(|(n, _, _)| END_TO_END.contains(n))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        violations == 0,
        plain.attempted,
        plain.failed,
        body.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("serve") {
        server::main(&args[1..])
    } else {
        parse(&args)
            .and_then(|opts| run(&opts))
            .map(|line| println!("{line}"))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
