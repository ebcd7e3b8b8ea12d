//! The parlog benchmark: one command, one workload per process.
//!
//! ```text
//! parlog-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `serve_write`, `mpc_uniform`, `mpc_skew`.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Per-operation attempt and failure counts go to standard error. A
//! wrong answer ends the process with exit code 1 and no JSON line.

mod mpc;
mod oracle;
mod rng;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("request_p50_us", "us"),
    ("request_p90_us", "us"),
    ("requests_per_s", "1/s"),
    ("round_ms", "ms"),
];

/// The per-layer metrics of a traced run, with their units. A layer a
/// workload does not enter reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.admission.admit_ns", "ns"),
    ("serve.admission.refused", "count"),
    ("serve.plan.prepare_us", "us"),
    ("serve.plan.hit_rate", "ratio"),
    ("serve.plan.analysis_misses", "count"),
    ("serve.server.view_hits", "count"),
    ("serve.compact.cycle_us", "us"),
    ("serve.compact.installed", "count"),
    ("serve.compact.discarded", "count"),
    ("serve.execute.unattributed_us", "us"),
    ("serve.publish_ms", "ms"),
    ("serve.write_mps", "1/s"),
    ("relal.instance.bulk_load_s", "s"),
    ("relal.instance.mutate_us", "us"),
    ("relal.instance.delta_log_len", "count"),
    ("relal.instance.lookup_us", "us"),
    ("relal.instance.materialize_us", "us"),
    ("relal.snapshot.publish_ms", "ms"),
    ("relal.snapshot.pin_ns", "ns"),
    ("relal.trie.fetch_us", "us"),
    ("relal.trie.builds", "count"),
    ("relal.trie.join_us", "us"),
    ("relal.trie.join_ops", "count"),
    ("datalog.maintain.refresh_ms", "ms"),
    ("datalog.maintain.materialize_s", "s"),
    ("datalog.eval.scratch_us", "us"),
    ("mpc.shares.plan_ms", "ms"),
    ("mpc.skew_rounds.plan_ms", "ms"),
    ("mpc.cluster.seed_ms", "ms"),
    ("mpc.cluster.route_ms", "ms"),
    ("mpc.cluster.compute_ms", "ms"),
    ("mpc.cluster.merge_ms", "ms"),
    ("mpc.run.unattributed_ms", "ms"),
    ("mpc.cluster.rounds", "count"),
    ("mpc.cluster.balance", "ratio"),
    ("mpc.load_ratio", "ratio"),
    ("mpc.cluster.replication", "ratio"),
    ("mpc.max_load", "facts"),
    ("mpc.total_comm", "facts"),
    ("trace.overhead_pct", "%"),
];

/// The metric values one run measured.
#[derive(Debug, Default)]
pub struct Metrics {
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Set an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, value);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }
}

/// Attempts and failures of one run, in all and per operation type.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured part of the run.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    ops: Vec<(&'static str, u64, u64)>,
}

impl Outcome {
    /// Record attempts and failures of one operation type.
    pub fn op(&mut self, name: &'static str, attempted: u64, failed: u64) {
        self.ops.push((name, attempted, failed));
    }
}

/// Write a traced run's spans next to the benchmark's sources.
pub fn write_spans(tr: &trace::Tracer, workload: &str, seed: u64) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.tsv"));
    match tr.write_tsv(&path) {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

/// The process's peak resident set (`VmHWM`), in MB. Workloads read it
/// after set-up and warm-up, before the timed loop: later in a run the
/// MPC workloads' high-water mark drifts with the glibc malloc arenas
/// their short-lived worker threads land in, by up to a third between
/// runs of the same work.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(args: &Args) -> Result<(Outcome, Metrics), String> {
    let mut metrics = Metrics::default();
    let (s, t) = (args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "serve_write" => serve::serve_write(args.seed, s, t, &mut metrics)?,
        "mpc_uniform" => mpc::mpc(mpc::Kind::Uniform, args.seed, s, t, &mut metrics)?,
        "mpc_skew" => mpc::mpc(mpc::Kind::Skew, args.seed, s, t, &mut metrics)?,
        w => return Err(format!("unknown workload {w:?}")),
    };
    Ok((outcome, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: parlog-benchmark --workload <serve_write|mpc_uniform|mpc_skew> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (outcome, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, attempted, failed) in &outcome.ops {
        eprintln!("op {name}: attempted {attempted}, failed {failed}");
    }
    let (list, values) = if args.trace {
        (PER_LAYER, &metrics.layers)
    } else {
        (END_TO_END, &metrics.e2e)
    };
    let mut fields = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let value = match values.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("error: metric {name} was not measured");
                return ExitCode::from(1);
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
