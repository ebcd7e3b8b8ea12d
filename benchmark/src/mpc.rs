//! The two MPC workloads, `mpc_uniform` and `mpc_skew`: the triangle
//! `H(x,y,z) <- R(x,y), S(y,z), T(z,x)` on p = 27 servers, planned and
//! run many times per run on one seeded input.
//!
//! `mpc_uniform` runs one-round HyperCube (`HypercubeAlgorithm::new`,
//! shares 3×3×3); `mpc_skew` runs the skew-adaptive engine
//! (`SkewAdaptiveJoin::from_stats`, then `run_on`) on an input where half
//! of `R` and `S` sit on a few heavy `y` values.
//!
//! Traced runs time the stages of each run. For HyperCube the benchmark
//! performs them itself — `seed_cluster`, `communicate`, `compute_query`,
//! `union_all` — and also times the public `run_with_parallelism`; for
//! the skew engine the stages are the `Communication` and `Computation`
//! wall spans of a `MemSink` attached with `Cluster::with_trace`, and
//! the merge is one more `union_all` on the finished cluster. What the
//! stages leave of the whole run is reported as unattributed.

use crate::oracle::{self, Pairs};
use crate::rng::Rng;
use crate::trace::{median, percentile, quiet, Tracer};
use crate::{Metrics, Outcome};
use parlog_mpc::partition::{seed_cluster, InitialPartition};
use parlog_mpc::{Cluster, HypercubeAlgorithm, RunReport, SkewAdaptiveJoin, SkewConfig};
use parlog_relal::packing::fractional_edge_packing;
use parlog_relal::parser::parse_query;
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::symbols::rel;
use parlog_relal::{Fact, Instance, Val};
use parlog_trace::{LoadBound, MemSink, Phase, TraceHandle};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Servers: 3 × 3 × 3 HyperCube shares for the triangle.
const P: usize = 27;
/// Value domain of every column.
const DOM: u64 = 1_000;
/// Facts per relation (24,000 in all, past the delta log's 16,384).
const FACTS_PER_REL: usize = 8_000;
/// Heavy `y` values on `mpc_skew`, each carrying `HEAVY_FACTS` facts of
/// `R` and of `S`.
const HEAVY_VALUES: usize = 4;
const HEAVY_FACTS: usize = 1_000;
/// Set-ups timed per run; `setup_s` is their median. One set-up takes
/// a fifth of a second, too short to repeat within a tenth on its own.
const SETUPS: usize = 5;
/// Runs per statistics window of `request_p50_us` (see `quiet`).
const RUN_WINDOW: usize = 3;
/// Untimed runs before timing starts.
const WARMUP_RUNS: usize = 2;

/// Which engine and input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One-round HyperCube on skew-free input.
    Uniform,
    /// The skew-adaptive engine on input with heavy `y` values.
    Skew,
}

/// The seeded relations `R`, `S`, `T`.
fn relations(kind: Kind, seed: u64) -> [Pairs; 3] {
    let mut rng = Rng::new(seed, 0x7a1);
    let [mut r, mut s, mut t] = [Pairs::new(), Pairs::new(), Pairs::new()];
    if kind == Kind::Skew {
        let mut heavy = Vec::new();
        while heavy.len() < HEAVY_VALUES {
            let h = rng.below(DOM);
            if !heavy.contains(&h) {
                heavy.push(h);
            }
        }
        for &h in &heavy {
            let (r0, s0) = (r.len(), s.len());
            while r.len() < r0 + HEAVY_FACTS {
                r.insert((rng.below(DOM), h));
            }
            while s.len() < s0 + HEAVY_FACTS {
                s.insert((h, rng.below(DOM)));
            }
        }
    }
    for rel in [&mut r, &mut s, &mut t] {
        while rel.len() < FACTS_PER_REL {
            rel.insert((rng.below(DOM), rng.below(DOM)));
        }
    }
    [r, s, t]
}

/// Build the input instance from the seeded relations.
fn build_instance(rels: &[Pairs; 3]) -> Instance {
    let mut facts = Vec::with_capacity(3 * FACTS_PER_REL);
    for (name, pairs) in ["R", "S", "T"].into_iter().zip(rels) {
        let id = rel(name);
        let mut sorted: Vec<(u64, u64)> = pairs.iter().copied().collect();
        sorted.sort_unstable();
        facts.extend(
            sorted
                .into_iter()
                .map(|(a, b)| Fact::new(id, vec![Val(a), Val(b)])),
        );
    }
    Instance::from_facts(facts)
}

/// One planned and executed run, with what the checks need.
struct Ran {
    report: RunReport,
    bound: LoadBound,
}

/// The stage times of one traced run, in ns.
#[derive(Default)]
struct Stages {
    plan: u64,
    seed: u64,
    route: u64,
    compute: u64,
    merge: u64,
    whole: u64,
}

struct Engine {
    kind: Kind,
    q: ConjunctiveQuery,
    db: Instance,
    threads: usize,
    /// `1/τ*` of the query: HyperCube's load exponent.
    exponent: f64,
}

impl Engine {
    /// Plan and run through the public entry points.
    fn run(&self) -> Result<Ran, String> {
        match self.kind {
            Kind::Uniform => {
                let hc = HypercubeAlgorithm::new(&self.q, P)
                    .map_err(|e| format!("share LP failed: {e:?}"))?;
                let report = hc.run_with_parallelism(&self.db, 0, self.threads);
                Ok(Ran {
                    report,
                    bound: LoadBound::new(self.db.len(), P, self.exponent),
                })
            }
            Kind::Skew => {
                let join =
                    SkewAdaptiveJoin::from_stats(&self.q, &self.db, P, SkewConfig::default());
                let mut cluster = Cluster::new(P).with_parallelism(self.threads);
                let report = join.run_on(&mut cluster, &self.db);
                Ok(Ran {
                    report,
                    bound: join.load_bound(),
                })
            }
        }
    }

    /// A run split into its stages, each timed as a span.
    fn traced(&self, tr: &mut Tracer, rid: u64) -> Result<(Ran, Stages, Cluster), String> {
        let mut st = Stages::default();
        match self.kind {
            Kind::Uniform => {
                let root = tr.open("mpc.run", None, rid);
                let (whole, ns) = tr.time(
                    "mpc.hypercube.run_with_parallelism",
                    Some(root),
                    rid,
                    || {
                        HypercubeAlgorithm::new(&self.q, P)
                            .map(|hc| hc.run_with_parallelism(&self.db, 0, self.threads))
                    },
                );
                st.whole = ns;
                whole.map_err(|e| format!("share LP failed: {e:?}"))?;
                let replay = tr.open("mpc.replay", Some(root), rid);
                let (hc, ns) = tr.time("mpc.shares.plan", Some(replay), rid, || {
                    HypercubeAlgorithm::new(&self.q, P)
                });
                st.plan = ns;
                let hc = hc.map_err(|e| format!("share LP failed: {e:?}"))?;
                let (mut cluster, ns) = tr.time("mpc.cluster.seed", Some(replay), rid, || {
                    let mut c = Cluster::new(P).with_parallelism(self.threads);
                    seed_cluster(&mut c, &self.db, InitialPartition::RoundRobin);
                    c
                });
                st.seed = ns;
                let (_, ns) = tr.time("mpc.cluster.route", Some(replay), rid, || {
                    cluster.communicate(|f| hc.destinations(f));
                });
                st.route = ns;
                let (_, ns) = tr.time("mpc.cluster.compute", Some(replay), rid, || {
                    cluster.compute_query(&self.q, hc.strategy())
                });
                st.compute = ns;
                let (_, ns) = tr.time("mpc.cluster.merge", Some(replay), rid, || {
                    cluster.union_all()
                });
                st.merge = ns;
                tr.close(replay);
                tr.close(root);
                let report = RunReport::from_cluster("hypercube", &cluster, self.db.len());
                let bound = LoadBound::new(self.db.len(), P, self.exponent);
                Ok((Ran { report, bound }, st, cluster))
            }
            Kind::Skew => {
                let root = tr.open("mpc.run", None, rid);
                let (join, ns) = tr.time("mpc.skew_rounds.plan", Some(root), rid, || {
                    SkewAdaptiveJoin::from_stats(&self.q, &self.db, P, SkewConfig::default())
                });
                st.plan = ns;
                let sink = Arc::new(MemSink::new());
                let (mut cluster, ns) = tr.time("mpc.cluster.seed", Some(root), rid, || {
                    Cluster::new(P)
                        .with_parallelism(self.threads)
                        .with_trace(TraceHandle::to(sink.clone()))
                });
                st.seed = ns;
                let start = tr.now();
                let report = join.run_on(&mut cluster, &self.db);
                let end = tr.now();
                let run_span = tr.record("mpc.skew_rounds.run_on", start, end, Some(root), rid);
                let wall = sink.wall_report();
                let phase_ns = |phase: Phase| -> u64 {
                    wall.spans
                        .iter()
                        .filter(|s| s.phase == phase)
                        .map(|s| s.wall_ns)
                        .sum()
                };
                st.route = phase_ns(Phase::Communication);
                st.compute = phase_ns(Phase::Computation);
                // The engine's phase spans carry durations only; lay
                // them end to end from the start of `run_on`.
                tr.record(
                    "mpc.cluster.route",
                    start,
                    start + st.route,
                    Some(run_span),
                    rid,
                );
                tr.record(
                    "mpc.cluster.compute",
                    start + st.route,
                    start + st.route + st.compute,
                    Some(run_span),
                    rid,
                );
                let (_, ns) = tr.time("mpc.cluster.merge", Some(root), rid, || cluster.union_all());
                st.merge = ns;
                st.whole = st.plan + st.seed + (end - start);
                tr.close(root);
                let bound = join.load_bound();
                Ok((Ran { report, bound }, st, cluster))
            }
        }
    }
}

/// Check one run's output and load against the oracle and the bound.
fn check(ran: &Ran, want: &BTreeSet<Vec<u64>>) -> Result<(), String> {
    let h = rel("H");
    let got: BTreeSet<Vec<u64>> = ran
        .report
        .output
        .relation(h)
        .map(|f| f.args.iter().map(|v| v.0).collect())
        .collect();
    if ran.report.output.len() != want.len() || got != *want {
        return Err(format!(
            "MPC output has {} facts, the triangle enumeration {}",
            ran.report.output.len(),
            want.len()
        ));
    }
    let max_load = ran.report.stats.max_load as f64;
    if max_load > 2.0 * ran.bound.predicted {
        return Err(format!(
            "max load {max_load} exceeds twice the load bound {:.1}",
            ran.bound.predicted
        ));
    }
    Ok(())
}

/// Run one MPC workload.
pub fn mpc(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    metrics: &mut Metrics,
) -> Result<Outcome, String> {
    let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").expect("triangle parses");
    let mut times = Vec::new();
    let mut bulk = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let rels = relations(kind, seed);
        let b = Instant::now();
        let db = build_instance(&rels);
        bulk.push(b.elapsed().as_secs_f64());
        times.push(t.elapsed().as_secs_f64());
        kept = Some((rels, db));
    }
    metrics.e2e("setup_s", median(&mut times));
    metrics.layer("relal.instance.bulk_load_s", median(&mut bulk));
    let (rels, db) = kept.expect("at least one set-up");
    let want = oracle::triangles(&rels[0], &rels[1], &rels[2]);
    let tau = fractional_edge_packing(&q)
        .map_err(|e| format!("edge packing LP failed: {e:?}"))?
        .value;
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let engine = Engine {
        kind,
        q,
        db,
        threads,
        exponent: 1.0 / tau,
    };

    for _ in 0..WARMUP_RUNS {
        check(&engine.run()?, &want)?;
    }
    metrics.e2e("peak_rss_mb", crate::peak_rss_mb()?);
    let mut tr = Tracer::new(trace);
    let mut run_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut unattributed_ms = Vec::new();
    let (mut rounds, mut balance, mut ratio, mut replication) = (0.0, 0.0, 0.0, 0.0);
    let (mut max_load, mut total_comm) = (0, 0);
    let mut attempted = 0u64;
    let start = Instant::now();
    let mut traced = false;
    while start.elapsed().as_secs_f64() < seconds {
        traced = trace && start.elapsed().as_secs_f64() >= seconds / 2.0;
        attempted += 1;
        let ran = if traced {
            let t = Instant::now();
            let (ran, st, cluster) = engine.traced(&mut tr, attempted)?;
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let parts = st.plan + st.seed + st.route + st.compute + st.merge;
            unattributed_ms.push((st.whole as f64 - parts as f64) / 1e6);
            rounds = cluster.round_count() as f64;
            balance = cluster
                .rounds()
                .iter()
                .map(|r| r.max_load as f64 * P as f64 / (r.total_comm.max(1)) as f64)
                .fold(0.0, f64::max);
            ran
        } else {
            let t = Instant::now();
            let ran = engine.run()?;
            run_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ran
        };
        check(&ran, &want)?;
        max_load = ran.report.stats.max_load;
        total_comm = ran.report.stats.total_comm;
        ratio = max_load as f64 / ran.bound.predicted;
        replication = total_comm as f64 / engine.db.len() as f64;
    }
    if trace && !traced {
        return Err("the run ended before its traced half; raise --seconds".into());
    }

    // A request and a round are both one run here. The median run is
    // taken in the quietest window of three; the tail, the throughput and
    // the round cost over every untraced run.
    metrics.e2e("request_p50_us", quiet(&run_ms, RUN_WINDOW, median) * 1e3);
    let busy_s = run_ms.iter().sum::<f64>() / 1e3;
    metrics.e2e(
        "requests_per_s",
        run_ms.len() as f64 / busy_s.max(f64::MIN_POSITIVE),
    );
    metrics.e2e("request_p90_us", percentile(&mut run_ms, 90.0) * 1e3);
    metrics.e2e("round_ms", median(&mut run_ms));
    if trace {
        // A traced run's whole cost, replay and span recording included,
        // against an untraced run's.
        let untraced = median(&mut run_ms);
        let traced_p50 = median(&mut traced_ms);
        metrics.layer(
            "trace.overhead_pct",
            100.0 * (traced_p50 - untraced) / untraced.max(f64::MIN_POSITIVE),
        );
        let (plan, name) = match kind {
            Kind::Uniform => ("mpc.shares.plan", "mpc_uniform"),
            Kind::Skew => ("mpc.skew_rounds.plan", "mpc_skew"),
        };
        let plan_metric = match kind {
            Kind::Uniform => "mpc.shares.plan_ms",
            Kind::Skew => "mpc.skew_rounds.plan_ms",
        };
        metrics.layer(plan_metric, tr.median_ns(plan) / 1e6);
        for (span, metric) in [
            ("mpc.cluster.seed", "mpc.cluster.seed_ms"),
            ("mpc.cluster.route", "mpc.cluster.route_ms"),
            ("mpc.cluster.compute", "mpc.cluster.compute_ms"),
            ("mpc.cluster.merge", "mpc.cluster.merge_ms"),
        ] {
            metrics.layer(metric, tr.median_ns(span) / 1e6);
        }
        metrics.layer("mpc.run.unattributed_ms", median(&mut unattributed_ms));
        metrics.layer("mpc.cluster.rounds", rounds);
        metrics.layer("mpc.cluster.balance", balance);
        metrics.layer("mpc.load_ratio", ratio);
        metrics.layer("mpc.cluster.replication", replication);
        metrics.layer("mpc.max_load", max_load as f64);
        metrics.layer("mpc.total_comm", total_comm as f64);
        crate::write_spans(&tr, name, seed);
    }
    let mut out = Outcome::default();
    out.op("mpc.run", attempted, 0);
    out.attempted = attempted;
    Ok(out)
}
