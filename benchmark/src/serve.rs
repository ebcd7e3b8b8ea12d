//! The serving workload, `serve_write`.
//!
//! One client thread drives `parlog-serve` in a closed loop: it sends
//! the next request only after the previous one returned. Writer steps
//! (mutate, `Server::publish`, one `VirtualCompactor::cycle`) run on the
//! same thread at fixed request counts, so nothing else runs while a
//! request is timed.
//!
//! Traced rounds replay each request's stages through the public calls
//! the serving layer is built from — admit, pin, plan, trie fetch, join,
//! materialize — and time each one; the part of `Session::execute` the
//! replay does not account for is reported as unattributed.

use crate::oracle::{self, Pairs};
use crate::rng::{shuffle, Rng};
use crate::trace::{median, percentile, Tracer};
use crate::{Metrics, Outcome};
use parlog_datalog::eval::eval_program_scratch;
use parlog_datalog::maintain::publish_views;
use parlog_datalog::program::{parse_program, Program};
use parlog_relal::atom::{Term, Var};
use parlog_relal::eval::{eval_query_indexed, EvalStrategy, Indexed};
use parlog_relal::parser::{parse_query, parse_union};
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::snapshot::Snapshot;
use parlog_relal::symbols::{rel, RelId};
use parlog_relal::trie::satisfying_valuations_wcoj_ordered;
use parlog_relal::{Fact, Instance, Val};
use parlog_serve::plan::{PlanCache, PlanKind};
use parlog_serve::{Answer, Request, Response, ServeError, Server, Session, VirtualCompactor};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Keys of the point-lookup relation `KV(k, v)`.
const KV_KEYS: u64 = 20_000;
/// First key; keys never collide with the join domain below.
const KEY_BASE: u64 = 1_000_000;
/// The value domain of `KV` values and of `R`, `S`, `T`. Each of `R`,
/// `S`, `T` starts as a seeded permutation of the domain, so every value
/// has one successor in each: join sizes, and with them join costs, are
/// the same for every seed.
const DOM: u64 = 2_000;
/// The DAG `E`: blocks of nodes, each block a chain plus one random
/// forward edge per node. The chain makes every block's closure the
/// same for every seed; the writer only deletes edges it added.
const E_BLOCKS: u64 = 10;
const E_BLOCK: u64 = 20;
const NODE_BASE: u64 = 10_000;
/// Admission capacity; one client never fills it.
const CAPACITY: usize = 64;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Catalog reads in the burst after each publication; one scratch
/// `Reach` program follows them.
const WRITE_BURST: usize = 32;
/// Reads per round.
const ROUND_READS: usize = WRITE_BURST + 1;
/// Untimed rounds before timing starts.
const WARMUP_ROUNDS: usize = 2;

const REL_NAMES: [&str; 5] = ["KV", "R", "S", "T", "E"];
const KV: usize = 0;
const R: usize = 1;
const S: usize = 2;
const T: usize = 3;
const E: usize = 4;

const TC_PROGRAM: &str = "TC(x,y) <- E(x,y). TC(x,z) <- TC(x,y), E(y,z).";

/// The benchmark's model of the database: what the writer has applied.
#[derive(Debug, Clone, Default)]
struct Model {
    rels: [Pairs; 5],
}

impl Model {
    fn len(&self) -> usize {
        self.rels.iter().map(|r| r.len()).sum()
    }

    fn facts(&self, ids: &[RelId; 5]) -> Vec<Fact> {
        let mut out = Vec::with_capacity(self.len());
        for (i, r) in self.rels.iter().enumerate() {
            let mut sorted: Vec<(u64, u64)> = r.iter().copied().collect();
            sorted.sort_unstable();
            out.extend(
                sorted
                    .into_iter()
                    .map(|(a, b)| Fact::new(ids[i], vec![Val(a), Val(b)])),
            );
        }
        out
    }
}

fn dag_node(block: u64, pos: u64) -> u64 {
    NODE_BASE + block * E_BLOCK + pos
}

/// The seeded base: `KV`, `R`/`S`/`T` and the DAG `E`.
fn base_model(seed: u64) -> Model {
    let mut rng = Rng::new(seed, 0xba5e);
    let mut m = Model::default();
    for i in 0..KV_KEYS {
        m.rels[KV].insert((KEY_BASE + i, rng.below(DOM)));
    }
    for rel in [R, S, T] {
        let mut image: Vec<u64> = (0..DOM).collect();
        shuffle(&mut image, &mut rng);
        m.rels[rel].extend((0..DOM).zip(image));
    }
    for b in 0..E_BLOCKS {
        for q in 0..E_BLOCK - 1 {
            m.rels[E].insert((dag_node(b, q), dag_node(b, q + 1)));
            let to = q + 1 + rng.below(E_BLOCK - 1 - q);
            m.rels[E].insert((dag_node(b, q), dag_node(b, to)));
        }
    }
    m
}

/// What a response must equal.
#[derive(Debug, Clone)]
enum Expect {
    Lookup(Vec<(u64, u64)>),
    PointJoin(u64),
    Triangle,
    TwoCycles,
    Tc,
    Reach(u64),
}

/// One distinct request: the text key it is checked under, the request
/// and its expected answer.
#[derive(Debug, Clone)]
struct Variant {
    key: String,
    req: Request,
    expect: Expect,
}

/// The catalog's query texts, parsed once.
struct Catalog {
    ids: [RelId; 5],
    tc: Program,
    triangle: ConjunctiveQuery,
    two_cycles: parlog_relal::query::UnionQuery,
}

impl Catalog {
    fn new() -> Catalog {
        let q = |s: &str| parse_query(s).expect("catalog query parses");
        Catalog {
            ids: REL_NAMES.map(rel),
            tc: parse_program(TC_PROGRAM).expect("TC program parses"),
            triangle: q("H(x,y,z) <- R(x,y), S(y,z), T(z,x)"),
            two_cycles: parse_union("H(x) <- R(x,y), T(y,x); H(x) <- S(x,y), T(y,x)")
                .expect("catalog union parses"),
        }
    }

    fn cq(&self, key: &str, q: &ConjunctiveQuery, expect: Expect) -> Variant {
        Variant {
            key: key.to_string(),
            req: Request::Query(q.clone(), EvalStrategy::Auto),
            expect,
        }
    }

    fn lookup(&self, key: String, facts: Vec<(u64, u64)>) -> Variant {
        let batch = facts
            .iter()
            .map(|&(k, v)| Fact::new(self.ids[KV], vec![Val(k), Val(v)]))
            .collect();
        Variant {
            key,
            req: Request::Lookup(batch),
            expect: Expect::Lookup(facts),
        }
    }

    fn point_join(&self, c: u64) -> Variant {
        let q = parse_query(&format!("H(v,y) <- KV({c},v), R(v,y)")).expect("point join parses");
        Variant {
            key: format!("pointjoin:{c}"),
            req: Request::Query(q, EvalStrategy::Auto),
            expect: Expect::PointJoin(c),
        }
    }

    fn tc_view(&self) -> Variant {
        Variant {
            key: "tc".into(),
            req: Request::Program(self.tc.clone(), EvalStrategy::Auto),
            expect: Expect::Tc,
        }
    }

    fn reach(&self, src: u64) -> Variant {
        let p = parse_program(&format!(
            "Reach(y) <- E({src},y). Reach(z) <- Reach(y), E(y,z)."
        ))
        .expect("reach program parses");
        Variant {
            key: format!("reach:{src}"),
            req: Request::Program(p, EvalStrategy::Auto),
            expect: Expect::Reach(src),
        }
    }
}

fn tuples(inst: &Instance, rel: RelId) -> BTreeSet<Vec<u64>> {
    inst.relation(rel)
        .map(|f| f.args.iter().map(|v| v.0).collect())
        .collect()
}

/// A program output must be the model's facts plus exactly `derived`
/// under relation `head`.
fn check_program_output(
    out: &Instance,
    model: &Model,
    ids: &[RelId; 5],
    head: RelId,
    derived: &BTreeSet<Vec<u64>>,
) -> Result<(), String> {
    if out.len() != model.len() + derived.len() {
        return Err(format!(
            "program output has {} facts, expected {} base + {} derived",
            out.len(),
            model.len(),
            derived.len()
        ));
    }
    if tuples(out, head) != *derived {
        return Err("derived facts differ from the breadth-first closure".into());
    }
    for (i, r) in model.rels.iter().enumerate() {
        if out.relation_len(ids[i]) != r.len()
            || out
                .relation(ids[i])
                .any(|f| !r.contains(&(f.args[0].0, f.args[1].0)))
        {
            return Err(format!(
                "program output's {} differs from the model",
                REL_NAMES[i]
            ));
        }
    }
    Ok(())
}

/// Check one response against the oracle over the model.
fn check(v: &Variant, resp: &Response, model: &Model, cat: &Catalog) -> Result<(), String> {
    let m = &model.rels;
    let h = rel("H");
    let relation = |resp: &Response| -> Result<Arc<Instance>, String> {
        resp.answer
            .relation()
            .cloned()
            .ok_or_else(|| format!("{}: expected a relation", v.key))
    };
    let want = match &v.expect {
        Expect::Lookup(facts) => {
            let Answer::Bits(bits) = &resp.answer else {
                return Err(format!("{}: expected membership bits", v.key));
            };
            let want: Vec<bool> = facts.iter().map(|p| m[KV].contains(p)).collect();
            if *bits != want {
                return Err(format!("{}: lookup bits differ from the model", v.key));
            }
            return Ok(());
        }
        Expect::PointJoin(c) => oracle::point_join(&m[KV], &m[R], *c),
        Expect::Triangle => oracle::triangles(&m[R], &m[S], &m[T]),
        Expect::TwoCycles => oracle::two_cycles(&m[R], &m[S], &m[T]),
        Expect::Tc => {
            let closure = oracle::closure(&m[E]);
            let out = relation(resp)?;
            return check_program_output(&out, model, &cat.ids, rel("TC"), &closure)
                .map_err(|e| format!("{}: {e}", v.key));
        }
        Expect::Reach(src) => {
            let derived = oracle::reach(&oracle::by_first(&m[E]), *src)
                .into_iter()
                .map(|n| vec![n])
                .collect();
            let out = relation(resp)?;
            return check_program_output(&out, model, &cat.ids, rel("Reach"), &derived)
                .map_err(|e| format!("{}: {e}", v.key));
        }
    };
    let out = relation(resp)?;
    if out.len() != want.len() || tuples(&out, h) != want {
        return Err(format!(
            "{}: served {} answers, the oracle {}",
            v.key,
            out.len(),
            want.len()
        ));
    }
    Ok(())
}

/// One mutation: insert or delete `(a, b)` in relation `rel`.
#[derive(Debug, Clone, Copy)]
struct Mutation {
    insert: bool,
    rel: usize,
    a: u64,
    b: u64,
}

/// How many mutations of each kind one writer batch makes: 64 in all.
const KV_INSERTS: usize = 20;
const KV_DELETES: usize = 16;
const RST_INSERTS_EACH: usize = 4;
const E_INSERTS: usize = 12;
const E_DELETES: usize = 4;

/// The seeded writer. It keeps its choices in vectors, never iterating
/// a hash set, so a seed always yields the same batches.
struct Writer {
    rng: Rng,
    next_key: u64,
    live_keys: Vec<u64>,
    kv_val: HashMap<u64, u64>,
    /// Edges the writer added and may delete again.
    added_edges: Vec<(u64, u64)>,
}

impl Writer {
    fn new(seed: u64, model: &Model) -> Writer {
        let mut live_keys: Vec<u64> = (KEY_BASE..KEY_BASE + KV_KEYS).collect();
        live_keys.sort_unstable();
        let kv_val = model.rels[KV].iter().copied().collect();
        Writer {
            rng: Rng::new(seed, 0x3717e),
            next_key: KEY_BASE + KV_KEYS,
            live_keys,
            kv_val,
            added_edges: Vec::new(),
        }
    }

    /// Draw one batch and apply it to `model`.
    fn batch(&mut self, model: &mut Model) -> Vec<Mutation> {
        let mut out = Vec::new();
        let mut apply = |model: &mut Model, m: Mutation| {
            let set = &mut model.rels[m.rel];
            if m.insert {
                set.insert((m.a, m.b));
            } else {
                set.remove(&(m.a, m.b));
            }
            out.push(m);
        };
        for _ in 0..KV_INSERTS {
            let (k, v) = (self.next_key, self.rng.below(DOM));
            self.next_key += 1;
            self.live_keys.push(k);
            self.kv_val.insert(k, v);
            apply(
                model,
                Mutation {
                    insert: true,
                    rel: KV,
                    a: k,
                    b: v,
                },
            );
        }
        for _ in 0..KV_DELETES {
            let i = self.rng.below(self.live_keys.len() as u64) as usize;
            let k = self.live_keys.swap_remove(i);
            let v = self.kv_val.remove(&k).expect("live key has a value");
            apply(
                model,
                Mutation {
                    insert: false,
                    rel: KV,
                    a: k,
                    b: v,
                },
            );
        }
        for rel in [R, S, T] {
            for _ in 0..RST_INSERTS_EACH {
                let (a, b) = loop {
                    let p = (self.rng.below(DOM), self.rng.below(DOM));
                    if !model.rels[rel].contains(&p) {
                        break p;
                    }
                };
                apply(
                    model,
                    Mutation {
                        insert: true,
                        rel,
                        a,
                        b,
                    },
                );
            }
        }
        for _ in 0..E_INSERTS {
            let (a, b) = loop {
                let blk = self.rng.below(E_BLOCKS);
                let q = self.rng.below(E_BLOCK - 1);
                let to = q + 1 + self.rng.below(E_BLOCK - 1 - q);
                let p = (dag_node(blk, q), dag_node(blk, to));
                if !model.rels[E].contains(&p) {
                    break p;
                }
            };
            self.added_edges.push((a, b));
            apply(
                model,
                Mutation {
                    insert: true,
                    rel: E,
                    a,
                    b,
                },
            );
        }
        for _ in 0..E_DELETES {
            let i = self.rng.below(self.added_edges.len() as u64) as usize;
            let (a, b) = self.added_edges.swap_remove(i);
            apply(
                model,
                Mutation {
                    insert: false,
                    rel: E,
                    a,
                    b,
                },
            );
        }
        out
    }

    /// A live key and its value.
    fn live_kv(&mut self) -> (u64, u64) {
        let k = self.live_keys[self.rng.below(self.live_keys.len() as u64) as usize];
        (k, self.kv_val[&k])
    }
}

/// Per-run counters and samples.
#[derive(Default)]
struct Run {
    /// Latency of every untraced timed `Session::execute`, in µs, in
    /// request order.
    read_us: Vec<f64>,
    /// Cost of each untraced timed round (writer step plus reads), in ms.
    round_ms: Vec<f64>,
    /// Cost of each traced round, span recording and replay included.
    traced_round_ms: Vec<f64>,
    /// Unattributed remainder of each traced execute, in µs.
    unattributed_us: Vec<f64>,
    /// Per-mutation time inside `SnapshotStore::mutate`, in µs.
    mutate_us: Vec<f64>,
    /// Whole publication time, in ms.
    publish_ms: Vec<f64>,
    /// Compaction cycle time, in µs.
    cycle_us: Vec<f64>,
    /// Mutations made visible and the writer time they took.
    mutations: u64,
    writer_s: f64,
    /// Response ops of traced relational requests.
    join_ops: Vec<f64>,
    view_hits: u64,
    trie_builds: u64,
    reads_attempted: u64,
    overloads: u64,
    program_errors: u64,
    publishes_attempted: u64,
    publishes_failed: u64,
}

/// A served request's stages, replayed through the public calls the
/// session is built from: a shadow plan cache and a shadow pin walk the
/// same request and generation sequence as the session.
struct Replay {
    plans: PlanCache,
    pin: Arc<Snapshot>,
}

impl Replay {
    /// Replay `req`; returns the summed stage time in ns.
    fn run(
        &mut self,
        server: &Server,
        req: &Request,
        tr: &mut Tracer,
        rid: u64,
        run: &mut Run,
    ) -> u64 {
        let root = tr.open("serve.replay", None, rid);
        let mut total = 0;
        let (permit, ns) = tr.time("serve.admission.admit", Some(root), rid, || {
            server.gate().try_admit()
        });
        total += ns;
        let (_, ns) = tr.time("relal.snapshot.pin", Some(root), rid, || {
            server.store().pin_if_newer(&mut self.pin)
        });
        total += ns;
        let snap = Arc::clone(&self.pin);
        let inst = snap.instance();
        match req {
            Request::Lookup(batch) => {
                let (_, ns) = tr.time("relal.instance.lookup", Some(root), rid, || {
                    batch
                        .iter()
                        .map(|f| inst.contains(f))
                        .collect::<Vec<bool>>()
                });
                total += ns;
            }
            Request::Query(q, strategy) => {
                total += self.relational(std::slice::from_ref(q), *strategy, &snap, tr, root, rid);
            }
            Request::Union(u, strategy) => {
                total += self.relational(&u.disjuncts, *strategy, &snap, tr, root, rid);
            }
            Request::Program(p, strategy) => {
                let (plan, ns) = tr.time("serve.plan.prepare", Some(root), rid, || {
                    self.plans.prepare_program(p, *strategy, &snap).0
                });
                total += ns;
                let PlanKind::Program { view_key, resident } = plan.kind else {
                    unreachable!("a program request prepares a program plan");
                };
                if resident {
                    run.view_hits += 1;
                    let (_, ns) = tr.time("serve.server.view_output", Some(root), rid, || {
                        snap.view_output(view_key)
                    });
                    total += ns;
                } else {
                    let (_, ns) = tr.time("datalog.eval.scratch", Some(root), rid, || {
                        eval_program_scratch(p, inst, *strategy)
                    });
                    total += ns;
                }
            }
        }
        let (_, ns) = tr.time("serve.admission.release", Some(root), rid, || drop(permit));
        total += ns;
        tr.close(root);
        total
    }

    /// The relational stages of one request, disjunct by disjunct.
    fn relational(
        &mut self,
        disjuncts: &[ConjunctiveQuery],
        strategy: EvalStrategy,
        snap: &Snapshot,
        tr: &mut Tracer,
        root: usize,
        rid: u64,
    ) -> u64 {
        let generation = snap.generation();
        let inst = snap.instance();
        let (plan, mut total) = tr.time("serve.plan.prepare", Some(root), rid, || {
            self.plans
                .prepare_relational(disjuncts, strategy, generation)
                .0
        });
        let PlanKind::Relational(analysis) = &plan.kind else {
            unreachable!("a relational request prepares a relational plan");
        };
        let mut out = Instance::new();
        for (q, d) in disjuncts.iter().zip(&analysis.disjuncts) {
            if d.resolved == EvalStrategy::Indexed {
                let (part, ns) = tr.time("relal.trie.join", Some(root), rid, || {
                    let index = Indexed::for_query(q, inst);
                    eval_query_indexed(q, inst, &index)
                });
                total += ns;
                let (_, ns) = tr.time("relal.instance.materialize", Some(root), rid, || {
                    out.extend_from(&part)
                });
                total += ns;
            } else {
                let (_, ns) = tr.time("relal.trie.fetch", Some(root), rid, || {
                    for atom in &q.body {
                        let _ = inst.trie_layers(atom.rel, &wcoj_perm(atom, &d.order));
                    }
                });
                total += ns;
                let (vals, ns) = tr.time("relal.trie.join", Some(root), rid, || {
                    satisfying_valuations_wcoj_ordered(q, inst, &d.order)
                });
                total += ns;
                let (_, ns) = tr.time("relal.instance.materialize", Some(root), rid, || {
                    for v in &vals {
                        out.insert(v.derived_fact(q));
                    }
                });
                total += ns;
            }
        }
        total
    }
}

/// The trie column order the WCOJ join asks for: constants first, then
/// variables by their place in `order`.
fn wcoj_perm(atom: &parlog_relal::atom::Atom, order: &[Var]) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..atom.terms.len()).collect();
    cols.sort_by_key(|&j| match &atom.terms[j] {
        Term::Const(_) => (0, j),
        Term::Var(v) => (1 + order.iter().position(|w| w == v).unwrap_or(0), j),
    });
    cols
}

/// The serving state one set-up builds.
struct Served {
    server: Server,
    model: Model,
}

/// Bulk-load the base, register the TC view and publish once.
fn setup(
    seed: u64,
    cat: &Catalog,
    layers: &mut HashMap<&'static str, Vec<f64>>,
) -> Result<Served, String> {
    let model = base_model(seed);
    let facts = model.facts(&cat.ids);
    let t = Instant::now();
    let inst = Instance::from_facts(facts);
    layers
        .entry("relal.instance.bulk_load_s")
        .or_default()
        .push(t.elapsed().as_secs_f64());
    let server = Server::new(inst, CAPACITY);
    // Warm the writer's tries, as a server does, so snapshots serve
    // them lock-free and the compactor has their run stacks to merge.
    for id in cat.ids {
        server.store().warm(id, &[0, 1]);
        server.store().warm(id, &[1, 0]);
    }
    server.register_view(cat.tc.clone(), EvalStrategy::Auto);
    let programs = vec![(cat.tc.clone(), EvalStrategy::Auto)];
    let mut materialize_s = 0.0;
    let mut err = None;
    server.store().publish_with(|w| {
        let t = Instant::now();
        let out = publish_views(w, &programs);
        materialize_s = t.elapsed().as_secs_f64();
        out.unwrap_or_else(|e| {
            err = Some(format!("view materialization failed: {e:?}"));
            parlog_serve::plan::no_views()
        })
    });
    if let Some(e) = err {
        return Err(e);
    }
    layers
        .entry("datalog.maintain.materialize_s")
        .or_default()
        .push(materialize_s);
    Ok(Served { server, model })
}

/// Run `SETUPS` identical set-ups, timing each; keep the last.
fn timed_setups(seed: u64, cat: &Catalog, metrics: &mut Metrics) -> Result<Served, String> {
    let mut layers = HashMap::new();
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let served = setup(seed, cat, &mut layers)?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some(served);
    }
    metrics.e2e("setup_s", median(&mut times));
    for (name, mut v) in layers {
        metrics.layer(name, median(&mut v));
    }
    Ok(kept.expect("at least one set-up"))
}

/// The client: one session, the writer, the compactor and the checks.
struct Client<'a> {
    server: &'a Server,
    cat: &'a Catalog,
    session: Session<'a>,
    replay: Replay,
    compactor: VirtualCompactor,
    writer: Writer,
    model: Model,
    programs: Vec<(Program, EvalStrategy)>,
    checked: HashSet<(String, u64)>,
    tracer: Tracer,
    run: Run,
    next_rid: u64,
    /// The snapshot the last publication produced, to read its trie
    /// builds once it is superseded.
    current: Arc<Snapshot>,
}

impl<'a> Client<'a> {
    fn new(served: &'a Served, cat: &'a Catalog, seed: u64, trace: bool) -> Client<'a> {
        let server = &served.server;
        Client {
            server,
            cat,
            session: server.session(),
            replay: Replay {
                plans: PlanCache::new(),
                pin: server.store().pin(),
            },
            compactor: VirtualCompactor::new(),
            writer: Writer::new(seed, &served.model),
            model: served.model.clone(),
            programs: vec![(cat.tc.clone(), EvalStrategy::Auto)],
            checked: HashSet::new(),
            tracer: Tracer::new(trace),
            run: Run::default(),
            next_rid: 0,
            current: server.store().pin(),
        }
    }

    /// Execute one request. Timed iff `timed`; replayed stage by stage
    /// iff `traced`. Returns what the request cost the round in µs: its
    /// latency, plus the span recording and replay when traced; checks
    /// are not included.
    fn read(&mut self, v: &Variant, timed: bool, traced: bool) -> Result<f64, String> {
        let rid = self.next_rid;
        self.next_rid += 1;
        let t = Instant::now();
        let res = self.session.execute(&v.req);
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        if timed {
            self.run.reads_attempted += 1;
        }
        let resp = match res {
            Ok(r) => r,
            Err(e) => {
                if timed {
                    match e {
                        ServeError::Overload(_) => self.run.overloads += 1,
                        ServeError::Program(_) => self.run.program_errors += 1,
                    }
                }
                return Ok(t.elapsed().as_nanos() as f64 / 1e3);
            }
        };
        if timed {
            if traced {
                let start = self.tracer.now();
                self.tracer
                    .record("serve.execute", start - (us * 1e3) as u64, start, None, rid);
                let stages =
                    self.replay
                        .run(self.server, &v.req, &mut self.tracer, rid, &mut self.run);
                self.run.unattributed_us.push(us - stages as f64 / 1e3);
                if !matches!(v.req, Request::Lookup(_)) {
                    self.run.join_ops.push(resp.ops as f64);
                }
            } else {
                self.run.read_us.push(us);
            }
        }
        let cost_us = t.elapsed().as_nanos() as f64 / 1e3;
        if self.checked.insert((v.key.clone(), resp.generation)) {
            check(v, &resp, &self.model, self.cat)?;
        }
        Ok(cost_us)
    }

    /// One writer step: apply a batch, publish, run one compaction
    /// cycle. Returns the step's writer time in ms.
    fn write_step(&mut self, traced: bool) -> Result<(f64, Vec<Mutation>), String> {
        let batch = self.writer.batch(&mut self.model);
        let ids = self.cat.ids;
        let mut per_mutation = Vec::with_capacity(batch.len());
        let t = Instant::now();
        self.server.store().mutate(|w| {
            for m in &batch {
                let f = Fact::new(ids[m.rel], vec![Val(m.a), Val(m.b)]);
                let t = traced.then(Instant::now);
                if m.insert {
                    w.insert(f);
                } else {
                    w.remove(&f);
                }
                if let Some(t) = t {
                    per_mutation.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
            }
        });
        let mutate_s = t.elapsed().as_secs_f64();
        self.run.mutate_us.extend(per_mutation);
        self.run.publishes_attempted += 1;
        let t = Instant::now();
        let published = if traced {
            let programs = &self.programs;
            let tr = &mut self.tracer;
            let start = tr.now();
            let mut refresh = (0, 0);
            let mut err = false;
            let snap = self.server.store().publish_with(|w| {
                let s = tr.now();
                let out = publish_views(w, programs);
                refresh = (s, tr.now());
                out.unwrap_or_else(|_| {
                    err = true;
                    parlog_serve::plan::no_views()
                })
            });
            let end = tr.now();
            let root = tr.record("relal.snapshot.publish_with", start, end, None, u64::MAX);
            tr.record(
                "datalog.maintain.refresh",
                refresh.0,
                refresh.1,
                Some(root),
                u64::MAX,
            );
            if err {
                None
            } else {
                Some(snap)
            }
        } else {
            self.server.publish().ok()
        };
        let publish_s = t.elapsed().as_secs_f64();
        let Some(snap) = published else {
            self.run.publishes_failed += 1;
            return Err("publication failed".into());
        };
        self.run.trie_builds += self.current.instance().trie_builds();
        self.current = snap;
        let t = Instant::now();
        self.compactor.cycle(self.server.store());
        let cycle_s = t.elapsed().as_secs_f64();
        self.run.publish_ms.push(publish_s * 1e3);
        self.run.cycle_us.push(cycle_s * 1e6);
        self.run.mutations += batch.len() as u64;
        let writer_s = mutate_s + publish_s + cycle_s;
        self.run.writer_s += writer_s;
        Ok((writer_s * 1e3, batch))
    }

    /// The pinned-answer audit: the hot CQ's answer on the first
    /// generation, as bytes.
    fn audit_bytes(&self, audit: &mut Session<'_>) -> Result<String, String> {
        let resp = audit
            .execute_pinned(&Request::Query(
                self.cat.triangle.clone(),
                EvalStrategy::Auto,
            ))
            .map_err(|e| format!("audit request refused: {e}"))?;
        let out = resp
            .answer
            .relation()
            .ok_or("audit answer is not a relation")?;
        Ok(format!("{:?}", out.sorted_facts()))
    }

    /// End-of-run checks: the final snapshot and TC view equal the model.
    fn final_checks(&mut self) -> Result<(), String> {
        let snap = self.server.store().pin();
        let inst = snap.instance();
        if inst.len() != self.model.len() {
            return Err(format!(
                "final snapshot has {} facts, the model {}",
                inst.len(),
                self.model.len()
            ));
        }
        for (i, r) in self.model.rels.iter().enumerate() {
            if inst
                .relation(self.cat.ids[i])
                .any(|f| !r.contains(&(f.args[0].0, f.args[1].0)))
            {
                return Err(format!(
                    "final snapshot's {} differs from the model",
                    REL_NAMES[i]
                ));
            }
        }
        let tc = self.cat.tc_view();
        let resp = self
            .session
            .execute(&tc.req)
            .map_err(|e| format!("final TC read refused: {e}"))?;
        check(&tc, &resp, &self.model, self.cat)
    }

    /// Fill the metrics, each over every untraced timed round of the
    /// run. The median request is taken per round and averaged over the
    /// rounds: the triangles it falls on take ~2.0 ms on a generation
    /// with uncompacted runs and ~1.2 ms after a compaction, so a single
    /// median (or the quietest round's) flips between the two with the
    /// share of fast rounds, while the mean follows that share.
    fn report(mut self, metrics: &mut Metrics, trace: bool) -> Outcome {
        let run = &mut self.run;
        let per_round: Vec<f64> = run
            .read_us
            .chunks(ROUND_READS)
            .map(|c| median(&mut c.to_vec()))
            .collect();
        let rounds = per_round.len().max(1) as f64;
        metrics.e2e("request_p50_us", per_round.iter().sum::<f64>() / rounds);
        let busy_s = run.read_us.iter().sum::<f64>() / 1e6;
        metrics.e2e(
            "requests_per_s",
            run.read_us.len() as f64 / busy_s.max(f64::MIN_POSITIVE),
        );
        metrics.e2e("request_p90_us", percentile(&mut run.read_us, 90.0));
        metrics.e2e("round_ms", median(&mut run.round_ms));
        if trace {
            let tr = &mut self.tracer;
            let untraced = median(&mut run.round_ms);
            let traced = median(&mut run.traced_round_ms);
            metrics.layer(
                "trace.overhead_pct",
                100.0 * (traced - untraced) / untraced.max(f64::MIN_POSITIVE),
            );
            metrics.layer(
                "serve.admission.admit_ns",
                tr.median_ns("serve.admission.admit") + tr.median_ns("serve.admission.release"),
            );
            metrics.layer(
                "serve.admission.refused",
                self.server.gate().refused() as f64,
            );
            metrics.layer("relal.snapshot.pin_ns", tr.median_ns("relal.snapshot.pin"));
            metrics.layer(
                "serve.plan.prepare_us",
                tr.median_ns("serve.plan.prepare") / 1e3,
            );
            let stats = self.session.plan_stats();
            metrics.layer("serve.plan.hit_rate", stats.hit_rate());
            metrics.layer("serve.plan.analysis_misses", stats.analysis_misses as f64);
            metrics.layer("serve.server.view_hits", run.view_hits as f64);
            metrics.layer(
                "relal.trie.fetch_us",
                tr.median_ns("relal.trie.fetch") / 1e3,
            );
            metrics.layer("relal.trie.join_us", tr.median_ns("relal.trie.join") / 1e3);
            metrics.layer("relal.trie.join_ops", median(&mut run.join_ops));
            metrics.layer(
                "relal.instance.materialize_us",
                tr.median_ns("relal.instance.materialize") / 1e3,
            );
            metrics.layer(
                "relal.instance.lookup_us",
                tr.median_ns("relal.instance.lookup") / 1e3,
            );
            metrics.layer(
                "datalog.eval.scratch_us",
                tr.median_ns("datalog.eval.scratch") / 1e3,
            );
            metrics.layer(
                "serve.execute.unattributed_us",
                median(&mut run.unattributed_us),
            );
            let publish = tr.median_ns("relal.snapshot.publish_with");
            let refresh = tr.median_ns("datalog.maintain.refresh");
            metrics.layer("relal.snapshot.publish_ms", (publish - refresh) / 1e6);
            metrics.layer("datalog.maintain.refresh_ms", refresh / 1e6);
            metrics.layer("relal.instance.mutate_us", median(&mut run.mutate_us));
            metrics.layer("serve.compact.cycle_us", median(&mut run.cycle_us));
            let cs = self.compactor.stats();
            metrics.layer("serve.compact.installed", cs.installed as f64);
            metrics.layer("serve.compact.discarded", cs.discarded as f64);
            metrics.layer("serve.publish_ms", median(&mut run.publish_ms));
            metrics.layer(
                "serve.write_mps",
                run.mutations as f64 / run.writer_s.max(f64::MIN_POSITIVE),
            );
            metrics.layer(
                "relal.instance.delta_log_len",
                self.server.store().with_writer(|w| w.delta_log_len()) as f64,
            );
            metrics.layer(
                "relal.trie.builds",
                (run.trie_builds + self.current.instance().trie_builds()) as f64,
            );
        }
        let reads_failed = run.overloads + run.program_errors;
        let mut out = Outcome::default();
        out.op("read", run.reads_attempted, reads_failed);
        out.op("read.overload", run.reads_attempted, run.overloads);
        out.op(
            "read.program_error",
            run.reads_attempted,
            run.program_errors,
        );
        out.op("publish", run.publishes_attempted, run.publishes_failed);
        out.attempted = run.reads_attempted + run.publishes_attempted;
        out.failed = reads_failed + run.publishes_failed;
        out
    }

    /// Write the spans of a traced run.
    fn write_spans(&self, workload: &str, seed: u64) {
        if self.tracer.is_on() {
            crate::write_spans(&self.tracer, workload, seed);
        }
    }
}

/// `serve_write`: rounds of one 64-mutation writer step followed by a
/// burst of reads of what it wrote, from a re-pinned session, and one
/// scratch `Reach` program.
pub fn serve_write(
    seed: u64,
    seconds: f64,
    trace: bool,
    metrics: &mut Metrics,
) -> Result<Outcome, String> {
    let cat = Catalog::new();
    let served = timed_setups(seed, &cat, metrics)?;
    let mut client = Client::new(&served, &cat, seed, trace);
    let mut audit = served.server.session();
    let pinned = client.audit_bytes(&mut audit)?;
    let mut rng = Rng::new(seed, 0x5c7a);
    let mut round = |client: &mut Client<'_>, timed: bool, traced: bool| -> Result<f64, String> {
        let (writer_ms, batch) = client.write_step(traced)?;
        let inserted: Vec<(u64, u64)> = batch
            .iter()
            .filter(|m| m.insert && m.rel == KV)
            .map(|m| (m.a, m.b))
            .collect();
        let deleted: Vec<(u64, u64)> = batch
            .iter()
            .filter(|m| !m.insert && m.rel == KV)
            .map(|m| (m.a, m.b))
            .collect();
        let generation = client.current.generation();
        let mut burst = Vec::with_capacity(ROUND_READS);
        for i in 0..WRITE_BURST {
            burst.push(match i % 8 {
                0 | 4 => {
                    let mut facts: Vec<(u64, u64)> =
                        inserted.iter().skip(i % 16).take(4).copied().collect();
                    facts.extend(deleted.iter().skip(i % 8).take(2).copied());
                    facts.push(client.writer.live_kv());
                    facts.push(client.writer.live_kv());
                    cat.lookup(format!("lookup:{generation}:{i}"), facts)
                }
                1 | 5 => cat.point_join(inserted[i % inserted.len()].0),
                3 => cat.tc_view(),
                6 => Variant {
                    key: "two_cycles".into(),
                    req: Request::Union(cat.two_cycles.clone(), EvalStrategy::Auto),
                    expect: Expect::TwoCycles,
                },
                _ => cat.cq("triangle", &cat.triangle, Expect::Triangle),
            });
        }
        // One scratch program per round, a fixed 1/33 of the reads. It
        // returns the whole base with the few facts it derives (see
        // `datalog.eval.scratch_us`), so it carries most of the round's
        // read time.
        burst.push(cat.reach(dag_node(rng.below(E_BLOCKS), rng.below(E_BLOCK / 2))));
        let mut reads_us = 0.0;
        for v in &burst {
            reads_us += client.read(v, timed, traced)?;
        }
        Ok(writer_ms + reads_us / 1e3)
    };
    for _ in 0..WARMUP_ROUNDS {
        round(&mut client, false, false)?;
    }
    metrics.e2e("peak_rss_mb", crate::peak_rss_mb()?);
    client.run = Run::default();
    let start = Instant::now();
    let mut traced = false;
    while start.elapsed().as_secs_f64() < seconds {
        // A traced run measures its first half untraced, for the
        // overhead comparison, and its second half traced.
        traced = trace && start.elapsed().as_secs_f64() >= seconds / 2.0;
        let ms = round(&mut client, true, traced)?;
        if traced {
            client.run.traced_round_ms.push(ms);
        } else {
            client.run.round_ms.push(ms);
        }
    }
    if trace && !traced {
        return Err("the run ended before its traced half; raise --seconds".into());
    }
    if client.audit_bytes(&mut audit)? != pinned {
        return Err("a pinned answer changed after later publications".into());
    }
    client.final_checks()?;
    client.write_spans("serve_write", seed);
    Ok(client.report(metrics, trace))
}
