//! The traced replay: each request re-run in-process through the public
//! function of every layer, in the order `Engine::answer` (and its
//! `LOAD`/`PREPARE`/`PERSIST`/`SUM` siblings) calls them, with a span
//! around each call.
//!
//! The replay keeps its own sessions, its own [`QueryCache`] and its own
//! [`Storage`], fed the same requests in the same order as the engine it
//! shadows, so its responses must be bit-identical to the engine's: the
//! traced run checks that on every request, which catches drift between
//! this file and `crates/engine/src/engine.rs`.

use cqa_agg::AggError;
use cqa_analyze::{analyze_source, AbsintMemo, AnalyzerConfig, Statement, SumStmt, Verdict};
use cqa_approx::sample::Witness;
use cqa_arith::Rat;
use cqa_core::Database;
use cqa_engine::{CacheEntry, CacheKey, Command, QueryCache, Response, Storage, MC_SEED};
use cqa_geom::VolumeError;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{
    parse_formula_with, Arena, Batch, BatchScratch, CompiledMatrix, ConstraintClass, Formula,
    SlotMap, BATCH_LANES,
};
use cqa_poly::Var;
use cqa_qe::plan::{Method, PlanInputs, SubplanStore};
use cqa_qe::{QeError, SimplifyMemo};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The spans of one request: `(stage, nanoseconds)` in call order.
#[derive(Default)]
pub struct Spans(pub Vec<(&'static str, u64)>);

impl Spans {
    /// Runs `f` inside a span named `stage`.
    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.push((stage, t.elapsed().as_nanos() as u64));
        out
    }
}

/// Work counts the replay observes at the layer boundaries.
#[derive(Default, Debug)]
pub struct Counts {
    pub plan_fm: u64,
    pub plan_lw: u64,
    pub plan_ch: u64,
    /// Cold misses that reached the absint gate, and those it decided.
    pub absint_runs: u64,
    pub static_skips: u64,
    /// Atoms of each eliminated quantifier-free output.
    pub output_atoms: Vec<u64>,
    pub volume_calls: u64,
    pub geom_steps: u64,
    pub geom_budget_trips: u64,
    pub fill_ns: u64,
    pub fill_lanes: u64,
    pub eval_ns: u64,
    pub eval_lanes: u64,
    pub box_skipped_lanes: u64,
    pub fast_lanes: u64,
    pub exact_lanes: u64,
}

/// The engine's per-request deadline (`EngineConfig::default().timeout`).
const REQUEST_TIMEOUT: Duration = Duration::from_millis(2_000);
const DEFAULT_EPS: f64 = 0.05;
const DEFAULT_DELTA: f64 = 0.05;

#[derive(Clone)]
struct Prepared {
    src: String,
    params: Vec<String>,
    memo: Option<(u64, CacheKey)>,
}

/// One replayed session: the state `cqa_engine::Session` keeps.
#[derive(Default)]
pub struct ReplaySession {
    loaded_src: String,
    db: Database,
    sums: HashMap<String, SumStmt>,
    prepared: HashMap<String, Prepared>,
    arena: Arena,
    simp: SimplifyMemo,
    db_gen: u64,
    absint: AbsintMemo,
    durable: Option<String>,
}

impl ReplaySession {
    /// Interned nodes and intern calls of this session's arena.
    pub fn arena_counts(&self) -> (u64, u64) {
        let s = self.arena.stats();
        (s.nodes, s.intern_calls)
    }
}

/// The replay's counterpart of `Engine`: cache, storage and counters.
pub struct Replay {
    pub cache: QueryCache,
    subplan_insert: SubplanInsert,
    pub storage: Option<Storage>,
    pub counts: Counts,
}

/// The cache-size currency of `cqa_engine`'s (crate-private)
/// `formula_bytes`, mirrored so the replay's cache charges and evicts
/// exactly like the engine's.
fn formula_bytes(f: &Formula) -> usize {
    let mut bytes = 0usize;
    f.visit(&mut |g| {
        bytes += 48;
        if let Formula::Atom(a) = g {
            bytes += 96 * a.poly.num_terms().max(1);
        }
    });
    bytes
}

/// Stores one quantifier-block result in a cache's subplan namespace.
type SubplanInsert = Box<dyn Fn(&QueryCache, CacheKey, &Formula, &[Var])>;

/// `cqa_engine`'s `SubplanEntry` has public fields but is not re-exported,
/// so the replay cannot name it to build one. It decodes one through the
/// public warm-file codec and clones it, fields replaced, for every store.
fn subplan_insert() -> SubplanInsert {
    use cqa_engine::storage::{wal::checksum64, warm};
    let mut text = String::from("CQAWARM1\nS 00000000000000000000000000000001 0 -\ntrue\n");
    let sum = checksum64(text.as_bytes());
    text.push_str(&format!("#sum {sum:016x}\n"));
    let scratch = QueryCache::new(1 << 20);
    warm::decode_into(&text, Path::new("prototype"), &scratch).expect("prototype decodes");
    let prototype = scratch
        .get_subplan(CacheKey { hash: 1, dim: 0 })
        .expect("prototype subplan is cached");
    Box::new(move |cache, key, qf, params| {
        let mut entry = (*prototype).clone();
        entry.qf = qf.clone();
        entry.params = params.to_vec();
        entry.bytes = formula_bytes(qf);
        cache.insert_subplan(key, entry);
    })
}

struct CacheSubplans<'a> {
    cache: &'a QueryCache,
    insert: &'a SubplanInsert,
}

impl SubplanStore for CacheSubplans<'_> {
    fn lookup(&self, hash: u128, dim: u32) -> Option<(Formula, Vec<Var>)> {
        self.cache
            .get_subplan(CacheKey { hash, dim })
            .map(|e| (e.qf.clone(), e.params.clone()))
    }

    fn store(&self, hash: u128, dim: u32, qf: &Formula, params: &[Var]) {
        (self.insert)(self.cache, CacheKey { hash, dim }, qf, params);
    }
}

enum Answer {
    Exact(Rat),
    Approx {
        estimate: Rat,
        samples: usize,
        reason: &'static str,
    },
}

impl Replay {
    /// A replay with the engine's default cache; with `data_dir`, the
    /// storage is opened and the warm file loaded inside spans.
    pub fn open(data_dir: Option<&Path>, spans: &mut Spans) -> Replay {
        let cfg = cqa_engine::EngineConfig::default();
        let cache = QueryCache::with_shards(cfg.cache_bytes, cfg.cache_shards);
        let storage = data_dir.map(|dir| {
            let st = spans.time("storage.open", || {
                Storage::open(dir, cfg.snapshot_every).expect("replay data directory opens")
            });
            spans.time("storage.load_warm", || st.load_warm(&cache));
            st
        });
        Replay {
            cache,
            subplan_insert: subplan_insert(),
            storage,
            counts: Counts::default(),
        }
    }

    fn budget() -> EvalBudget {
        EvalBudget::unlimited().with_deadline(REQUEST_TIMEOUT)
    }

    /// Replays one command, as `Engine::dispatch` would execute it.
    pub fn dispatch(
        &mut self,
        s: &mut ReplaySession,
        cmd: &Command,
        spans: &mut Spans,
    ) -> Response {
        match cmd {
            Command::Load { program: Some(src) } => self.load(s, src, true, spans),
            Command::Prepare { name, query } => self.prepare(s, name, query, spans),
            Command::Exec { name, eps, delta } => self.exec(s, name, *eps, *delta, spans),
            Command::Batch { specs: Some(text) } => self.batch(s, text, spans),
            Command::Volume { query } => self.volume(s, query, spans),
            Command::Sum { name } => self.sum(s, name, spans),
            Command::Persist { name } => self.persist(s, name, spans),
            Command::Close => Response::ok("CLOSE goodbye"),
            other => panic!("the benchmark never replays {other:?}"),
        }
    }

    fn load(
        &mut self,
        s: &mut ReplaySession,
        src: &str,
        commit: bool,
        spans: &mut Spans,
    ) -> Response {
        let mut candidate = s.loaded_src.clone();
        candidate.push_str(src);
        if !candidate.ends_with('\n') {
            candidate.push('\n');
        }
        let (program, analysis) = spans.time("analyze.source", || {
            analyze_source(&candidate, &AnalyzerConfig::default())
        });
        if analysis.has_errors() {
            return Response::err(
                "lint",
                format!(
                    "{} error(s), {} warning(s); session unchanged",
                    analysis.error_count(),
                    analysis.warning_count()
                ),
            )
            .with_body(&analysis.render(&candidate, "LOAD"));
        }
        let db = match spans.time("core.database", || program.to_database()) {
            Ok(db) => db,
            Err(e) => return Response::err("load", e),
        };
        let (mut rels, mut queries) = (0usize, 0usize);
        s.sums.clear();
        for stmt in &program.statements {
            match stmt {
                Statement::Rel(_) => rels += 1,
                Statement::Query(_) => queries += 1,
                Statement::Sum(sum) => {
                    s.sums.insert(sum.name.clone(), sum.clone());
                }
            }
        }
        if commit {
            if let (Some(name), Some(storage)) = (&s.durable, &self.storage) {
                let chunk = &candidate[s.loaded_src.len()..];
                if let Err(e) =
                    spans.time("storage.append_load", || storage.append_load(name, chunk))
                {
                    return Response::err(
                        "storage",
                        format!("commit failed, session unchanged: {e}"),
                    );
                }
            }
        }
        s.db = db;
        s.db_gen += 1;
        s.loaded_src = candidate;
        Response::ok(format!(
            "LOAD statements={} rels={rels} queries={queries} sums={} warnings={}",
            program.statements.len(),
            s.sums.len(),
            analysis.warning_count()
        ))
    }

    fn prepare(
        &mut self,
        s: &mut ReplaySession,
        name: &str,
        query: &str,
        spans: &mut Spans,
    ) -> Response {
        let mut probe = s.db.vars().clone();
        let f = match spans.time("logic.parse", || parse_formula_with(query, &mut probe)) {
            Ok(f) => f,
            Err(e) => return Response::err("parse", e.to_string()),
        };
        let mut params: Vec<String> = f.free_vars().into_iter().map(|v| probe.name(v)).collect();
        params.sort();
        let mut candidate = s.loaded_src.clone();
        candidate.push_str(&format!(
            "query __prep_{name}({}) := {query}\n",
            params.join(", ")
        ));
        let (_, analysis) = spans.time("analyze.source", || {
            analyze_source(&candidate, &AnalyzerConfig::default())
        });
        if analysis.has_errors() {
            return Response::err(
                "lint",
                format!("{} error(s); not prepared", analysis.error_count()),
            )
            .with_body(&analysis.render(&candidate, "PREPARE"));
        }
        let report = analysis.reports.last();
        let fragment = report.map(|r| r.fragment.fragment_name()).unwrap_or("FO");
        let plan_tag = match spans.time("core.expand", || s.db.expand(&f)) {
            Ok(expanded) => {
                let inputs = report
                    .and_then(|r| {
                        r.cost
                            .as_ref()
                            .map(|c| cqa_analyze::planner_inputs(&r.fragment, c))
                    })
                    .unwrap_or_else(|| PlanInputs::measure(&expanded));
                let plan = spans.time("qe.plan", || cqa_qe::plan::plan(&expanded, &inputs));
                format!(" plan={}", plan.describe())
            }
            Err(_) => String::new(),
        };
        s.prepared.insert(
            name.to_string(),
            Prepared {
                src: query.to_string(),
                params: params.clone(),
                memo: None,
            },
        );
        let shown = if params.is_empty() {
            "-".to_string()
        } else {
            params.join(",")
        };
        Response::ok(format!(
            "PREPARE {name} params={shown} fragment={fragment}{plan_tag}"
        ))
    }

    fn persist(&mut self, s: &mut ReplaySession, name: &str, spans: &mut Spans) -> Response {
        let Some(storage) = &self.storage else {
            return Response::err(
                "storage",
                "durable storage is disabled (start cqa-serve with --data-dir)",
            );
        };
        if s.durable.is_some() || !s.loaded_src.is_empty() {
            return Response::err(
                "storage",
                "session cannot attach (the benchmark never does this)",
            );
        }
        let src = spans.time("storage.database", || storage.database(name));
        let statements = if src.is_empty() {
            0
        } else {
            let r = self.load(s, &src, false, spans);
            if !r.is_ok() {
                return Response::err(
                    "storage",
                    format!("recovered source failed to replay: {}", r.header),
                );
            }
            s.loaded_src
                .lines()
                .filter(|l| !l.trim().is_empty())
                .count()
        };
        s.durable = Some(name.to_string());
        Response::ok(format!("PERSIST {name} statements={statements}"))
    }

    fn exec(
        &mut self,
        s: &mut ReplaySession,
        name: &str,
        eps: Option<f64>,
        delta: Option<f64>,
        spans: &mut Spans,
    ) -> Response {
        let Some(prep) = s.prepared.get(name) else {
            return Response::err("exec", format!("no prepared query `{name}` (use PREPARE)"));
        };
        let eps = eps.unwrap_or(DEFAULT_EPS);
        let delta = delta.unwrap_or(DEFAULT_DELTA);
        if let Some((db_gen, key)) = prep.memo {
            if db_gen == s.db_gen && eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0 {
                if let Some(entry) = spans.time("cache.get", || self.cache.get(key)) {
                    let budget = Self::budget();
                    return self.eval_entry(
                        &entry,
                        key.dim as usize,
                        eps,
                        delta,
                        &budget,
                        "EXEC",
                        name,
                        "hit",
                        spans,
                    );
                }
            }
        }
        let prep = prep.clone();
        let f = match spans.time("logic.parse", || {
            parse_formula_with(&prep.src, s.db.vars_mut())
        }) {
            Ok(f) => f,
            Err(e) => return Response::err("parse", e.to_string()),
        };
        let vars: Vec<Var> = prep
            .params
            .iter()
            .map(|p| s.db.vars_mut().intern(p))
            .collect();
        let mut memo_key = None;
        let resp = self.answer(
            s,
            &f,
            &vars,
            eps,
            delta,
            "EXEC",
            name,
            Some(&mut memo_key),
            spans,
        );
        if let Some(key) = memo_key {
            let db_gen = s.db_gen;
            if let Some(p) = s.prepared.get_mut(name) {
                p.memo = Some((db_gen, key));
            }
        }
        resp
    }

    fn batch(&mut self, s: &mut ReplaySession, specs: &str, spans: &mut Spans) -> Response {
        let mut body = Vec::new();
        let mut errors = 0usize;
        for line in specs.lines().filter(|l| !l.trim().is_empty()) {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap_or("");
            let eps = parts.next().and_then(|t| t.parse().ok());
            let delta = parts.next().and_then(|t| t.parse().ok());
            let inner = self.exec(s, name, eps, delta, spans);
            if !inner.is_ok() {
                errors += 1;
            }
            body.push(inner.header);
        }
        let mut resp = Response::ok(format!("BATCH n={} errors={errors}", body.len()));
        resp.body = body;
        resp
    }

    fn volume(&mut self, s: &mut ReplaySession, query: &str, spans: &mut Spans) -> Response {
        let f = match spans.time("logic.parse", || parse_formula_with(query, s.db.vars_mut())) {
            Ok(f) => f,
            Err(e) => return Response::err("parse", e.to_string()),
        };
        let mut vars: Vec<Var> = f.free_vars().into_iter().collect();
        vars.sort_by_key(|v| s.db.vars().name(*v));
        self.answer(
            s,
            &f,
            &vars,
            DEFAULT_EPS,
            DEFAULT_DELTA,
            "VOLUME",
            "-",
            None,
            spans,
        )
    }

    fn sum(&mut self, s: &mut ReplaySession, name: &str, spans: &mut Spans) -> Response {
        let Some(stmt) = s.sums.get(name) else {
            return Response::err("sum", format!("no loaded sum statement `{name}`"));
        };
        let budget = Self::budget();
        match spans.time("agg.sum", || {
            stmt.to_sum_term().eval_with_budget(&s.db, &budget)
        }) {
            Ok(v) => Response::ok(format!("SUM {name} value={v} steps={}", budget.steps())),
            Err(AggError::Budget(b)) => Response::err("budget", b.to_string()),
            Err(e) => Response::err("sum", e.to_string()),
        }
    }

    /// The `Engine::answer` pipeline, one span per layer call.
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &mut self,
        s: &mut ReplaySession,
        f: &Formula,
        vars: &[Var],
        eps: f64,
        delta: f64,
        verb: &str,
        name: &str,
        memo_key: Option<&mut Option<CacheKey>>,
        spans: &mut Spans,
    ) -> Response {
        if !(eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0) {
            return Response::err(
                "exec",
                format!("eps/delta must lie in (0,1), got {eps}/{delta}"),
            );
        }
        let budget = Self::budget();
        let expanded = match spans.time("core.expand", || s.db.expand(f)) {
            Ok(x) => x,
            Err(e) => return Response::err("exec", e.to_string()),
        };
        let fid = spans.time("logic.intern", || s.arena.intern(&expanded));
        let sid = spans.time("qe.simplify", || {
            cqa_qe::simplify_id(&mut s.arena, fid, &mut s.simp)
        });
        let key = CacheKey {
            hash: spans.time("logic.hash", || {
                s.arena.canonical_hash_for_params(sid, vars)
            }),
            dim: vars.len() as u32,
        };
        if let Some(slot) = memo_key {
            *slot = Some(key);
        }
        let (entry, cache_tag) = match spans.time("cache.get", || self.cache.get(key)) {
            Some(e) => (Some(e), "hit"),
            None => {
                self.counts.absint_runs += 1;
                let facts = spans.time("analyze.absint", || {
                    cqa_analyze::analyze_id(&s.arena, sid, &mut s.absint)
                });
                let sid_class = s.arena.meta(sid).class;
                let skip_safe =
                    sid_class != ConstraintClass::Polynomial || s.arena.meta(sid).quantifier_free;
                let static_qf = match facts.verdict {
                    Verdict::Unsat if skip_safe => Some(Formula::False),
                    Verdict::Valid if skip_safe => Some(Formula::True),
                    _ => None,
                };
                let static_skip = static_qf.is_some();
                self.counts.static_skips += static_skip as u64;
                let mc_box = spans.time("analyze.absint", || {
                    cqa_analyze::absint::unit_box(&facts.env, vars)
                });
                let eliminated = match static_qf {
                    Some(qf) => Ok(qf),
                    None => {
                        let meta = s.arena.meta(sid);
                        let mut inputs = PlanInputs {
                            atoms: meta.atom_count(),
                            quantifiers: meta.quantifiers,
                            pruned_atoms: None,
                            box_volume: Some(cqa_analyze::absint::box_volume(&facts.env, vars)),
                            vc_bound: None,
                        };
                        let pid = spans.time("analyze.prune", || {
                            cqa_analyze::prune_id(&mut s.arena, sid, &mut s.absint, &mut s.simp)
                        });
                        inputs.pruned_atoms = Some(s.arena.meta(pid).atom_count());
                        let simplified = spans.time("logic.extern", || s.arena.extern_formula(sid));
                        let qeplan =
                            spans.time("qe.plan", || cqa_qe::plan::plan(&simplified, &inputs));
                        *match qeplan.method {
                            Method::FourierMotzkin => &mut self.counts.plan_fm,
                            Method::LoosWeispfenning => &mut self.counts.plan_lw,
                            Method::Hoermander => &mut self.counts.plan_ch,
                        } += 1;
                        let store = CacheSubplans {
                            cache: &self.cache,
                            insert: &self.subplan_insert,
                        };
                        spans.time("qe.eliminate", || {
                            cqa_qe::plan::eliminate_with_plan(
                                &simplified,
                                &qeplan,
                                &budget,
                                &mut s.arena,
                                &store,
                            )
                        })
                    }
                };
                match eliminated {
                    Ok(qf) => {
                        let qf_id = spans.time("logic.intern", || s.arena.intern(&qf));
                        let qf_id = spans.time("qe.simplify", || {
                            cqa_qe::simplify_id(&mut s.arena, qf_id, &mut s.simp)
                        });
                        self.counts
                            .output_atoms
                            .push(s.arena.meta(qf_id).atom_count());
                        let kernel = match spans.time("logic.compile", || {
                            CompiledMatrix::compile_arena(
                                &s.arena,
                                qf_id,
                                &SlotMap::from_vars(vars),
                            )
                        }) {
                            Ok(k) => k,
                            Err(e) => {
                                return Response::err(
                                    "exec",
                                    format!("eliminated matrix is not compilable: {e:?}"),
                                )
                            }
                        };
                        let qf = spans.time("logic.extern", || s.arena.extern_formula(qf_id));
                        let class = if static_skip {
                            sid_class
                        } else {
                            s.arena.meta(qf_id).class
                        };
                        let fragment = match class {
                            ConstraintClass::Polynomial => "FO+POLY",
                            _ => "FO+LIN",
                        };
                        let bytes = formula_bytes(&qf) + 64 * kernel.atom_count();
                        let entry = spans.time("cache.insert", || {
                            self.cache.insert(
                                key,
                                CacheEntry {
                                    qf,
                                    qf_vars: vars.to_vec(),
                                    kernel,
                                    class,
                                    fragment,
                                    bytes,
                                    mc_box,
                                },
                            )
                        });
                        if let Some(storage) = &self.storage {
                            spans.time("storage.flush_warm", || storage.flush_warm(&self.cache));
                        }
                        (Some(entry), "miss")
                    }
                    Err(QeError::Budget(_)) => (None, "miss"),
                    Err(e) => return Response::err("qe", e.to_string()),
                }
            }
        };
        match &entry {
            Some(entry) => self.eval_entry(
                entry,
                vars.len(),
                eps,
                delta,
                &budget,
                verb,
                name,
                cache_tag,
                spans,
            ),
            None => {
                let simplified = spans.time("logic.extern", || s.arena.extern_formula(sid));
                let answer = spans.time("qe.pointwise", || {
                    Self::mc_pointwise(&simplified, vars, eps, delta, &budget)
                });
                Self::render(answer, verb, name, cache_tag, eps, delta, &budget)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_entry(
        &mut self,
        entry: &Arc<CacheEntry>,
        dim: usize,
        eps: f64,
        delta: f64,
        budget: &EvalBudget,
        verb: &str,
        name: &str,
        cache_tag: &str,
        spans: &mut Spans,
    ) -> Response {
        let answer = if entry.class == ConstraintClass::Polynomial {
            self.mc_over_kernel(entry, dim, eps, delta, "nonlinear", spans)
        } else {
            self.counts.volume_calls += 1;
            let before = budget.steps();
            let v = spans.time("geom.volume", || {
                cqa_geom::volume_in_unit_box_with_budget(&entry.qf, &entry.qf_vars, budget)
            });
            self.counts.geom_steps += budget.steps() - before;
            match v {
                Ok(v) => Ok(Answer::Exact(v)),
                Err(VolumeError::Budget(_)) => {
                    self.counts.geom_budget_trips += 1;
                    self.mc_over_kernel(entry, dim, eps, delta, "volume-budget", spans)
                }
                Err(e) => return Response::err("volume", e.to_string()),
            }
        };
        Self::render(answer, verb, name, cache_tag, eps, delta, budget)
    }

    fn render(
        answer: Result<Answer, Response>,
        verb: &str,
        name: &str,
        cache_tag: &str,
        eps: f64,
        delta: f64,
        budget: &EvalBudget,
    ) -> Response {
        match answer {
            Ok(Answer::Exact(v)) => Response::ok(format!(
                "{verb} {name} status=exact value={v} cache={cache_tag} steps={}",
                budget.steps()
            )),
            Ok(Answer::Approx {
                estimate,
                samples,
                reason,
            }) => Response::ok(format!(
                "{verb} {name} status=approx value={estimate} eps={eps} delta={delta} \
                 samples={samples} reason={reason} cache={cache_tag}"
            )),
            Err(resp) => resp,
        }
    }

    fn sample_count(eps: f64, delta: f64) -> usize {
        (((2.0 / delta).ln() / (2.0 * eps * eps)).ceil() as usize).max(1) + 1
    }

    /// The engine's batched Monte Carlo sweep, with the draw (`approx`),
    /// the certified-box prefilter and the kernel sweep (`logic`) timed
    /// separately.
    fn mc_over_kernel(
        &mut self,
        entry: &Arc<CacheEntry>,
        dim: usize,
        eps: f64,
        delta: f64,
        reason: &'static str,
        spans: &mut Spans,
    ) -> Result<Answer, Response> {
        let samples = Self::sample_count(eps, delta);
        let mut w = Witness::new(MC_SEED);
        let mut batch = Batch::new(dim);
        let mut sub = Batch::new(dim);
        let mut keep: Vec<usize> = Vec::new();
        let mut scratch = BatchScratch::new();
        let mut hits = 0usize;
        let mut done = 0usize;
        let c = &mut self.counts;
        while done < samples {
            batch.set_len((samples - done).min(BATCH_LANES));
            let t = Instant::now();
            w.fill_unit_columns(&mut batch, 0, dim);
            let ns = t.elapsed().as_nanos() as u64;
            spans.0.push(("approx.fill", ns));
            c.fill_ns += ns;
            c.fill_lanes += batch.len() as u64;
            let eval_on = match entry.mc_box.as_deref() {
                Some(bx) => spans.time("approx.box_filter", || {
                    keep.clear();
                    for lane in 0..batch.len() {
                        if (0..dim).all(|d| {
                            let v = batch.value(d, lane);
                            v >= bx[d].0 && v <= bx[d].1
                        }) {
                            keep.push(lane);
                        }
                    }
                    c.box_skipped_lanes += (batch.len() - keep.len()) as u64;
                    if keep.is_empty() {
                        None
                    } else if keep.len() == batch.len() {
                        Some(&batch)
                    } else {
                        sub.set_len(keep.len());
                        for d in 0..dim {
                            let col = sub.col_mut(d);
                            for (j, &lane) in keep.iter().enumerate() {
                                col[j] = batch.value(d, lane);
                            }
                        }
                        Some(&sub)
                    }
                }),
                None => Some(&batch),
            };
            if let Some(b) = eval_on {
                let exact = |lane: usize, slot: usize| {
                    Rat::from_f64(b.value(slot, lane)).expect("finite sample coordinate")
                };
                let t = Instant::now();
                let r = entry.kernel.eval_batch(b, &exact, &mut scratch);
                let ns = t.elapsed().as_nanos() as u64;
                spans.0.push(("logic.eval_batch", ns));
                c.eval_ns += ns;
                c.eval_lanes += b.len() as u64;
                c.fast_lanes += r.fast_lanes as u64;
                c.exact_lanes += r.exact_lanes as u64;
                hits += r.mask.count();
            }
            done += batch.len();
        }
        Ok(Answer::Approx {
            estimate: Rat::new((hits as i64).into(), (samples as i64).into()),
            samples,
            reason,
        })
    }

    fn mc_pointwise(
        f: &Formula,
        vars: &[Var],
        eps: f64,
        delta: f64,
        budget: &EvalBudget,
    ) -> Result<Answer, Response> {
        let samples = Self::sample_count(eps, delta);
        let mut w = Witness::new(MC_SEED);
        let mut hits = 0usize;
        for _ in 0..samples {
            let point = w.uniform_unit_point(vars.len());
            let mut ground = f.clone();
            for (v, c) in vars.iter().zip(&point) {
                ground = ground.subst_rat(*v, c);
            }
            match cqa_qe::decide_sentence_with_budget(&ground, budget) {
                Ok(true) => hits += 1,
                Ok(false) => {}
                Err(QeError::Budget(b)) => return Err(Response::err("budget", b.to_string())),
                Err(e) => return Err(Response::err("qe", e.to_string())),
            }
        }
        Ok(Answer::Approx {
            estimate: Rat::new((hits as i64).into(), (samples as i64).into()),
            samples,
            reason: "qe-budget",
        })
    }
}
