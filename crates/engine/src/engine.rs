//! The engine core: session state and command execution.

use crate::cache::{
    formula_bytes, CacheEntry, CacheHit, CacheKey, QueryCache, DEFAULT_CACHE_SHARDS,
};
use crate::protocol::{parse_exec_args, Command, Response};
use crate::stats::EngineStats;
use crate::storage::{Storage, StorageError};
use cqa_agg::AggError;
use cqa_analyze::{analyze_source, AnalyzerConfig, Statement, SumStmt};
use cqa_approx::sample::Witness;
use cqa_arith::Rat;
use cqa_core::Database;
use cqa_geom::VolumeError;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{
    parse_formula_with, Arena, ArenaStats, Batch, BatchScratch, CompiledMatrix, ConstraintClass,
    Formula, LaneStats, SlotMap, BATCH_LANES,
};
use cqa_poly::Var;
use cqa_qe::{QeError, SimplifyMemo};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the deterministic witness behind every degraded (ε, δ) answer:
/// approximate responses are reproducible across requests, sessions and
/// servers (and bit-identical under any concurrency level).
pub const MC_SEED: u64 = 0xC0A_5E55;

/// Arena node count above which a session's formula arena and its
/// simplify and absint memos are dropped after a command. They grow with
/// every distinct formula the session sees and nothing else shrinks them;
/// cross-request sharing lives in the engine's cache, so a fresh arena
/// costs a long-lived session only some re-interning.
const SESSION_MEMO_NODES: u64 = 1 << 10;

/// Engine configuration (server-wide).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads executing commands. With the reactor front end this
    /// no longer bounds concurrent connections — idle sessions cost no
    /// worker — only how many commands execute at once.
    pub workers: usize,
    /// Maximum concurrently open sessions; the accept path answers
    /// `ERR busy` beyond this.
    pub max_sessions: usize,
    /// Prepared-query cache byte budget.
    pub cache_bytes: usize,
    /// Number of independent cache lock domains (rounded to a power of
    /// two). Answers and the warm-start file are shard-count-independent;
    /// only contention changes.
    pub cache_shards: usize,
    /// Per-request wall-clock budget (`None` = no deadline).
    pub timeout: Option<Duration>,
    /// Per-request cooperative step cap (`None` = unlimited).
    pub max_steps: Option<u64>,
    /// Default ε for degraded (ε, δ) answers.
    pub default_eps: f64,
    /// Default δ for degraded (ε, δ) answers.
    pub default_delta: f64,
    /// Socket read timeout: an idle/stalled client is disconnected after
    /// this long so it cannot hold a pool slot forever.
    pub idle_timeout: Duration,
    /// Socket write timeout: a client that stops draining its responses
    /// is disconnected after this long (counted in `write_errors`)
    /// instead of hanging a worker inside a blocking write.
    pub write_timeout: Duration,
    /// Maximum bytes accepted for one dot-terminated request body
    /// (`LOAD`/`BATCH`); larger bodies answer `ERR proto body too large`.
    pub max_body_bytes: usize,
    /// Program source `LOAD`ed into every fresh session (`cqa-serve
    /// --preload`). Must be analyzer-clean — the server validates it at
    /// startup before accepting connections.
    pub preload: Option<String>,
    /// Whether the interval abstract-interpretation pass runs on request
    /// formulas: statically decided queries skip QE, and Monte Carlo
    /// lanes provably outside the derived bounding box skip kernel
    /// evaluation. Verdicts only skip or shrink work — answers are
    /// bit-identical with the pass off.
    pub absint: bool,
    /// Whether the cost-based QE planner runs on cache misses: per query
    /// it picks the elimination method (FM/LW/Hörmander), the variable
    /// order and early DNF pruning from the static cost model and absint
    /// certificates, and memoizes quantifier-block results in the shared
    /// cache so structurally overlapping queries share elimination work
    /// (see `cqa_qe::plan`). Off (`--no-plan`) falls back to the fixed
    /// class dispatcher — the parity oracle; answers are bit-identical
    /// either way.
    pub plan: bool,
    /// Data directory for durable storage (WAL + snapshot + cache
    /// warm-start). `None` keeps the engine fully in-memory; `Some` turns
    /// on the `PERSIST` wire surface (construct via
    /// [`Engine::with_storage`] so recovery runs before any connection).
    pub data_dir: Option<std::path::PathBuf>,
    /// Compaction cadence: after this many WAL records the durable
    /// sources are folded into a fresh snapshot and the log truncated.
    pub snapshot_every: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 4,
            max_sessions: 1024,
            cache_bytes: 8 << 20,
            cache_shards: DEFAULT_CACHE_SHARDS,
            timeout: Some(Duration::from_millis(2_000)),
            max_steps: None,
            default_eps: 0.05,
            default_delta: 0.05,
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            max_body_bytes: 1 << 20,
            preload: None,
            absint: true,
            plan: true,
            data_dir: None,
            snapshot_every: 64,
        }
    }
}

/// A named prepared query. The formula is re-parsed against the session's
/// current variable interning at `EXEC` time (parsing is micro-cheap; the
/// expensive artifacts — QE output and compiled kernel — live in the
/// shared cache under the canonical key). After the first `EXEC`, the
/// canonical cache key itself is memoized alongside the source — warm
/// repeats skip parse/expand/simplify entirely and go straight to the
/// shared cache — guarded by the session's database generation so any
/// `LOAD` (which can redefine relations the query expands) invalidates it.
#[derive(Clone, Debug)]
pub struct Prepared {
    src: String,
    params: Vec<String>,
    /// `(db_gen, key)` from the last full `EXEC` of this query.
    memo: Option<(u64, CacheKey)>,
}

/// Per-connection state: the session database built from `LOAD`ed
/// programs, loaded Σ-terms, and named prepared queries. Sessions are
/// owned by one worker thread at a time; all cross-session sharing goes
/// through the [`Engine`]'s cache and stats.
#[derive(Default)]
pub struct Session {
    /// Accumulated, analyzer-accepted `.cqa` source.
    loaded_src: String,
    /// Database rebuilt from `loaded_src` after each successful `LOAD`.
    db: Database,
    /// `sum` statements by name, for `SUM`.
    sums: HashMap<String, SumStmt>,
    /// Prepared queries by name.
    prepared: HashMap<String, Prepared>,
    /// The session's hash-consed formula arena: every relation-expanded
    /// request formula and every QE output is interned here, so repeated
    /// requests share structure and the memoized simplifier below does
    /// each rewrite once per distinct node.
    arena: Arena,
    /// `FormulaId`-keyed memo table for [`cqa_qe::simplify_id`].
    simp: SimplifyMemo,
    /// Bumped on every successful `LOAD` (the only operation that swaps
    /// `db`); prepared-query memos are valid only for the generation they
    /// were computed under.
    db_gen: u64,
    /// `FormulaId`-keyed memo table for the interval abstract
    /// interpretation (verdicts and bounds certificates per node).
    absint: cqa_analyze::AbsintMemo,
    /// Arena counters as of the last flush into the engine-wide `STATS`
    /// aggregates (sessions report monotone deltas after each command).
    reported: ArenaStats,
    /// When `Some(name)`, the session is attached (via `PERSIST`) to the
    /// named durable database: every accepted `LOAD` is WAL-committed
    /// before the session mutates.
    durable: Option<String>,
}

impl Session {
    /// The session database (primarily for tests).
    pub fn db(&self) -> &Database {
        &self.db
    }
}

/// The shared engine: configuration, prepared-query cache, counters.
pub struct Engine {
    /// Service configuration.
    pub cfg: EngineConfig,
    /// The shared prepared-query cache.
    pub cache: QueryCache,
    /// Service counters and latency histograms.
    pub stats: EngineStats,
    /// The durable layer, when the engine was opened with a data
    /// directory ([`Engine::with_storage`]); `None` = in-memory only.
    pub storage: Option<Arc<Storage>>,
    started: Instant,
}

/// The planner's [`cqa_qe::plan::SubplanStore`] backed by the shared
/// [`QueryCache`]: quantifier-block QE results live in the cache's subplan
/// namespace (kind-separated from whole-query entries, so the two can
/// never collide — see `cache.rs`), making elimination sharing cross-query
/// *and* cross-session.
struct CacheSubplans<'a> {
    cache: &'a QueryCache,
}

impl cqa_qe::plan::SubplanStore for CacheSubplans<'_> {
    fn lookup(&self, hash: u128, dim: u32) -> Option<(Formula, Vec<Var>)> {
        self.cache
            .get_subplan(CacheKey { hash, dim })
            .map(|e| (e.qf.clone(), e.params.clone()))
    }

    fn store(&self, hash: u128, dim: u32, qf: &Formula, params: &[Var]) {
        self.cache.insert_subplan(
            CacheKey { hash, dim },
            crate::cache::SubplanEntry {
                qf: qf.clone(),
                params: params.to_vec(),
                bytes: formula_bytes(qf),
            },
        );
    }
}

/// The wire header of an exact `EXEC`/`VOLUME` answer.
fn exact_response(verb: &str, name: &str, v: &Rat, cache_tag: &str, steps: u64) -> Response {
    Response::ok(format!(
        "{verb} {name} status=exact value={v} cache={cache_tag} steps={steps}"
    ))
}

/// How an `EXEC`/`VOLUME` answer was produced.
enum Answer {
    Exact(Rat),
    Approx {
        estimate: Rat,
        eps: f64,
        delta: f64,
        samples: usize,
        reason: &'static str,
    },
}

impl Engine {
    /// A fresh engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            cache: QueryCache::with_shards(cfg.cache_bytes, cfg.cache_shards),
            stats: EngineStats::default(),
            cfg,
            storage: None,
            started: Instant::now(),
        }
    }

    /// A fresh engine with recovery run: when `cfg.data_dir` is set, the
    /// data directory is opened and replayed (snapshot, then WAL, torn
    /// tail truncated) and the cache warm-start file loaded — all before
    /// this returns, so by the time a server built on this engine accepts
    /// its first connection every durable database is recovered and the
    /// prepared-query cache is warm. With no `data_dir` this is exactly
    /// [`Engine::new`].
    pub fn with_storage(cfg: EngineConfig) -> Result<Engine, StorageError> {
        let mut engine = Engine::new(cfg);
        if let Some(dir) = engine.cfg.data_dir.clone() {
            let storage = Arc::new(Storage::open(&dir, engine.cfg.snapshot_every)?);
            storage.load_warm(&engine.cache);
            engine.storage = Some(storage);
        }
        Ok(engine)
    }

    /// Opens a session (counted in `STATS`), pre-`LOAD`ing the configured
    /// preamble program when one is set.
    pub fn open_session(&self) -> Session {
        self.stats.sessions.fetch_add(1, Ordering::Relaxed);
        let mut session = Session::default();
        if let Some(src) = &self.cfg.preload {
            let r = self.load(&mut session, src);
            debug_assert!(r.is_ok(), "preload must be validated at startup: {r:?}");
        }
        session
    }

    /// A fresh per-request budget from the configured caps.
    pub fn request_budget(&self) -> EvalBudget {
        let mut b = EvalBudget::unlimited();
        if let Some(t) = self.cfg.timeout {
            b = b.with_deadline(t);
        }
        if let Some(n) = self.cfg.max_steps {
            b = b.with_max_steps(n);
        }
        b
    }

    /// Executes one command against a session, recording latency,
    /// in-flight and command counters. `CLOSE`/`SHUTDOWN` only produce
    /// their acknowledgement here; the connection/listener layer acts on
    /// them.
    pub fn dispatch(&self, session: &mut Session, cmd: Command) -> Response {
        let kind = cmd.kind();
        self.stats.commands.fetch_add(1, Ordering::Relaxed);
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let resp = match cmd {
            Command::Load { program: None } => {
                Response::err("proto", "LOAD body missing (connection layer bug)")
            }
            Command::Load { program: Some(src) } => self.load(session, &src),
            Command::Prepare { name, query } => self.prepare(session, &name, &query),
            Command::Exec { name, eps, delta } => self.exec(session, &name, eps, delta),
            Command::Batch { specs: None } => {
                Response::err("proto", "BATCH body missing (connection layer bug)")
            }
            Command::Batch { specs: Some(text) } => self.batch(session, &text),
            Command::Volume { query } => self.volume(session, &query),
            Command::Sum { name } => self.sum(session, &name),
            Command::Persist { name } => self.persist(session, &name),
            Command::Stats => self.render_stats(),
            Command::Close => Response::ok("CLOSE goodbye"),
            Command::Shutdown => {
                // Last chance to persist the cache before the process goes
                // away (crash-killed processes rely on the per-miss
                // flushes instead).
                self.flush_warm();
                Response::ok("SHUTDOWN stopping")
            }
        };
        let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.stats.latency[kind.index()].record(us);
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.flush_arena_stats(session);
        if session.arena.stats().nodes > SESSION_MEMO_NODES {
            self.reset_session_memos(session);
        }
        resp
    }

    /// Replaces the session's formula arena and its `FormulaId`-keyed
    /// simplify and absint memos with fresh ones, after flushing the
    /// arena's counters into `STATS`. Answers never depend on these memos
    /// (they are pure caches of per-node work), so a reset at any point
    /// leaves every later response bit-identical. Public so tests can
    /// reset mid-sequence; [`Self::dispatch`] resets past a fixed size.
    #[doc(hidden)]
    pub fn reset_session_memos(&self, session: &mut Session) {
        self.flush_arena_stats(session);
        session.arena = Arena::new();
        session.simp = SimplifyMemo::default();
        session.absint = cqa_analyze::AbsintMemo::default();
        session.reported = session.arena.stats();
    }

    /// Adds the session arena's counter growth since the last flush to the
    /// engine-wide IR aggregates. Arena counters are monotone, so the
    /// deltas are non-negative and the aggregates never double-count.
    fn flush_arena_stats(&self, session: &mut Session) {
        let now = session.arena.stats();
        let last = session.reported;
        self.stats
            .ir_nodes
            .fetch_add(now.nodes - last.nodes, Ordering::Relaxed);
        self.stats
            .ir_terms
            .fetch_add(now.terms - last.terms, Ordering::Relaxed);
        self.stats
            .ir_intern_calls
            .fetch_add(now.intern_calls - last.intern_calls, Ordering::Relaxed);
        session.reported = now;
    }

    /// `LOAD`: append the program text to the session source, run the full
    /// static-analysis gate, and only on a clean report rebuild the
    /// session database. A rejected `LOAD` leaves the session unchanged.
    pub fn load(&self, session: &mut Session, src: &str) -> Response {
        self.load_inner(session, src, true)
    }

    /// The `LOAD` core. `commit` distinguishes a fresh client `LOAD`
    /// (WAL-committed when the session is durable) from a `PERSIST`
    /// replay of already-logged history (which must not be re-logged).
    fn load_inner(&self, session: &mut Session, src: &str, commit: bool) -> Response {
        let mut candidate = session.loaded_src.clone();
        candidate.push_str(src);
        if !candidate.ends_with('\n') {
            candidate.push('\n');
        }
        let cfg = AnalyzerConfig::default();
        let (program, analysis) = analyze_source(&candidate, &cfg);
        if analysis.has_errors() {
            self.stats.lint_rejected.fetch_add(1, Ordering::Relaxed);
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
        let db = match program.to_database() {
            Ok(db) => db,
            Err(e) => return Response::err("load", e),
        };
        let mut rels = 0usize;
        let mut queries = 0usize;
        session.sums.clear();
        for stmt in &program.statements {
            match stmt {
                Statement::Rel(_) => rels += 1,
                Statement::Query(_) => queries += 1,
                Statement::Sum(s) => {
                    session.sums.insert(s.name.clone(), s.clone());
                }
            }
        }
        let sums = session.sums.len();
        // Durable sessions commit before they apply: the accepted chunk
        // (exactly the text appended to the session source, newline
        // normalization included) is WAL-appended and fsync'd first, and
        // a failed append leaves the session untouched — the mutation
        // then exists either everywhere or nowhere.
        if commit {
            if let (Some(name), Some(storage)) = (&session.durable, &self.storage) {
                let chunk = &candidate[session.loaded_src.len()..];
                if let Err(e) = storage.append_load(name, chunk) {
                    return Response::err(
                        "storage",
                        format!("commit failed, session unchanged: {e}"),
                    );
                }
            }
        }
        session.db = db;
        session.db_gen += 1;
        session.loaded_src = candidate;
        Response::ok(format!(
            "LOAD statements={} rels={rels} queries={queries} sums={sums} warnings={}",
            program.statements.len(),
            analysis.warning_count()
        ))
    }

    /// `PREPARE`: validate the formula through the same analyzer gate as a
    /// `query` statement (scope, schema, fragment), and store it under the
    /// name. The output columns are the free variables in interning order.
    pub fn prepare(&self, session: &mut Session, name: &str, query: &str) -> Response {
        // Probe-parse against a clone so a rejected PREPARE cannot pollute
        // the session's variable interning.
        let mut probe = session.db.vars().clone();
        let f = match parse_formula_with(query, &mut probe) {
            Ok(f) => f,
            Err(e) => return Response::err("parse", e.to_string()),
        };
        // Name-sorted parameter order: session-independent, so the cache
        // key (positional over params) is shared across sessions that
        // interned the variables in different orders.
        let mut params: Vec<String> = f.free_vars().into_iter().map(|v| probe.name(v)).collect();
        params.sort();
        // Run the full static gate on a synthetic `query` statement
        // appended to the accepted session source.
        let mut candidate = session.loaded_src.clone();
        candidate.push_str(&format!(
            "query __prep_{name}({}) := {query}\n",
            params.join(", ")
        ));
        let (_, analysis) = analyze_source(&candidate, &AnalyzerConfig::default());
        if analysis.has_errors() {
            self.stats.lint_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::err(
                "lint",
                format!("{} error(s); not prepared", analysis.error_count()),
            )
            .with_body(&analysis.render(&candidate, "PREPARE"));
        }
        let fragment = analysis
            .reports
            .last()
            .map(|r| r.fragment.fragment_name())
            .unwrap_or("FO");
        // Report the elimination plan the cold EXEC will follow: the
        // analyzer's cost model (with absint refinements when present) fed
        // through the planner. Purely informational — EXEC re-plans on the
        // session's own interning — but it lets clients see method/sharing
        // decisions at PREPARE time.
        let plan_tag = if self.cfg.plan {
            match session.db.expand(&f) {
                Ok(expanded) => {
                    let inputs = analysis
                        .reports
                        .last()
                        .and_then(|r| {
                            r.cost
                                .as_ref()
                                .map(|c| cqa_analyze::planner_inputs(&r.fragment, c))
                        })
                        .unwrap_or_else(|| cqa_qe::plan::PlanInputs::measure(&expanded));
                    format!(
                        " plan={}",
                        cqa_qe::plan::plan(&expanded, &inputs).describe()
                    )
                }
                Err(_) => String::new(),
            }
        } else {
            " plan=off".to_string()
        };
        session.prepared.insert(
            name.to_string(),
            Prepared {
                src: query.to_string(),
                params: params.clone(),
                memo: None,
            },
        );
        Response::ok(format!(
            "PREPARE {name} params={} fragment={fragment}{plan_tag}",
            if params.is_empty() {
                "-".to_string()
            } else {
                params.join(",")
            }
        ))
    }

    /// `PERSIST`: attach this session to the named durable database,
    /// replaying its recovered source through the ordinary `LOAD` gate.
    /// Must precede any `LOAD` in the session (attachment is a *base*,
    /// not a merge), and a session attaches at most once. Subsequent
    /// accepted `LOAD`s are WAL-committed before they apply.
    pub fn persist(&self, session: &mut Session, name: &str) -> Response {
        let Some(storage) = &self.storage else {
            return Response::err(
                "storage",
                "durable storage is disabled (start cqa-serve with --data-dir)",
            );
        };
        if let Some(attached) = &session.durable {
            return Response::err(
                "storage",
                format!("session is already attached to durable database `{attached}`"),
            );
        }
        if !session.loaded_src.is_empty() {
            return Response::err(
                "storage",
                "session already has loaded state; PERSIST must come before LOAD",
            );
        }
        let src = storage.database(name);
        let statements = if src.is_empty() {
            0
        } else {
            // Replay recovered history through the same LOAD path that
            // accepted it originally — the Database is a pure function of
            // this source, so the rebuild is bit-identical. No re-commit:
            // this text is already in the snapshot/WAL.
            let r = self.load_inner(session, &src, false);
            if !r.is_ok() {
                return Response::err(
                    "storage",
                    format!("recovered source failed to replay: {}", r.header),
                );
            }
            session
                .loaded_src
                .lines()
                .filter(|l| !l.trim().is_empty())
                .count()
        };
        session.durable = Some(name.to_string());
        Response::ok(format!("PERSIST {name} statements={statements}"))
    }

    /// `EXEC`: run a prepared query as a `VOL_I` request (volume of the
    /// defined region within the unit box, the paper's §2 operator),
    /// through the shared QE cache.
    pub fn exec(
        &self,
        session: &mut Session,
        name: &str,
        eps: Option<f64>,
        delta: Option<f64>,
    ) -> Response {
        let Some(prep) = session.prepared.get(name) else {
            return Response::err("exec", format!("no prepared query `{name}` (use PREPARE)"));
        };
        let eps = eps.unwrap_or(self.cfg.default_eps);
        let delta = delta.unwrap_or(self.cfg.default_delta);
        // Warm fast path: the canonical key of this prepared query is
        // memoized and no LOAD has rebuilt the database since, so parse,
        // relation expansion, and simplification would reproduce the same
        // key — go straight to the shared cache. An eviction (or an
        // out-of-range ε/δ, which must error through the normal path)
        // falls through to the full pipeline below, which re-memoizes.
        if let Some((db_gen, key)) = prep.memo {
            if db_gen == session.db_gen && eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0 {
                if let Some(hit) = self.cache.lookup(key) {
                    let budget = self.request_budget();
                    return self.eval_entry(key, hit, eps, delta, &budget, "EXEC", name, "hit");
                }
            }
        }
        let prep = prep.clone();
        let f = match parse_formula_with(&prep.src, session.db.vars_mut()) {
            Ok(f) => f,
            Err(e) => return Response::err("parse", e.to_string()),
        };
        let vars: Vec<Var> = prep
            .params
            .iter()
            .map(|p| session.db.vars_mut().intern(p))
            .collect();
        let mut memo_key = None;
        let resp = self.answer(
            session,
            &f,
            &vars,
            eps,
            delta,
            "EXEC",
            name,
            Some(&mut memo_key),
        );
        if let Some(key) = memo_key {
            let db_gen = session.db_gen;
            if let Some(p) = session.prepared.get_mut(name) {
                p.memo = Some((db_gen, key));
            }
        }
        resp
    }

    /// `BATCH`: run every `name [eps [delta]]` spec line through the
    /// `EXEC` path in order, one payload line per spec (the inner EXEC's
    /// header). One round trip amortizes over the whole body; a failing
    /// spec contributes its `ERR` header and counts in `errors=` without
    /// aborting the rest — the line-per-spec pairing must stay positional.
    pub fn batch(&self, session: &mut Session, specs: &str) -> Response {
        let mut body = Vec::new();
        let mut errors = 0usize;
        for line in specs.lines().filter(|l| !l.trim().is_empty()) {
            let inner = match parse_exec_args("BATCH", line.trim()) {
                Ok((name, eps, delta)) => self.exec(session, &name, eps, delta),
                Err(e) => Response::err("proto", e),
            };
            if !inner.is_ok() {
                errors += 1;
            }
            self.stats.batch_execs.fetch_add(1, Ordering::Relaxed);
            body.push(inner.header);
        }
        let mut resp = Response::ok(format!("BATCH n={} errors={errors}", body.len()));
        resp.body = body;
        resp
    }

    /// `VOLUME`: one-shot `VOL_I` of an ad-hoc formula (still cached — two
    /// sessions asking for the volume of the same region share the QE).
    pub fn volume(&self, session: &mut Session, query: &str) -> Response {
        let f = match parse_formula_with(query, session.db.vars_mut()) {
            Ok(f) => f,
            Err(e) => return Response::err("parse", e.to_string()),
        };
        let mut vars: Vec<Var> = f.free_vars().into_iter().collect();
        vars.sort_by_key(|v| session.db.vars().name(*v));
        let (eps, delta) = (self.cfg.default_eps, self.cfg.default_delta);
        self.answer(session, &f, &vars, eps, delta, "VOLUME", "-", None)
    }

    /// `SUM`: evaluate a loaded Σ-term under the request budget.
    pub fn sum(&self, session: &mut Session, name: &str) -> Response {
        let Some(stmt) = session.sums.get(name) else {
            return Response::err("sum", format!("no loaded sum statement `{name}`"));
        };
        let budget = self.request_budget();
        match stmt.to_sum_term().eval_with_budget(&session.db, &budget) {
            Ok(v) => Response::ok(format!("SUM {name} value={v} steps={}", budget.steps())),
            Err(AggError::Budget(b)) => {
                self.stats.over_budget.fetch_add(1, Ordering::Relaxed);
                Response::err("budget", b.to_string())
            }
            Err(e) => Response::err("sum", e.to_string()),
        }
    }

    /// The shared `EXEC`/`VOLUME` evaluation path. See the module docs of
    /// [`crate`] for the exact→approximate policy.
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &self,
        session: &mut Session,
        f: &Formula,
        vars: &[Var],
        eps: f64,
        delta: f64,
        verb: &str,
        name: &str,
        memo_key: Option<&mut Option<CacheKey>>,
    ) -> Response {
        if !(eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0) {
            return Response::err(
                "exec",
                format!("eps/delta must lie in (0,1), got {eps}/{delta}"),
            );
        }
        let budget = self.request_budget();
        let expanded = match session.db.expand(f) {
            Ok(x) => x,
            Err(e) => return Response::err("exec", e.to_string()),
        };
        // Intern and simplify on ids: the memoized rewrite is shared across
        // requests of this session, and the warm path never renders a
        // string — the cache key is the 128-bit canonical hash read off
        // the interned node.
        let fid = session.arena.intern(&expanded);
        let sid = cqa_qe::simplify_id(&mut session.arena, fid, &mut session.simp);
        // Positional over the name-sorted params: two sessions that
        // interned the same query's variables in different orders still
        // share one cache slot.
        let key = CacheKey {
            hash: session.arena.canonical_hash_for_params(sid, vars),
            dim: vars.len() as u32,
        };
        if let Some(slot) = memo_key {
            *slot = Some(key);
        }
        let (hit, cache_tag) = match self.cache.lookup(key) {
            Some(hit) => (Some(hit), "hit"),
            None => {
                // Cold path: consult the absint verdict first — a
                // statically decided query needs no elimination at all,
                // and its certified bounding box (if any) rides along in
                // the cache entry to prefilter Monte Carlo lanes.
                let facts = if self.cfg.absint {
                    Some(cqa_analyze::analyze_id(
                        &session.arena,
                        sid,
                        &mut session.absint,
                    ))
                } else {
                    None
                };
                // Bit-identity gate: substituting ⊥/⊤ for the QE output
                // is only taken where the un-analyzed engine would land
                // on the same path — non-polynomial queries (FM keeps
                // them non-polynomial, so both engines integrate exactly
                // and 0/1 is the volume either way) and quantifier-free
                // ones (elimination is a no-op, so both engines run the
                // same Monte Carlo sweep and the ⊥/⊤ kernel decides each
                // lane identically). A quantified polynomial query could
                // drop class during elimination, so it keeps paying QE.
                let sid_class = session.arena.meta(sid).class;
                let skip_safe = sid_class != ConstraintClass::Polynomial
                    || session.arena.meta(sid).quantifier_free;
                let static_qf =
                    facts
                        .as_ref()
                        .filter(|_| skip_safe)
                        .and_then(|fx| match fx.verdict {
                            cqa_analyze::Verdict::Unsat => {
                                self.stats
                                    .absint_unsat_skips
                                    .fetch_add(1, Ordering::Relaxed);
                                Some(Formula::False)
                            }
                            cqa_analyze::Verdict::Valid => {
                                self.stats
                                    .absint_valid_skips
                                    .fetch_add(1, Ordering::Relaxed);
                                Some(Formula::True)
                            }
                            cqa_analyze::Verdict::Unknown => None,
                        });
                let static_skip = static_qf.is_some();
                let mc_box = facts
                    .as_ref()
                    .and_then(|fx| cqa_analyze::absint::unit_box(&fx.env, vars));
                let eliminated = match static_qf {
                    Some(qf) => Ok(qf),
                    None if self.cfg.plan => {
                        // Planned elimination: method/order/pruning chosen
                        // from the static measurements plus the absint
                        // certificates, with quantifier-block results
                        // memoized in the shared cache's subplan namespace.
                        let meta = session.arena.meta(sid);
                        let mut inputs = cqa_qe::plan::PlanInputs {
                            atoms: meta.atom_count(),
                            quantifiers: meta.quantifiers,
                            pruned_atoms: None,
                            box_volume: facts
                                .as_ref()
                                .map(|fx| cqa_analyze::absint::box_volume(&fx.env, vars)),
                            vc_bound: None,
                        };
                        if facts.is_some() {
                            // Certified pruning survivors refine the FM
                            // clause budget; the prune itself is memoized
                            // per node, so this is cheap on repeats.
                            let pid = cqa_analyze::prune_id(
                                &mut session.arena,
                                sid,
                                &mut session.absint,
                                &mut session.simp,
                            );
                            inputs.pruned_atoms = Some(session.arena.meta(pid).atom_count());
                        }
                        let simplified = session.arena.extern_formula(sid);
                        let qeplan = cqa_qe::plan::plan(&simplified, &inputs);
                        match qeplan.method {
                            cqa_qe::plan::Method::FourierMotzkin => &self.stats.plan_fm,
                            cqa_qe::plan::Method::LoosWeispfenning => &self.stats.plan_lw,
                            cqa_qe::plan::Method::Hoermander => &self.stats.plan_ch,
                        }
                        .fetch_add(1, Ordering::Relaxed);
                        cqa_qe::plan::eliminate_with_plan(
                            &simplified,
                            &qeplan,
                            &budget,
                            &mut session.arena,
                            &CacheSubplans { cache: &self.cache },
                        )
                    }
                    None => {
                        // Fixed pipeline (`--no-plan`): the parity oracle.
                        // QE still runs on the boxed tree, so extern the
                        // simplified node once per miss.
                        let simplified = session.arena.extern_formula(sid);
                        cqa_qe::eliminate_with_budget(&simplified, &budget)
                    }
                };
                match eliminated {
                    Ok(qf) => {
                        let qf_id = session.arena.intern(&qf);
                        let qf_id =
                            cqa_qe::simplify_id(&mut session.arena, qf_id, &mut session.simp);
                        let kernel = match CompiledMatrix::compile_arena(
                            &session.arena,
                            qf_id,
                            &SlotMap::from_vars(vars),
                        ) {
                            Ok(k) => k,
                            Err(e) => {
                                return Response::err(
                                    "exec",
                                    format!("eliminated matrix is not compilable: {e:?}"),
                                )
                            }
                        };
                        let qf = session.arena.extern_formula(qf_id);
                        // A static ⊥/⊤ substitution keeps the original
                        // query's class so the exact-vs-MC decision below
                        // matches the un-analyzed engine's.
                        let class = if static_skip {
                            sid_class
                        } else {
                            session.arena.meta(qf_id).class
                        };
                        let fragment = match class {
                            ConstraintClass::Polynomial => "FO+POLY",
                            _ => "FO+LIN",
                        };
                        // Key bytes are charged by the cache itself.
                        let bytes = formula_bytes(&qf) + 64 * kernel.atom_count();
                        let entry = self.cache.insert(
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
                        );
                        // A cold miss just paid for elimination — the
                        // expensive artifact the warm file exists to save.
                        // Flushing here (not only at SHUTDOWN) is what
                        // makes warm-start survive a SIGKILL.
                        self.flush_warm();
                        (Some(CacheHit { entry, exact: None }), "miss")
                    }
                    Err(QeError::Budget(_)) => (None, "miss"),
                    Err(e) => return Response::err("qe", e.to_string()),
                }
            }
        };
        match hit {
            Some(hit) => self.eval_entry(key, hit, eps, delta, &budget, verb, name, cache_tag),
            // QE itself blew the budget: no quantifier-free form exists to
            // integrate or sample, so decide membership point by point
            // (each ground instance is vastly cheaper than parametric QE).
            None => {
                let simplified = session.arena.extern_formula(sid);
                let answer = self.mc_pointwise(&simplified, vars, eps, delta, &budget);
                self.render_answer(answer, verb, name, cache_tag, &budget)
            }
        }
    }

    /// Evaluates a cached entry — exact triangulating integration when the
    /// quantifier-free form is linear, seeded Monte Carlo over the
    /// compiled kernel otherwise — and renders the response. Shared by the
    /// full [`Self::answer`] pipeline and the memoized-key `EXEC` fast
    /// path; both must produce bit-identical output for the same entry.
    ///
    /// A successful exact integration is memoized in the entry's cache
    /// slot with the integrator's own step count, and a later hit answers
    /// from the memo with the header a fresh integration would render (a
    /// hit's budget is fresh, so its `steps=` is exactly the integrator's).
    /// Degraded answers are never memoized.
    #[allow(clippy::too_many_arguments)]
    fn eval_entry(
        &self,
        key: CacheKey,
        hit: CacheHit,
        eps: f64,
        delta: f64,
        budget: &EvalBudget,
        verb: &str,
        name: &str,
        cache_tag: &str,
    ) -> Response {
        let CacheHit { entry, exact } = hit;
        if let Some((v, steps)) = exact {
            self.stats.memo_hits.fetch_add(1, Ordering::Relaxed);
            return exact_response(verb, name, &v, cache_tag, steps);
        }
        let dim = key.dim as usize;
        let answer = if entry.class == ConstraintClass::Polynomial {
            // Semi-algebraic output: the exact triangulating integrator
            // does not apply; degrade to MC over the cached kernel.
            self.mc_over_kernel(&entry, dim, eps, delta, "nonlinear")
        } else {
            let before = budget.steps();
            match cqa_geom::volume_in_unit_box_with_budget(&entry.qf, &entry.qf_vars, budget) {
                Ok(v) => {
                    let steps = budget.steps() - before;
                    self.cache.memoize_exact(key, &entry, (v.clone(), steps));
                    Ok(Answer::Exact(v))
                }
                Err(VolumeError::Budget(_)) => {
                    self.mc_over_kernel(&entry, dim, eps, delta, "volume-budget")
                }
                // Too many DNF cells for inclusion–exclusion: the kernel
                // still decides membership, so sample it.
                Err(VolumeError::TooManyCells(_)) => {
                    self.mc_over_kernel(&entry, dim, eps, delta, "volume-cells")
                }
                Err(e) => return Response::err("volume", e.to_string()),
            }
        };
        self.render_answer(answer, verb, name, cache_tag, budget)
    }

    /// Formats an exact/approximate answer into the wire response header.
    fn render_answer(
        &self,
        answer: Result<Answer, Response>,
        verb: &str,
        name: &str,
        cache_tag: &str,
        budget: &EvalBudget,
    ) -> Response {
        match answer {
            Ok(Answer::Exact(v)) => exact_response(verb, name, &v, cache_tag, budget.steps()),
            Ok(Answer::Approx {
                estimate,
                eps,
                delta,
                samples,
                reason,
            }) => {
                self.stats.degraded.fetch_add(1, Ordering::Relaxed);
                Response::ok(format!(
                    "{verb} {name} status=approx value={estimate} eps={eps} delta={delta} \
                     samples={samples} reason={reason} cache={cache_tag}"
                ))
            }
            Err(resp) => resp,
        }
    }

    /// Best-effort warm-file flush (no-op for in-memory engines).
    fn flush_warm(&self) {
        if let Some(storage) = &self.storage {
            storage.flush_warm(&self.cache);
        }
    }

    /// Hoeffding sample size for an additive (ε, δ) guarantee on `VOL_I`.
    fn sample_count(eps: f64, delta: f64) -> usize {
        (((2.0 / delta).ln() / (2.0 * eps * eps)).ceil() as usize).max(1) + 1
    }

    /// Deterministic Monte Carlo `VOL_I` over a cached compiled kernel,
    /// swept batch-wise: samples fill one structure-of-arrays [`Batch`] at
    /// a time (draws in the same order as the per-point loop this
    /// replaces, so estimates are unchanged) and the kernel decides all
    /// lanes per sweep. Fast/exact lane counts feed the service counters
    /// behind `STATS`.
    fn mc_over_kernel(
        &self,
        entry: &Arc<CacheEntry>,
        dim: usize,
        eps: f64,
        delta: f64,
        reason: &'static str,
    ) -> Result<Answer, Response> {
        let samples = Self::sample_count(eps, delta);
        let mut w = Witness::new(MC_SEED);
        let mut batch = Batch::new(dim);
        let mut sub = Batch::new(dim);
        let mut keep: Vec<usize> = Vec::new();
        let mut skipped = 0u64;
        let mut scratch = BatchScratch::new();
        let mut hits = 0usize;
        let mut lanes = LaneStats::default();
        let mut done = 0usize;
        while done < samples {
            batch.set_len((samples - done).min(BATCH_LANES));
            w.fill_unit_columns(&mut batch, 0, dim);
            // The absint bounding box certifies that every satisfying
            // point lies inside it, so lanes outside are kernel-false and
            // can skip evaluation entirely. The draws above are untouched
            // (same RNG stream) and skipped lanes contribute exactly the
            // zero hits they would have, so the estimate is bit-identical
            // to the unfiltered run.
            let result = match entry.mc_box.as_deref() {
                Some(bx) => {
                    keep.clear();
                    for lane in 0..batch.len() {
                        let inside = (0..dim).all(|d| {
                            let v = batch.value(d, lane);
                            v >= bx[d].0 && v <= bx[d].1
                        });
                        if inside {
                            keep.push(lane);
                        }
                    }
                    skipped += (batch.len() - keep.len()) as u64;
                    if keep.is_empty() {
                        None
                    } else if keep.len() == batch.len() {
                        let b = &batch;
                        let exact = |lane: usize, slot: usize| {
                            Rat::from_f64(b.value(slot, lane)).expect("finite sample coordinate")
                        };
                        Some(entry.kernel.eval_batch(b, &exact, &mut scratch))
                    } else {
                        sub.set_len(keep.len());
                        for d in 0..dim {
                            let col = sub.col_mut(d);
                            for (j, &lane) in keep.iter().enumerate() {
                                col[j] = batch.value(d, lane);
                            }
                        }
                        let b = &sub;
                        let exact = |lane: usize, slot: usize| {
                            Rat::from_f64(b.value(slot, lane)).expect("finite sample coordinate")
                        };
                        Some(entry.kernel.eval_batch(b, &exact, &mut scratch))
                    }
                }
                None => {
                    let b = &batch;
                    let exact = |lane: usize, slot: usize| {
                        Rat::from_f64(b.value(slot, lane)).expect("finite sample coordinate")
                    };
                    Some(entry.kernel.eval_batch(b, &exact, &mut scratch))
                }
            };
            if let Some(r) = result {
                hits += r.mask.count();
                lanes.add(&r);
            }
            done += batch.len();
        }
        if skipped > 0 {
            self.stats
                .absint_box_skipped_lanes
                .fetch_add(skipped, Ordering::Relaxed);
        }
        self.stats
            .batch_fast_lanes
            .fetch_add(lanes.fast, Ordering::Relaxed);
        self.stats
            .batch_exact_lanes
            .fetch_add(lanes.exact, Ordering::Relaxed);
        Ok(Answer::Approx {
            estimate: Rat::new((hits as i64).into(), (samples as i64).into()),
            eps,
            delta,
            samples,
            reason,
        })
    }

    /// Last-resort degraded path when parametric QE itself exceeded the
    /// budget: decide membership of each sample point by substituting it
    /// and deciding the resulting ground sentence, all under the same
    /// request budget. If even the ground decisions blow the budget the
    /// request fails with `ERR budget` (counted in `over_budget`).
    fn mc_pointwise(
        &self,
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
                Err(QeError::Budget(b)) => {
                    self.stats.over_budget.fetch_add(1, Ordering::Relaxed);
                    return Err(Response::err("budget", b.to_string()));
                }
                Err(e) => return Err(Response::err("qe", e.to_string())),
            }
        }
        Ok(Answer::Approx {
            estimate: Rat::new((hits as i64).into(), (samples as i64).into()),
            eps,
            delta,
            samples,
            reason: "qe-budget",
        })
    }

    /// `STATS`: cache counters, hit rate, per-command latency histograms,
    /// in-flight and rejection counts.
    pub fn render_stats(&self) -> Response {
        let cache = self.cache.snapshot();
        let s = &self.stats;
        let mut resp = Response::ok(format!(
            "STATS uptime_us={}",
            self.started.elapsed().as_micros()
        ));
        resp.body.push(format!(
            "sessions={} commands={} in_flight={} open_conns={} batch_execs={}",
            EngineStats::get(&s.sessions),
            EngineStats::get(&s.commands),
            EngineStats::get(&s.in_flight),
            EngineStats::get(&s.open_conns),
            EngineStats::get(&s.batch_execs),
        ));
        resp.body.push(format!(
            "cache entries={} bytes={} budget_bytes={} shards={} hits={} misses={} \
             hit_rate={:.3} evictions={} poison_recoveries={} memo_hits={}",
            cache.entries,
            cache.bytes,
            cache.byte_budget,
            cache.shards,
            cache.hits,
            cache.misses,
            cache.hit_rate(),
            cache.evictions,
            cache.poison_recoveries,
            EngineStats::get(&s.memo_hits),
        ));
        resp.body.push(format!(
            "over_budget={} lint_rejected={} rejected_conns={} degraded={} write_errors={} \
             worker_panics={}",
            EngineStats::get(&s.over_budget),
            EngineStats::get(&s.lint_rejected),
            EngineStats::get(&s.rejected_conns),
            EngineStats::get(&s.degraded),
            EngineStats::get(&s.write_errors),
            EngineStats::get(&s.worker_panics),
        ));
        let (nodes, terms, calls) = (
            EngineStats::get(&s.ir_nodes),
            EngineStats::get(&s.ir_terms),
            EngineStats::get(&s.ir_intern_calls),
        );
        resp.body.push(format!(
            "ir nodes={nodes} terms={terms} intern_calls={calls} dedup_ratio={:.3}",
            if nodes == 0 {
                1.0
            } else {
                calls as f64 / nodes as f64
            }
        ));
        let (fast, exact) = (
            EngineStats::get(&s.batch_fast_lanes),
            EngineStats::get(&s.batch_exact_lanes),
        );
        resp.body.push(format!(
            "kernel fast_lanes={fast} exact_lanes={exact} fallback_rate={:.4}",
            if fast + exact == 0 {
                0.0
            } else {
                exact as f64 / (fast + exact) as f64
            }
        ));
        resp.body.push(format!(
            "absint unsat_skips={} valid_skips={} box_skipped_lanes={}",
            EngineStats::get(&s.absint_unsat_skips),
            EngineStats::get(&s.absint_valid_skips),
            EngineStats::get(&s.absint_box_skipped_lanes),
        ));
        resp.body.push(format!(
            "plan fm={} lw={} ch={} subplan_hits={} subplan_misses={}",
            EngineStats::get(&s.plan_fm),
            EngineStats::get(&s.plan_lw),
            EngineStats::get(&s.plan_ch),
            cache.subplan_hits,
            cache.subplan_misses,
        ));
        if let Some(storage) = &self.storage {
            let st = storage.stats();
            resp.body.push(format!(
                "wal records={} bytes={} replayed={} torn_bytes={} snapshots={} snapshot_errors={}",
                EngineStats::get(&st.wal_records),
                EngineStats::get(&st.wal_bytes),
                EngineStats::get(&st.replayed_records),
                EngineStats::get(&st.torn_bytes),
                EngineStats::get(&st.snapshots),
                EngineStats::get(&st.snapshot_errors),
            ));
            resp.body.push(format!(
                "warm loaded={} skipped={} flushes={} errors={}",
                EngineStats::get(&st.warm_loaded),
                EngineStats::get(&st.warm_skipped),
                EngineStats::get(&st.warm_flushes),
                EngineStats::get(&st.warm_errors),
            ));
        }
        for kind in [
            crate::protocol::CommandKind::Load,
            crate::protocol::CommandKind::Prepare,
            crate::protocol::CommandKind::Exec,
            crate::protocol::CommandKind::Batch,
            crate::protocol::CommandKind::Volume,
            crate::protocol::CommandKind::Sum,
            crate::protocol::CommandKind::Persist,
            crate::protocol::CommandKind::Stats,
            crate::protocol::CommandKind::Close,
            crate::protocol::CommandKind::Shutdown,
        ] {
            let h = &s.latency[kind.index()];
            if h.count() > 0 {
                resp.body
                    .push(format!("latency {} {}", kind.name(), h.render()));
            }
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    const PROGRAM: &str = "\
rel S(y) := (0 <= y & y <= 0.5) | (0.75 <= y & y <= 2)
sum EndpointSum(w) := true | END[y. S(y)] ; xout . xout = w
";

    #[test]
    fn load_prepare_exec_roundtrip() {
        let e = engine();
        let mut s = e.open_session();
        let r = e.dispatch(
            &mut s,
            Command::Load {
                program: Some(PROGRAM.into()),
            },
        );
        assert!(r.is_ok(), "{r:?}");
        assert!(r.header.contains("rels=1"), "{r:?}");
        let r = e.prepare(&mut s, "band", "S(x) & x <= 1");
        assert!(r.is_ok(), "{r:?}");
        // VOL_I of S ∩ [0,1] = [0, 1/2] ∪ [3/4, 1] → 3/4.
        let r = e.exec(&mut s, "band", None, None);
        assert!(r.is_ok(), "{r:?}");
        assert!(r.header.contains("status=exact value=3/4"), "{r:?}");
        assert!(r.header.contains("cache=miss"), "{r:?}");
        // Second EXEC hits the cache, same answer.
        let r = e.exec(&mut s, "band", None, None);
        assert!(r.header.contains("status=exact value=3/4"), "{r:?}");
        assert!(r.header.contains("cache=hit"), "{r:?}");
        assert_eq!(e.cache.snapshot().hits, 1);
    }

    #[test]
    fn load_gate_rejects_and_preserves_session() {
        let e = engine();
        let mut s = e.open_session();
        assert!(e.load(&mut s, PROGRAM).is_ok());
        let bad = e.load(&mut s, "query Bad(x) := x = zz + 1\n");
        assert!(!bad.is_ok(), "{bad:?}");
        assert!(bad.header.starts_with("ERR lint"), "{bad:?}");
        assert!(!bad.body.is_empty(), "diagnostics travel in the body");
        // The session still works with its pre-rejection state.
        let r = e.sum(&mut s, "EndpointSum");
        assert!(r.header.contains("value=13/4"), "{r:?}");
        assert_eq!(EngineStats::get(&e.stats.lint_rejected), 1);
    }

    #[test]
    fn prepare_gate_rejects_unknown_relation() {
        let e = engine();
        let mut s = e.open_session();
        let r = e.prepare(&mut s, "bad", "Missing(x) & x > 0");
        assert!(r.header.starts_with("ERR lint"), "{r:?}");
    }

    #[test]
    fn nonlinear_query_degrades_with_tag() {
        let e = engine();
        let mut s = e.open_session();
        let r = e.prepare(&mut s, "disk", "x*x + y*y <= 1");
        assert!(r.is_ok(), "{r:?}");
        let r = e.exec(&mut s, "disk", Some(0.05), None);
        assert!(r.is_ok(), "{r:?}");
        assert!(r.header.contains("status=approx"), "{r:?}");
        assert!(r.header.contains("eps=0.05"), "{r:?}");
        assert!(r.header.contains("reason=nonlinear"), "{r:?}");
        // Quarter disk: VOL_I ≈ π/4 ≈ 0.785; ε = 0.05 ⇒ the estimate is
        // inside [0.70, 0.87] unless we hit the δ failure slice.
        let val = r
            .header
            .split("value=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap();
        let (n, d) = val.split_once('/').expect("rational");
        let x: f64 = n.parse::<f64>().unwrap() / d.parse::<f64>().unwrap();
        assert!((0.70..=0.87).contains(&x), "VOL_I estimate {x} off");
        assert_eq!(EngineStats::get(&e.stats.degraded), 1);
        // The batched kernel swept every sample lane and counted it.
        let lanes = EngineStats::get(&e.stats.batch_fast_lanes)
            + EngineStats::get(&e.stats.batch_exact_lanes);
        let samples: u64 = r
            .header
            .split("samples=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(lanes, samples);
    }

    #[test]
    fn absint_skips_qe_for_statically_empty_queries() {
        let e = engine();
        let mut s = e.open_session();
        // The contradiction is invisible to the simplifier but trivial
        // for interval propagation: x > 2 ∧ x < 1.
        let r = e.prepare(
            &mut s,
            "empty",
            "(exists y. x < y & y < 2*x) & x > 2 & x < 1",
        );
        assert!(r.is_ok(), "{r:?}");
        let r = e.exec(&mut s, "empty", None, None);
        assert!(r.header.contains("status=exact value=0"), "{r:?}");
        assert_eq!(EngineStats::get(&e.stats.absint_unsat_skips), 1);
        // Valid queries take the mirror path.
        assert!(e.prepare(&mut s, "full", "x < 2 | 1 > 0").is_ok());
        let r = e.exec(&mut s, "full", None, None);
        assert!(r.header.contains("status=exact value=1"), "{r:?}");
        assert_eq!(EngineStats::get(&e.stats.absint_valid_skips), 1);
        // A statically-valid *polynomial* matrix still degrades to Monte
        // Carlo — the class gate keeps the answer path identical to the
        // un-analyzed engine — but skips elimination.
        assert!(e.prepare(&mut s, "poly", "x*x >= 0 | x < 0").is_ok());
        let r = e.exec(&mut s, "poly", None, None);
        assert!(r.header.contains("status=approx value=1"), "{r:?}");
        assert_eq!(EngineStats::get(&e.stats.absint_valid_skips), 2);
    }

    #[test]
    fn absint_box_prefilter_preserves_estimates() {
        // The disk only intersects [2/5, 3/5]²: the box prefilter must
        // skip lanes yet report the same hit count as the unfiltered run.
        let query = "(x - 1/2)*(x - 1/2) + (y - 1/2)*(y - 1/2) <= 1/100 \
                     & 2/5 <= x & x <= 3/5 & 2/5 <= y & y <= 3/5";
        let on = engine();
        let mut s_on = on.open_session();
        assert!(on.prepare(&mut s_on, "dot", query).is_ok());
        let r_on = on.exec(&mut s_on, "dot", Some(0.02), None);
        assert!(r_on.is_ok(), "{r_on:?}");
        let skipped = EngineStats::get(&on.stats.absint_box_skipped_lanes);
        assert!(skipped > 0, "box prefilter never fired");

        let off = Engine::new(EngineConfig {
            absint: false,
            ..EngineConfig::default()
        });
        let mut s_off = off.open_session();
        assert!(off.prepare(&mut s_off, "dot", query).is_ok());
        let r_off = off.exec(&mut s_off, "dot", Some(0.02), None);
        assert_eq!(
            EngineStats::get(&off.stats.absint_box_skipped_lanes),
            0,
            "disabled engine must not prefilter"
        );
        // Answers are bit-identical; only the steps counter may differ.
        let strip = |h: &str| {
            h.split_whitespace()
                .filter(|t| !t.starts_with("steps="))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(strip(&r_on.header), strip(&r_off.header));
    }

    #[test]
    fn absint_on_off_answers_are_bit_identical() {
        let on = engine();
        let off = Engine::new(EngineConfig {
            absint: false,
            ..EngineConfig::default()
        });
        let queries = [
            "S(x) & x <= 1",
            "x*x + y*y <= 1",
            "(exists y. x < y & y < 1) & x > 2", // statically empty
            "x*x >= 0",                          // statically valid
            "1/4 <= x & x <= 3/4 & exists y. y < x",
        ];
        for (i, q) in queries.iter().enumerate() {
            let mut s_on = on.open_session();
            let mut s_off = off.open_session();
            assert!(on.load(&mut s_on, PROGRAM).is_ok());
            assert!(off.load(&mut s_off, PROGRAM).is_ok());
            let name = format!("q{i}");
            assert!(on.prepare(&mut s_on, &name, q).is_ok(), "{q}");
            assert!(off.prepare(&mut s_off, &name, q).is_ok(), "{q}");
            let r_on = on.exec(&mut s_on, &name, Some(0.05), None);
            let r_off = off.exec(&mut s_off, &name, Some(0.05), None);
            let strip = |h: &str| {
                h.split_whitespace()
                    .filter(|t| !t.starts_with("steps="))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            assert_eq!(strip(&r_on.header), strip(&r_off.header), "query {q}");
        }
    }

    #[test]
    fn plan_on_off_answers_are_bit_identical() {
        let on = engine();
        let off = Engine::new(EngineConfig {
            plan: false,
            ..EngineConfig::default()
        });
        let queries = [
            "S(x) & x <= 1",
            "x*x + y*y <= 1",                        // polynomial, QF
            "exists y. y*y < x",                     // polynomial, quantified
            "(exists y. x < y & y < 1) & x > 2",     // statically empty
            "1/4 <= x & x <= 3/4 & exists y. y < x", // linear, quantified
            "(exists u, v. x < u & u < v & v < x + 1/2) & 0 <= x & x <= 1",
            "forall y. y > x | y <= x",
            "exists y. (x < y & y < 1/2) | (3/4 < y & y < x)",
        ];
        for (i, q) in queries.iter().enumerate() {
            let mut s_on = on.open_session();
            let mut s_off = off.open_session();
            assert!(on.load(&mut s_on, PROGRAM).is_ok());
            assert!(off.load(&mut s_off, PROGRAM).is_ok());
            let name = format!("q{i}");
            assert!(on.prepare(&mut s_on, &name, q).is_ok(), "{q}");
            assert!(off.prepare(&mut s_off, &name, q).is_ok(), "{q}");
            let r_on = on.exec(&mut s_on, &name, Some(0.05), None);
            let r_off = off.exec(&mut s_off, &name, Some(0.05), None);
            let strip = |h: &str| {
                h.split_whitespace()
                    .filter(|t| !t.starts_with("steps="))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            assert_eq!(strip(&r_on.header), strip(&r_off.header), "query {q}");
        }
    }

    #[test]
    fn overlapping_prepared_queries_share_subplans() {
        let e = engine();
        let mut s = e.open_session();
        let core = "(exists u, v. x < u & u < v & v < x + 1)";
        assert!(e
            .prepare(&mut s, "lo", &format!("{core} & 0 <= x & x <= 1/2"))
            .is_ok());
        assert!(e
            .prepare(&mut s, "hi", &format!("{core} & 1/2 <= x & x <= 1"))
            .is_ok());
        let r = e.exec(&mut s, "lo", None, None);
        assert!(r.header.contains("status=exact value=1/2"), "{r:?}");
        assert_eq!(e.cache.snapshot().subplan_hits, 0, "first run is cold");
        let r = e.exec(&mut s, "hi", None, None);
        assert!(r.header.contains("status=exact value=1/2"), "{r:?}");
        let snap = e.cache.snapshot();
        assert!(
            snap.subplan_hits >= 1,
            "second query must reuse the shared core's elimination: {snap:?}"
        );
        assert_eq!(snap.misses, 2, "both whole-query lookups were cold");
        // The plan is visible at PREPARE time.
        let r = e.prepare(&mut s, "again", &format!("{core} & x >= 0"));
        assert!(r.header.contains(" plan=fm"), "{r:?}");
        assert!(r.header.contains("shared=on"), "{r:?}");
    }

    #[test]
    fn stats_report_covers_planner_counters() {
        let e = engine();
        let mut s = e.open_session();
        assert!(e.prepare(&mut s, "q", "exists y. x < y & y < 1").is_ok());
        e.exec(&mut s, "q", None, None);
        assert_eq!(EngineStats::get(&e.stats.plan_fm), 1);
        let r = e.render_stats();
        let body = r.body.join("\n");
        assert!(body.contains("plan fm=1"), "{body}");
        assert!(body.contains("subplan_hits="), "{body}");
        // plan=off engines never bump planner counters.
        let off = Engine::new(EngineConfig {
            plan: false,
            ..EngineConfig::default()
        });
        let mut s_off = off.open_session();
        let r = off.prepare(&mut s_off, "q", "exists y. x < y & y < 1");
        assert!(r.header.contains("plan=off"), "{r:?}");
        off.exec(&mut s_off, "q", None, None);
        assert_eq!(EngineStats::get(&off.stats.plan_fm), 0);
        assert_eq!(EngineStats::get(&off.stats.plan_lw), 0);
        assert_eq!(EngineStats::get(&off.stats.plan_ch), 0);
    }

    #[test]
    fn batch_runs_specs_in_order_and_counts_errors() {
        let e = engine();
        let mut s = e.open_session();
        assert!(e.prepare(&mut s, "half", "0 <= x & x <= 1/2").is_ok());
        assert!(e.prepare(&mut s, "quarter", "0 <= x & x <= 1/4").is_ok());
        let r = e.dispatch(
            &mut s,
            Command::Batch {
                specs: Some("half\nquarter 0.1 0.1\nmissing\n1bad\n".into()),
            },
        );
        assert_eq!(r.header, "OK BATCH n=4 errors=2", "{r:?}");
        assert_eq!(r.body.len(), 4);
        assert!(
            r.body[0].contains("EXEC half status=exact value=1/2"),
            "{r:?}"
        );
        assert!(
            r.body[1].contains("EXEC quarter status=exact value=1/4"),
            "{r:?}"
        );
        assert!(r.body[2].starts_with("ERR exec"), "{r:?}");
        assert!(r.body[3].starts_with("ERR proto"), "{r:?}");
        assert_eq!(EngineStats::get(&e.stats.batch_execs), 4);
        // A batched EXEC is bit-identical to the serial command.
        let serial = e.exec(&mut s, "half", None, None);
        let strip = |h: &str| {
            h.split_whitespace()
                .filter(|t| !t.starts_with("steps=") && !t.starts_with("cache="))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(strip(&serial.header), strip(&r.body[0]));
    }

    #[test]
    fn sentence_queries_use_counting_measure() {
        let e = engine();
        let mut s = e.open_session();
        assert!(e.prepare(&mut s, "yes", "exists x. x > 3").is_ok());
        let r = e.exec(&mut s, "yes", None, None);
        assert!(r.header.contains("status=exact value=1"), "{r:?}");
    }

    #[test]
    fn stats_report_covers_cache_and_latency() {
        let e = engine();
        let mut s = e.open_session();
        e.prepare(&mut s, "q", "0 <= x & x <= 1");
        e.dispatch(
            &mut s,
            Command::Exec {
                name: "q".into(),
                eps: None,
                delta: None,
            },
        );
        // The second EXEC answers from the slot's memoized integration.
        e.dispatch(
            &mut s,
            Command::Exec {
                name: "q".into(),
                eps: None,
                delta: None,
            },
        );
        let r = e.render_stats();
        assert!(r.is_ok());
        let body = r.body.join("\n");
        assert!(body.contains("cache entries=1"), "{body}");
        assert!(body.contains("memo_hits=1"), "{body}");
        assert_eq!(EngineStats::get(&e.stats.memo_hits), 1);
        assert!(body.contains("latency EXEC"), "{body}");
        assert!(body.contains("ir nodes="), "{body}");
        assert!(body.contains("kernel fast_lanes="), "{body}");
        // The EXEC went through dispatch, so the session's arena growth
        // was flushed into the engine-wide aggregates.
        assert!(EngineStats::get(&e.stats.ir_nodes) > 0);
        assert!(EngineStats::get(&e.stats.ir_intern_calls) >= EngineStats::get(&e.stats.ir_nodes));
    }

    #[test]
    fn too_many_cells_degrades_to_monte_carlo() {
        // 20 disjoint intervals: one DNF cell each, at the integrator's
        // inclusion–exclusion limit. VOL_I = 20/41.
        let union = (0..20)
            .map(|i| format!("({}/41 <= x & x <= {}/41)", 2 * i, 2 * i + 1))
            .collect::<Vec<_>>()
            .join(" | ");
        let e = engine();
        let mut s = e.open_session();
        for tag in ["miss", "hit"] {
            let r = e.volume(&mut s, &union);
            assert!(r.is_ok(), "{r:?}");
            assert!(r.header.contains("status=approx"), "{r:?}");
            assert!(r.header.contains("reason=volume-cells"), "{r:?}");
            assert!(r.header.contains(&format!("cache={tag}")), "{r:?}");
            let val = r.header.split("value=").nth(1).unwrap();
            let val = val.split_whitespace().next().unwrap();
            let x = val.parse::<Rat>().unwrap().to_f64();
            assert!((x - 20.0 / 41.0).abs() <= 0.05, "estimate {x} off");
        }
        assert_eq!(EngineStats::get(&e.stats.degraded), 2);
        assert_eq!(EngineStats::get(&e.stats.memo_hits), 0, "never memoized");
    }

    #[test]
    fn session_memo_resets_leave_responses_bit_identical() {
        let mut cmds = vec![Command::Load {
            program: Some(PROGRAM.into()),
        }];
        let queries = [
            "S(x) & x <= 1",
            "exists y. x < y & y < 1/2",
            "(exists u, v. x < u & u < v & v < x + 1/2) & 0 <= x & x <= 1",
            "x*x + y*y <= 1",
            "0 <= x & x <= 1/3 & x <= y & y <= 1",
        ];
        for (i, q) in queries.iter().enumerate() {
            cmds.push(Command::Prepare {
                name: format!("q{i}"),
                query: q.to_string(),
            });
        }
        for round in 0..3 {
            for i in 0..queries.len() {
                cmds.push(Command::Exec {
                    name: format!("q{i}"),
                    eps: None,
                    delta: None,
                });
                cmds.push(Command::Volume {
                    query: format!("0 <= x & x <= {}/{}", i + 1, round + 7),
                });
            }
        }
        let run = |reset_every: Option<usize>| {
            let e = engine();
            let mut s = e.open_session();
            let mut out = Vec::new();
            for (n, cmd) in cmds.iter().enumerate() {
                out.push(e.dispatch(&mut s, cmd.clone()));
                if reset_every.is_some_and(|k| n % k == k - 1) {
                    e.reset_session_memos(&mut s);
                }
            }
            out
        };
        let plain = run(None);
        for k in [1, 2, 5] {
            assert_eq!(run(Some(k)), plain, "reset every {k} commands");
        }
    }

    #[test]
    fn session_arena_stays_bounded_over_distinct_volumes() {
        let e = engine();
        let mut s = e.open_session();
        let mut peak = 0;
        for i in 0..10_000u32 {
            let r = e.dispatch(
                &mut s,
                Command::Volume {
                    query: format!("{i}/20011 <= x & x <= {}/20011", i + 7),
                },
            );
            assert!(r.header.contains("status=exact"), "{r:?}");
            peak = peak.max(s.arena.stats().nodes);
        }
        assert!(peak <= SESSION_MEMO_NODES, "arena peaked at {peak} nodes");
        // Every node interned still reached the engine-wide counters.
        assert!(EngineStats::get(&e.stats.ir_nodes) > 10_000);
    }
}
