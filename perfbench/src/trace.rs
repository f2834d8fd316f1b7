//! The traced run: the workload's requests replayed in lockstep on three
//! copies of the same state, one request at a time —
//!
//! * over TCP to a server (client round-trip time),
//! * through `Engine::dispatch` in-process (untraced dispatch time), and
//! * through [`Replay`], one span per layer call.
//!
//! The replay's response must equal the engine's bit for bit, and both
//! are checked against the oracle.

use crate::client::{command, copy_dir, write_history, Conn, Server, Tally, WorkDir};
use crate::metrics::{percentile, tail_percentile, Metric};
use crate::replay::{Replay, ReplaySession, Spans};
use crate::workload::{Kind, Workload};
use cqa_engine::{
    read_response, CacheSnapshot, Engine, EngineStats, Response, Session, StorageStats,
};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::time::Instant;

/// Timed spans reported as per-layer metrics: (metric, stage, unit).
/// `engine.*`, `net.*` and `protocol.*` come from the lockstep itself.
const TIMINGS: &[(&str, &str, &str)] = &[
    ("geom.volume_us", "geom.volume", "us"),
    ("qe.simplify_us", "qe.simplify", "us"),
    ("qe.plan_us", "qe.plan", "us"),
    ("qe.eliminate_us", "qe.eliminate", "us"),
    ("logic.parse_us", "logic.parse", "us"),
    ("logic.intern_us", "logic.intern", "us"),
    ("logic.extern_us", "logic.extern", "us"),
    ("logic.hash_us", "logic.hash", "us"),
    ("logic.compile_us", "logic.compile", "us"),
    ("analyze.source_us", "analyze.source", "us"),
    ("analyze.absint_us", "analyze.absint", "us"),
    ("analyze.prune_us", "analyze.prune", "us"),
    ("core.expand_us", "core.expand", "us"),
    ("agg.sum_us", "agg.sum", "us"),
    ("cache.get_ns", "cache.get", "ns"),
    ("protocol.parse_ns", "protocol.parse", "ns"),
    ("protocol.read_response_ns", "protocol.read_response", "ns"),
    ("net.overhead_us", "net.overhead", "us"),
    ("engine.dispatch_us", "engine.dispatch", "us"),
    ("engine.self_us", "engine.self", "us"),
    ("storage.append_load_us", "storage.append_load", "us"),
    ("storage.flush_warm_us", "storage.flush_warm", "us"),
    ("storage.open_us", "storage.open", "us"),
    ("storage.load_warm_us", "storage.load_warm", "us"),
];

/// What the traced run produced.
pub struct TraceResult {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub mismatches: u64,
}

/// Per-request samples of every stage, in ns.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<u64>>);

impl Samples {
    fn push(&mut self, stage: &'static str, ns: u64) {
        self.0.entry(stage).or_default().push(ns);
    }

    /// Each stage's spans of one request, summed, as one sample.
    fn push_request(&mut self, spans: &Spans) -> u64 {
        let mut per: BTreeMap<&'static str, u64> = BTreeMap::new();
        for &(stage, ns) in &spans.0 {
            *per.entry(stage).or_default() += ns;
        }
        let total = per.values().sum();
        for (stage, ns) in per {
            self.push(stage, ns);
        }
        total
    }
}

/// The three executors of one client.
struct Lane {
    conn: Conn,
    session: Session,
    replay: ReplaySession,
}

fn same(a: &Response, b: &Response) -> bool {
    a.header == b.header && a.body == b.body
}

pub fn run(mut wl: Workload, work: &WorkDir) -> TraceResult {
    let mut tally = Tally::default();
    let mut setup_spans = Spans::default();
    let dirs = wl.history.as_ref().map(|history| {
        let hist = work.path("history");
        write_history(&hist, history, &mut tally);
        let dirs = [work.path("tcp"), work.path("inproc"), work.path("replay")];
        for d in &dirs {
            copy_dir(&hist, d);
        }
        dirs
    });
    let dir = |i: usize| dirs.as_ref().map(|d| d[i].as_path());
    let server = Server::start(dir(0));
    let engine =
        Engine::with_storage(crate::client::engine_config(dir(1))).expect("engine recovers");
    let mut replay = Replay::open(dir(2), &mut setup_spans);
    let mut samples = Samples::default();
    for &(stage, ns) in &setup_spans.0 {
        samples.push(stage, ns);
    }

    let addr = server.addr();
    let mut lanes: Vec<Lane> = wl
        .clients
        .iter()
        .map(|_| Lane {
            conn: Conn::connect(addr).expect("connect"),
            session: engine.open_session(),
            replay: ReplaySession::default(),
        })
        .collect();
    let mut mismatches = 0u64;
    let mut first_mismatch: Option<String> = None;
    let (mut span_ns, mut dispatch_ns, mut replay_ns, mut traced) = (0u64, 0u64, 0u64, 0u64);
    let mut order = 0u64;

    let mut step = |lane: &mut Lane,
                    replay: &mut Replay,
                    req: &crate::workload::Req,
                    tally: &mut Tally,
                    samples: Option<&mut Samples>| {
        if req.kind == Kind::Reopen {
            let _ = lane.conn.call(req);
            lane.conn = Conn::connect(addr).expect("reconnect");
            lane.session = engine.open_session();
            lane.replay = ReplaySession::default();
            return;
        }
        let t = Instant::now();
        let cmd = command(req);
        let parse_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let wire = lane.conn.call(req);
        let rtt_ns = t.elapsed().as_nanos() as u64;

        // The in-process dispatch and the replay alternate which runs
        // first, so neither always inherits the other's warm CPU caches.
        let mut spans = Spans::default();
        let mut run_engine = || {
            let t = Instant::now();
            let r = engine.dispatch(&mut lane.session, cmd.clone());
            (r, t.elapsed().as_nanos() as u64)
        };
        let mut run_replay = |spans: &mut Spans| {
            let t = Instant::now();
            let r = replay.dispatch(&mut lane.replay, &cmd, spans);
            (r, t.elapsed().as_nanos() as u64)
        };
        let ((inproc, disp_ns), (replayed, rep_ns)) = if order.is_multiple_of(2) {
            let a = run_engine();
            (a, run_replay(&mut spans))
        } else {
            let c = run_replay(&mut spans);
            (run_engine(), c)
        };
        order += 1;

        let agree = match &wire {
            Ok(w) => same(w, &inproc) && same(&replayed, &inproc),
            Err(_) => false,
        };
        if !agree {
            mismatches += 1;
            if first_mismatch.is_none() {
                first_mismatch = Some(format!(
                    "{}: engine `{}` replay `{}` wire `{:?}`",
                    req.line,
                    inproc.header,
                    replayed.header,
                    wire.as_ref().map(|w| &w.header)
                ));
            }
        }
        tally.record(req, &wire);
        if let Some(samples) = samples {
            let mut bytes = Vec::new();
            inproc.write_to(&mut bytes).expect("serialize to memory");
            let t = Instant::now();
            let back = read_response(&mut Cursor::new(bytes));
            samples.push("protocol.read_response", t.elapsed().as_nanos() as u64);
            assert!(matches!(back, Ok(Some(_))), "response round-trips");
            samples.push("protocol.parse", parse_ns);
            let covered = samples.push_request(&spans);
            samples.push("engine.dispatch", disp_ns);
            samples.push("engine.self", disp_ns.saturating_sub(covered));
            samples.push("net.overhead", rtt_ns.saturating_sub(disp_ns));
            span_ns += covered;
            dispatch_ns += disp_ns;
            replay_ns += rep_ns;
            traced += 1;
        }
    };

    for (i, client) in wl.clients.iter().enumerate() {
        for req in &client.setup {
            step(&mut lanes[i], &mut replay, req, &mut tally, None);
        }
    }
    let cache0 = replay.cache.snapshot();
    let storage0 = replay.storage.as_ref().map(|s| storage_counts(s.stats()));
    let n = wl.clients.len();
    for k in 0..wl.trace_requests {
        let i = k % n;
        let req = (wl.clients[i].stream)();
        step(
            &mut lanes[i],
            &mut replay,
            &req,
            &mut tally,
            Some(&mut samples),
        );
    }
    if let Some(m) = first_mismatch {
        tally.failures.push(format!("replay mismatch: {m}"));
    }

    let mut metrics = Vec::new();
    for &(name, stage, unit) in TIMINGS {
        let scale = if unit == "us" { 1e-3 } else { 1.0 };
        let mut v: Vec<f64> = samples
            .0
            .get(stage)
            .map(|s| s.iter().map(|&ns| ns as f64 * scale).collect())
            .unwrap_or_default();
        v.sort_by(f64::total_cmp);
        let (p, tail) = tail_percentile(v.len());
        metrics.push(Metric::new(name, percentile(&v, 50.0), unit).samples(v.len()));
        metrics.push(
            Metric::new(&format!("{name}.tail"), percentile(&v, p), unit)
                .samples(v.len())
                .note(tail),
        );
    }

    let c = &replay.counts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (nodes, calls) = lanes
        .iter()
        .map(|l| l.replay.arena_counts())
        .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
    let cache1 = replay.cache.snapshot();
    let lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    let subplan = (cache1.subplan_hits - cache0.subplan_hits)
        + (cache1.subplan_misses - cache0.subplan_misses);
    let storage1 = replay.storage.as_ref().map(|s| storage_counts(s.stats()));
    let sdelta = |name: &str| match (&storage0, &storage1) {
        (Some(a), Some(b)) => {
            let get = |c: &[(&str, u64)]| c.iter().find(|e| e.0 == name).map_or(0, |e| e.1);
            (get(b) - get(a)) as f64
        }
        _ => 0.0,
    };
    let warm_file = dir(2).map_or(0, |d| {
        std::fs::metadata(d.join("cache.warm")).map_or(0, |m| m.len())
    });
    let mean_atoms = ratio(c.output_atoms.iter().sum(), c.output_atoms.len() as u64);
    let per_layer = [
        ("geom.steps", c.geom_steps as f64, "count"),
        ("geom.budget_trips", c.geom_budget_trips as f64, "count"),
        ("qe.output_atoms", mean_atoms, "atoms"),
        ("qe.plan_fm", c.plan_fm as f64, "count"),
        ("qe.plan_lw", c.plan_lw as f64, "count"),
        ("qe.plan_ch", c.plan_ch as f64, "count"),
        (
            "qe.subplan_hit_ratio",
            ratio(cache1.subplan_hits - cache0.subplan_hits, subplan),
            "ratio",
        ),
        ("logic.ir_dedup_ratio", ratio(calls, nodes), "ratio"),
        (
            "logic.eval_batch_ns_per_lane",
            ratio(c.eval_ns, c.eval_lanes),
            "ns",
        ),
        (
            "logic.fallback_lane_share",
            ratio(c.exact_lanes, c.fast_lanes + c.exact_lanes),
            "ratio",
        ),
        (
            "analyze.static_skip_share",
            ratio(c.static_skips, c.absint_runs),
            "ratio",
        ),
        (
            "approx.fill_ns_per_lane",
            ratio(c.fill_ns, c.fill_lanes),
            "ns",
        ),
        (
            "approx.box_skipped_share",
            ratio(c.box_skipped_lanes, c.fill_lanes),
            "ratio",
        ),
        (
            "cache.hit_ratio",
            ratio(cache1.hits - cache0.hits, lookups),
            "ratio",
        ),
        (
            "cache.evictions",
            (cache1.evictions - cache0.evictions) as f64,
            "count",
        ),
        ("cache.bytes_end", cache1.bytes as f64, "bytes"),
        ("storage.wal_bytes", sdelta("wal_bytes"), "bytes"),
        ("storage.warm_flushes", sdelta("warm_flushes"), "count"),
        ("storage.snapshots", sdelta("snapshots"), "count"),
        ("storage.warm_file_bytes", warm_file as f64, "bytes"),
        ("engine.span_coverage", ratio(span_ns, dispatch_ns), "ratio"),
        (
            "engine.trace_overhead_us",
            (replay_ns as f64 - dispatch_ns as f64) / traced.max(1) as f64 / 1e3,
            "us",
        ),
    ];
    metrics.extend(per_layer.iter().map(|&(n, v, u)| Metric::new(n, v, u)));
    // The in-process engine handled a fixed request sequence one request
    // at a time, so its counters repeat exactly for a seed.
    metrics.extend(
        engine_counters(&engine)
            .into_iter()
            .map(|m| m.note("repeats exactly per seed".into())),
    );

    server.stop(lanes.into_iter().map(|l| l.conn).collect());
    TraceResult {
        metrics,
        tally,
        mismatches,
    }
}

fn storage_counts(s: &StorageStats) -> [(&'static str, u64); 10] {
    [
        ("wal_records", EngineStats::get(&s.wal_records)),
        ("wal_bytes", EngineStats::get(&s.wal_bytes)),
        ("replayed_records", EngineStats::get(&s.replayed_records)),
        ("torn_bytes", EngineStats::get(&s.torn_bytes)),
        ("snapshots", EngineStats::get(&s.snapshots)),
        ("snapshot_errors", EngineStats::get(&s.snapshot_errors)),
        ("warm_loaded", EngineStats::get(&s.warm_loaded)),
        ("warm_skipped", EngineStats::get(&s.warm_skipped)),
        ("warm_flushes", EngineStats::get(&s.warm_flushes)),
        ("warm_errors", EngineStats::get(&s.warm_errors)),
    ]
}

fn cache_counts(c: &CacheSnapshot) -> [(&'static str, u64); 7] {
    [
        ("hits", c.hits),
        ("misses", c.misses),
        ("evictions", c.evictions),
        ("subplan_hits", c.subplan_hits),
        ("subplan_misses", c.subplan_misses),
        ("entries", c.entries as u64),
        ("bytes", c.bytes as u64),
    ]
}

/// The engine's own public counters (`EngineStats`, `CacheSnapshot`,
/// `StorageStats`) as per-layer counts.
pub fn engine_counters(engine: &Engine) -> Vec<Metric> {
    let s = &engine.stats;
    let stats = [
        ("degraded", &s.degraded),
        ("plan_fm", &s.plan_fm),
        ("plan_lw", &s.plan_lw),
        ("plan_ch", &s.plan_ch),
        ("batch_fast_lanes", &s.batch_fast_lanes),
        ("batch_exact_lanes", &s.batch_exact_lanes),
        ("absint_unsat_skips", &s.absint_unsat_skips),
        ("absint_valid_skips", &s.absint_valid_skips),
        ("absint_box_skipped_lanes", &s.absint_box_skipped_lanes),
        ("ir_nodes", &s.ir_nodes),
        ("ir_intern_calls", &s.ir_intern_calls),
    ];
    let mut out: Vec<(String, u64)> = stats
        .iter()
        .map(|(n, c)| (format!("counters.engine.{n}"), EngineStats::get(c)))
        .collect();
    out.extend(
        cache_counts(&engine.cache.snapshot())
            .iter()
            .map(|(n, v)| (format!("counters.cache.{n}"), *v)),
    );
    let storage = engine
        .storage
        .as_ref()
        .map(|st| storage_counts(st.stats()))
        .unwrap_or_else(|| storage_counts(&StorageStats::default()));
    out.extend(
        storage
            .iter()
            .map(|(n, v)| (format!("counters.storage.{n}"), *v)),
    );
    out.into_iter()
        .map(|(n, v)| Metric::new(&n, v as f64, "count"))
        .collect()
}
