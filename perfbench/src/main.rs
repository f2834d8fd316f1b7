//! `cqa-perfbench`: the repository benchmark of `cqa-engine`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm_exact|warm_pipelined|cold_query|durable_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics: an in-process `spawn_server` with `EngineConfig::default()`
//! driven over loopback TCP by closed-loop clients for `--seconds`.
//! `--trace 1` replays a fixed number of the workload's requests through
//! every layer with spans (see `trace.rs`) and reports per-layer metrics.
//! Every answer is checked against a closed-form oracle. The last stdout
//! line is one JSON object; the lines before it are the same figures for
//! people, with units, sample counts and run metadata.

mod client;
mod metrics;
mod oracle;
mod replay;
mod trace;
mod workload;

use client::{copy_dir, dir_bytes, drive, run_serial, write_history, Conn, Server, Tally, WorkDir};
use metrics::{json, median, peak_rss_mb, percentile, tail_percentile, Metric};
use oracle::{check, delta_bound, perturbed, Verdict};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The engine's default δ for `(ε, δ)` answers.
const DEFAULT_DELTA: f64 = 0.05;

/// Windows of the timed phase; throughput and latency are medians over them.
const WINDOWS: usize = 4;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The end-to-end metrics `BENCHMARK.json` bounds.
const END_TO_END: &[&str] = &[
    "setup_s",
    "ops_per_s",
    "latency_p50_us",
    "latency_p99_us",
    "exact_share",
    "peak_rss_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The checkout's git revision, read from `.git` directly (no process);
/// `unknown` outside a git work tree.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the engine's sources (`crates/*/src`, sorted), so two
/// runs outside git can still tell whether they measured the same code.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else if p.extension().is_some_and(|x| x == "rs") {
                    files.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The end-to-end run: set up `SETUP_REPS` times, then the closed loop.
fn end_to_end(args: &Args, work: &WorkDir) -> (Vec<Metric>, Tally) {
    let mut wl = workload::generate(&args.workload, args.seed).expect("known workload");
    let mut tally = Tally::default();
    let history = work.path("history");
    let data = work.path("data");
    let mut committed = 0;
    if let Some(h) = &wl.history {
        committed += write_history(&history, h, &mut tally);
    }
    let durable = wl.history.is_some();

    let mut setup_s = Vec::new();
    let mut running = None;
    for rep in 0..SETUP_REPS {
        if durable {
            copy_dir(&history, &data);
        }
        let t0 = Instant::now();
        let server = Server::start(durable.then_some(data.as_path()));
        let mut conns = Vec::new();
        for client in &wl.clients {
            let mut conn = Conn::connect(server.addr()).expect("connect");
            run_serial(&mut conn, &client.setup, &mut tally);
            conns.push(conn);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            server.stop(conns);
        } else {
            running = Some((server, conns));
        }
    }
    let (server, conns) = running.expect("at least one set-up");

    let addr = server.addr();
    let window = wl.window;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let results: Vec<(Tally, Instant, Conn)> = std::thread::scope(|s| {
        let handles: Vec<_> = wl
            .clients
            .iter_mut()
            .zip(conns)
            .map(|(client, conn)| {
                s.spawn(move || drive(addr, conn, &mut *client.stream, window, start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = results.iter().map(|r| r.1).max().unwrap_or(start);
    let mut timed = Tally::default();
    let mut conns = Vec::new();
    for (t, _, c) in results {
        timed.merge(t);
        conns.push(c);
    }
    let counters = trace::engine_counters(&server.engine);
    server.stop(conns);

    // Throughput and latency per window of the timed phase, reported as
    // the median over windows: one stall of the shared machine then moves
    // one window, not the run's figure.
    let span = end.duration_since(start).as_secs_f64().max(1e-9);
    let width = span / WINDOWS as f64;
    let mut rates = Vec::new();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut min_n = usize::MAX;
    for w in 0..WINDOWS {
        let (lo, hi) = (w as f64 * width, (w + 1) as f64 * width);
        let inside: Vec<&(f64, f64, u64)> = timed
            .timed
            .iter()
            .filter(|t| t.0 >= lo && (t.0 < hi || w + 1 == WINDOWS))
            .collect();
        let mut lat: Vec<f64> = inside.iter().map(|t| t.1).collect();
        lat.sort_by(f64::total_cmp);
        min_n = min_n.min(lat.len());
        rates.push(inside.iter().map(|t| t.2).sum::<u64>() as f64 / width);
        p50s.push(percentile(&lat, 50.0));
        p99s.push(percentile(&lat, 99.0));
    }
    let (tail_p, tail_label) = tail_percentile(min_n);
    let n = timed.timed.len();
    let attempted = tally.requests + timed.requests;
    let failed = tally.failed + timed.failed;
    let mut m = vec![
        Metric::new("setup_s", median(&setup_s), "s")
            .samples(setup_s.len())
            .note("median of set-ups".into()),
        Metric::new("ops_per_s", median(&rates), "ops/s")
            .samples(timed.ops as usize)
            .note(format!("median of {WINDOWS} windows")),
        Metric::new("latency_p50_us", median(&p50s), "us")
            .samples(n)
            .note(format!("median of {WINDOWS} windows")),
        Metric::new("latency_p99_us", median(&p99s), "us")
            .samples(n)
            .note(if tail_p >= 99.0 {
                format!("median of {WINDOWS} windows of >= {min_n} samples; supported")
            } else {
                format!("NOT supported: a window holds {min_n} samples, enough for {tail_label}")
            }),
        Metric::new(
            "exact_share",
            if timed.answers == 0 {
                0.0
            } else {
                timed.exact as f64 / timed.answers as f64
            },
            "ratio",
        )
        .samples(timed.answers as usize),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new(
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        )
        .samples(attempted as usize),
    ];
    if durable {
        let mut w = timed.load_lat_us.clone();
        w.sort_by(f64::total_cmp);
        m.push(Metric::new("write_latency_p50_us", percentile(&w, 50.0), "us").samples(w.len()));
        committed += timed.load_bytes;
        let disk = dir_bytes(&data);
        m.push(
            Metric::new(
                "disk_bytes_per_user_byte",
                disk as f64 / committed.max(1) as f64,
                "ratio",
            )
            .note(format!(
                "{disk} bytes on disk / {committed} LOAD source bytes"
            )),
        );
    }
    m.extend(
        counters
            .into_iter()
            .map(|c| c.note("closed loop: varies run to run".into())),
    );
    tally.merge(timed);
    (m, tally)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cqa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# run workload={} seed={} seconds={} trace={} nproc={} git_rev={} source_digest={} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_revision(),
        source_digest(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let work = WorkDir::new(&args.workload);
    let (metrics, mut tally, mismatches) = if args.trace {
        let wl = workload::generate(&args.workload, args.seed).expect("known workload");
        let r = trace::run(wl, &work);
        (r.metrics, r.tally, r.mismatches)
    } else {
        let (m, t) = end_to_end(&args, &work);
        (m, t, 0)
    };
    drop(work);

    // (ε, δ) answers outside ε: allowed up to the share δ permits among
    // the run's distinct approximate queries; beyond it, each counts.
    let (n, k) = (tally.approx_seen.len(), tally.approx_outside.len());
    let bound = delta_bound(DEFAULT_DELTA, n);
    let share = k as f64 / n.max(1) as f64;
    if share > bound {
        tally.failed += k as u64;
    }
    println!(
        "# oracle: {n} distinct (eps, delta) queries, {k} answered outside eps \
         (share {share:.4}, allowed up to {bound:.4} at delta={DEFAULT_DELTA})"
    );
    let mut outside: Vec<&String> = tally.approx_outside.iter().collect();
    outside.sort();
    for q in outside.iter().take(3) {
        println!("# outside eps: {q}");
    }

    // Oracle self-check: the same response against a perturbed
    // expectation must be flagged, or the oracle checks nothing.
    let flagged = |v: Verdict| !v.ok || v.approx.iter().any(|&(_, out)| out);
    let caught = match &tally.sample {
        Some((expect, resp)) => {
            !flagged(check(expect, &resp.header, &resp.body))
                && flagged(check(&perturbed(expect), &resp.header, &resp.body))
        }
        None => false,
    };
    println!(
        "# oracle: {} requests checked, {} failed; self-check with a perturbed expectation {}",
        tally.requests,
        tally.failed,
        if caught {
            "was caught"
        } else {
            "was NOT caught"
        }
    );
    if args.trace {
        println!("# replay: {mismatches} responses differ between wire, engine and replay");
    }
    for f in &tally.failures {
        println!("# failure: {f}");
    }
    for m in &metrics {
        println!("{}", m.line());
    }
    let wanted: Vec<&Metric> = if args.trace {
        metrics.iter().collect()
    } else {
        metrics
            .iter()
            .filter(|m| END_TO_END.contains(&m.name.as_str()))
            .collect()
    };
    let correct = tally.failed == 0 && mismatches == 0 && caught;
    println!(
        "{}",
        json(correct, tally.requests.max(1), tally.failed, &wanted)
    );
    ExitCode::SUCCESS
}
