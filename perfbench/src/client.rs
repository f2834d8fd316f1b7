//! The wire side: `cqa-serve` protocol clients, the closed loop of
//! the timed phase, and the server/engine lifecycle around them.

use crate::oracle::{check, Expect, Verdict};
use crate::workload::{Kind, Req};
use cqa_engine::{
    parse_command, read_response, spawn_server, Command, Engine, EngineConfig, Response,
    ServerHandle,
};
use std::collections::HashSet;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine every workload runs: `EngineConfig::default()`, plus the
/// data directory for the durable workload.
pub fn engine_config(data_dir: Option<&Path>) -> EngineConfig {
    EngineConfig {
        data_dir: data_dir.map(Path::to_path_buf),
        ..EngineConfig::default()
    }
}

/// The in-process form of a request, as the connection layer hands it to
/// `Engine::dispatch` (body already read).
pub fn command(req: &Req) -> Command {
    let mut cmd = parse_command(&req.line).expect("generated requests parse");
    match &mut cmd {
        Command::Load { program } if program.is_none() => program.clone_from(&req.body),
        Command::Batch { specs } => specs.clone_from(&req.body),
        _ => {}
    }
    cmd
}

/// One protocol connection.
pub struct Conn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Conn {
    /// Connects and consumes the server's greeting.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut conn = Conn {
            r: BufReader::new(s.try_clone()?),
            w: BufWriter::new(s),
        };
        let greeting = conn.recv()?;
        if !greeting.is_ok() {
            return Err(io::Error::other(format!("refused: {}", greeting.header)));
        }
        Ok(conn)
    }

    /// Writes one request: the command line, then a dot-terminated body.
    pub fn send(&mut self, req: &Req) -> io::Result<()> {
        writeln!(self.w, "{}", req.line)?;
        if let Some(body) = &req.body {
            for line in body.lines() {
                if line.starts_with('.') {
                    write!(self.w, ".")?;
                }
                writeln!(self.w, "{line}")?;
            }
            writeln!(self.w, ".")?;
        }
        self.w.flush()
    }

    pub fn recv(&mut self) -> io::Result<Response> {
        read_response(&mut self.r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    pub fn call(&mut self, req: &Req) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    /// Sends a bare command line and reads its response.
    pub fn call_line(&mut self, line: &str) -> io::Result<Response> {
        writeln!(self.w, "{line}")?;
        self.w.flush()?;
        self.recv()
    }
}

/// What one client observed.
#[derive(Default)]
pub struct Tally {
    /// Each timed request: when it completed (s after the timed phase
    /// began), its client-side latency (µs) and the ops it carried.
    pub timed: Vec<(f64, f64, u64)>,
    /// The same for `LOAD`s alone.
    pub load_lat_us: Vec<f64>,
    pub requests: u64,
    pub ops: u64,
    pub answers: u64,
    pub exact: u64,
    pub failed: u64,
    /// Source bytes of the `LOAD`s the server acknowledged.
    pub load_bytes: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Distinct `(ε, δ)` queries answered, and those answered outside ε.
    pub approx_seen: HashSet<String>,
    pub approx_outside: HashSet<String>,
    /// One checked (expectation, response) pair for the oracle self-check.
    pub sample: Option<(Expect, Response)>,
}

impl Tally {
    /// Checks one response against the oracle and counts it.
    pub fn record(&mut self, req: &Req, resp: &io::Result<Response>) -> Verdict {
        self.requests += 1;
        let v = match resp {
            Ok(r) => check(&req.expect, &r.header, &r.body),
            Err(_) => Verdict::default(),
        };
        for &(i, outside) in &v.approx {
            let key = match &req.body {
                Some(specs) if req.kind == Kind::Batch => {
                    format!("EXEC {}", specs.lines().nth(i).unwrap_or(""))
                }
                _ => req.line.clone(),
            };
            if outside {
                self.approx_outside.insert(key.clone());
            }
            self.approx_seen.insert(key);
        }
        if v.ok {
            self.ops += v.ops;
            self.answers += v.answers;
            self.exact += v.exact;
            if req.kind == Kind::Load {
                self.load_bytes += req.load_bytes();
            }
            if self.sample.is_none() && matches!(req.expect, Expect::Volume(_) | Expect::Batch(_)) {
                self.sample = resp.as_ref().ok().map(|r| (req.expect.clone(), r.clone()));
            }
        } else {
            self.failed += 1;
            if self.failures.len() < 5 {
                let got = match resp {
                    Ok(r) => format!("{} {:?}", r.header, r.body.first()),
                    Err(e) => format!("io error: {e}"),
                };
                self.failures.push(format!("{} -> {got}", req.line));
            }
        }
        v
    }

    pub fn merge(&mut self, o: Tally) {
        self.timed.extend(o.timed);
        self.load_lat_us.extend(o.load_lat_us);
        self.requests += o.requests;
        self.ops += o.ops;
        self.answers += o.answers;
        self.exact += o.exact;
        self.failed += o.failed;
        self.load_bytes += o.load_bytes;
        self.approx_seen.extend(o.approx_seen);
        self.approx_outside.extend(o.approx_outside);
        for f in o.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
        if self.sample.is_none() {
            self.sample = o.sample;
        }
    }
}

/// Runs requests one at a time on `conn`, checking each (set-up phases).
pub fn run_serial(conn: &mut Conn, reqs: &[Req], tally: &mut Tally) {
    for req in reqs {
        let resp = conn.call(req);
        tally.record(req, &resp);
    }
}

/// The closed loop of one client from `start` until `deadline`: at most
/// `window` requests in flight, the next sent only when a response frees
/// a slot.
/// Returns the tally and the time of the last completion.
pub fn drive(
    addr: SocketAddr,
    mut conn: Conn,
    stream: &mut (dyn FnMut() -> Req + Send),
    window: usize,
    start: Instant,
    deadline: Instant,
) -> (Tally, Instant, Conn) {
    let mut tally = Tally::default();
    let mut inflight: VecDeque<(Req, Instant)> = VecDeque::new();
    let mut last = Instant::now();
    loop {
        while inflight.len() < window && Instant::now() < deadline {
            let req = stream();
            if req.kind == Kind::Reopen {
                // Connection churn: finish what is in flight, say goodbye,
                // and continue on a fresh connection (a fresh session).
                while let Some((r, t0)) = inflight.pop_front() {
                    let resp = conn.recv();
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    let v = tally.record(&r, &resp);
                    tally.timed.push((
                        start.elapsed().as_secs_f64(),
                        us,
                        if v.ok { v.ops } else { 0 },
                    ));
                }
                let bye = conn.call(&req);
                match bye.and_then(|_| Conn::connect(addr)) {
                    Ok(c) => conn = c,
                    Err(e) => {
                        tally.failed += 1;
                        tally.failures.push(format!("reconnect: {e}"));
                        return (tally, Instant::now(), conn);
                    }
                }
                continue;
            }
            if let Err(e) = conn.send(&req) {
                tally.record(&req, &Err(e));
                return (tally, Instant::now(), conn);
            }
            inflight.push_back((req, Instant::now()));
        }
        let Some((req, t0)) = inflight.pop_front() else {
            break;
        };
        let resp = conn.recv();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        last = Instant::now();
        if req.kind == Kind::Load {
            tally.load_lat_us.push(us);
        }
        let broken = resp.is_err();
        let v = tally.record(&req, &resp);
        tally.timed.push((
            start.elapsed().as_secs_f64(),
            us,
            if v.ok { v.ops } else { 0 },
        ));
        if broken {
            tally.failed += inflight.len() as u64;
            tally.requests += inflight.len() as u64;
            break;
        }
    }
    (tally, last, conn)
}

/// A running server and the engine behind it.
pub struct Server {
    pub engine: Arc<Engine>,
    handle: ServerHandle,
}

impl Server {
    /// Constructs the engine (running recovery when it has a data
    /// directory) and starts the reactor on an ephemeral port.
    pub fn start(data_dir: Option<&Path>) -> Server {
        let engine = Arc::new(
            Engine::with_storage(engine_config(data_dir)).expect("the data directory recovers"),
        );
        let handle = spawn_server(Arc::clone(&engine)).expect("server starts");
        Server { engine, handle }
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Closes `conns`, sends `SHUTDOWN` and waits for the reactor and
    /// every worker to end.
    pub fn stop(self, conns: Vec<Conn>) {
        for mut c in conns {
            let _ = c.call_line("CLOSE");
        }
        let mut c = Conn::connect(self.addr()).expect("connect for SHUTDOWN");
        let _ = c.call_line("SHUTDOWN");
        drop(c);
        self.handle.join().expect("server stops cleanly");
    }
}

/// Copies the flat data directory `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create data directory");
    for entry in std::fs::read_dir(from).expect("read history directory") {
        let entry = entry.expect("directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy history file");
    }
}

/// Total size of the files in a flat directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Writes the durable workload's seeded history into `dir` through an
/// in-process engine, then shuts it down (flushing the warm file).
/// Returns the source bytes committed.
pub fn write_history(dir: &Path, history: &[Req], tally: &mut Tally) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let engine = Engine::with_storage(engine_config(Some(dir))).expect("history directory opens");
    let mut session = engine.open_session();
    let before = tally.load_bytes;
    for req in history {
        if req.kind == Kind::Reopen {
            session = engine.open_session();
            continue;
        }
        let resp = engine.dispatch(&mut session, command(req));
        tally.record(req, &Ok(resp));
    }
    engine.dispatch(&mut session, Command::Shutdown);
    tally.load_bytes - before
}

/// Scratch paths of one run, under the checkout's work directory.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> WorkDir {
        let dir =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work directory");
        WorkDir(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}
