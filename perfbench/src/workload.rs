//! The four workloads, generated from a seed.
//!
//! Every request carries the answer the oracle expects, computed here in
//! closed form from the same seeded constants that went into the formula
//! text. The engine sees only the generated request lines.

use crate::oracle::{Expect, Truth, Q};
use std::f64::consts::PI;

pub const WORKLOADS: [&str; 4] = [
    "warm_exact",
    "warm_pipelined",
    "cold_query",
    "durable_churn",
];

/// SplitMix64: a small, fixed generator, so the inputs of a seed never
/// change with the repository's own `rand` shim.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x0005_EED0_FC0A_BE7C)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i128, hi: i128) -> i128 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i128
    }

    pub fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The request verbs the benchmark sends, plus `Reopen`: close the
/// connection (or in-process session) and open a fresh one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Load,
    Prepare,
    Exec,
    Batch,
    Volume,
    Sum,
    Persist,
    Reopen,
}

/// One request: its command line, an optional dot-terminated body, and
/// the oracle's expectation.
#[derive(Clone, Debug)]
pub struct Req {
    pub kind: Kind,
    pub line: String,
    pub body: Option<String>,
    pub expect: Expect,
}

impl Req {
    fn new(kind: Kind, line: String, expect: Expect) -> Req {
        Req {
            kind,
            line,
            body: None,
            expect,
        }
    }

    fn load_body(src: String) -> Req {
        Req {
            kind: Kind::Load,
            line: "LOAD".into(),
            body: Some(src),
            expect: Expect::Ok("LOAD"),
        }
    }

    fn reopen() -> Req {
        Req::new(Kind::Reopen, "CLOSE".into(), Expect::Ok("CLOSE"))
    }

    /// Source bytes a `LOAD` commits: the program text, newline-terminated
    /// as the engine appends it.
    pub fn load_bytes(&self) -> u64 {
        let src = match (&self.body, self.line.strip_prefix("LOAD ")) {
            (Some(b), _) => b.as_str(),
            (None, Some(inline)) => inline,
            (None, None) => return 0,
        };
        (src.len() + usize::from(!src.ends_with('\n'))) as u64
    }
}

/// One connection of a workload: the requests that prepare its session
/// (part of set-up) and the seeded request stream of the timed phase.
pub struct Client {
    pub setup: Vec<Req>,
    pub stream: Box<dyn FnMut() -> Req + Send>,
}

/// A generated workload.
pub struct Workload {
    pub clients: Vec<Client>,
    /// Requests kept in flight per connection (1 = one outstanding request).
    pub window: usize,
    /// For `durable_churn`: the history written into the data directory
    /// before the timed set-up starts (run in-process, `Reopen` = fresh
    /// session).
    pub history: Option<Vec<Req>>,
    /// Requests the traced replay runs (after set-up).
    pub trace_requests: usize,
}

// ---- Query shapes with closed-form volumes over the unit box ----------

/// A named prepared query with its true volume.
#[derive(Clone)]
struct Query {
    name: String,
    src: String,
    truth: Truth,
}

fn q(name: &str, src: String, truth: Truth) -> Query {
    Query {
        name: name.into(),
        src,
        truth,
    }
}

/// `S = [0, a] ∪ [b, 2]` plus the endpoint-sum Σ-term over it.
fn band_program(a: Q, b: Q) -> String {
    format!(
        "rel S(y) := (0 <= y & y <= {a}) | ({b} <= y & y <= 2)\n\
         sum EndpointSum(w) := true | END[y. S(y)] ; xout . xout = w\n"
    )
}

fn band_constants(rng: &mut Rng) -> (Q, Q) {
    (Q::new(rng.range(13, 29), 64), Q::new(rng.range(35, 51), 64))
}

/// `S(x) & x <= 1` over the band: `a + (1 - b)`.
fn band_query(a: Q, b: Q) -> Query {
    q(
        "band",
        "S(x) & x <= 1".into(),
        Truth::exact(a.add(Q::int(1)).sub(b)),
    )
}

/// The right triangle `x, y >= 0, x + y <= c`: `c²/2`.
fn triangle(c: Q) -> (String, Truth) {
    (
        format!("x >= 0 & y >= 0 & x + y <= {c}"),
        Truth::exact(c.mul(c).mul(Q::new(1, 2))),
    )
}

/// The same triangle as the ∃-projection of a 3-D region.
fn proj3(c: Q) -> (String, Truth) {
    (
        format!("exists z. (0 <= z & z <= x & x + y + z <= {c} & y >= 0)"),
        Truth::exact(c.mul(c).mul(Q::new(1, 2))),
    )
}

/// The same triangle as the ∃∃-projection of a 4-D region.
fn proj4(c: Q) -> (String, Truth) {
    (
        format!("exists z. exists w. (0 <= z & z <= x & 0 <= w & w <= y & x + y + z + w <= {c})"),
        Truth::exact(c.mul(c).mul(Q::new(1, 2))),
    )
}

/// The ∃-projection of a 2-D wedge between four lower lines `z >= aᵢx`
/// (and `z >= 0`) and four upper lines `z <= c - bⱼx`: Fourier–Motzkin
/// pairs every lower bound with every upper one, so the cached output is
/// large, but the shadow is the segment `0 <= x <= c/(A + B)` with
/// `A = max aᵢ`, `B = max bⱼ`.
fn wedge(rng: &mut Rng) -> (String, Truth) {
    // c < 3/4 <= A + B keeps the segment inside the unit interval.
    let c = Q::new(rng.range(1 << 19, 3 << 18), 1 << 20);
    let a: Vec<Q> = (0..4).map(|_| Q::new(rng.range(4, 8), 16)).collect();
    let b: Vec<Q> = (0..4).map(|_| Q::new(rng.range(8, 15), 16)).collect();
    let max = |v: &[Q]| {
        *v.iter()
            .max_by(|x, y| x.to_f64().total_cmp(&y.to_f64()))
            .expect("four lines")
    };
    let lower: Vec<String> = a.iter().map(|ai| format!("z >= {ai}*x")).collect();
    let upper: Vec<String> = b.iter().map(|bj| format!("z <= {c} - {bj}*x")).collect();
    (
        format!(
            "exists z. (z >= 0 & {} & {})",
            lower.join(" & "),
            upper.join(" & ")
        ),
        Truth::exact(c.div(max(&a).add(max(&b)))),
    )
}

/// `k` disjoint intervals `[s(2i+1)/(2k+1), s(2i+2)/(2k+1)]`: `s·k/(2k+1)`.
fn interval_union(k: i128, s: Q) -> (String, Truth) {
    let cells: Vec<String> = (0..k)
        .map(|i| {
            let lo = s.mul(Q::new(2 * i + 1, 2 * k + 1));
            let hi = s.mul(Q::new(2 * i + 2, 2 * k + 1));
            format!("({lo} <= x & x <= {hi})")
        })
        .collect();
    (cells.join(" | "), Truth::exact(s.mul(Q::new(k, 2 * k + 1))))
}

/// `a·x + b·y >= c` with integer coefficients, signs rendered.
fn halfplane(a: i128, b: i128, c: i128) -> String {
    let sign = if b < 0 { '-' } else { '+' };
    format!("{a}*x {sign} {}*y >= {c}", b.abs())
}

/// A seeded convex pentagon with vertices on the 1/64 grid inside the
/// unit square, as five half-planes; its area by the shoelace formula.
fn pentagon(rng: &mut Rng) -> (String, Truth) {
    loop {
        let radius = rng.range(18, 27) as f64;
        let phase = rng.range(0, 71) as f64 * 2.0 * PI / 360.0;
        let pts: Vec<(i128, i128)> = (0..5)
            .map(|i| {
                let jitter = rng.range(-8, 8) as f64 * PI / 180.0;
                let t = phase + jitter + i as f64 * 2.0 * PI / 5.0;
                (
                    (32.0 + radius * t.cos()).round() as i128,
                    (32.0 + radius * t.sin()).round() as i128,
                )
            })
            .collect();
        let edge = |i: usize| (pts[i], pts[(i + 1) % 5]);
        // Strictly convex, counter-clockwise: every turn is a left turn.
        let convex = (0..5).all(|i| {
            let ((x1, y1), (x2, y2)) = edge(i);
            let (x3, y3) = pts[(i + 2) % 5];
            (x2 - x1) * (y3 - y2) - (y2 - y1) * (x3 - x2) > 0
        });
        if !convex {
            continue;
        }
        // Interior is left of each directed edge (x1,y1)->(x2,y2), in
        // grid units X = 64x: dx(Y - y1) - dy(X - x1) >= 0.
        let facets: Vec<String> = (0..5)
            .map(|i| {
                let ((x1, y1), (x2, y2)) = edge(i);
                let (dx, dy) = (x2 - x1, y2 - y1);
                halfplane(-64 * dy, 64 * dx, dx * y1 - dy * x1)
            })
            .collect();
        let twice_area: i128 = (0..5)
            .map(|i| {
                let ((x1, y1), (x2, y2)) = edge(i);
                x1 * y2 - x2 * y1
            })
            .sum();
        return (
            facets.join(" & "),
            Truth::exact(Q::new(twice_area, 2 * 64 * 64)),
        );
    }
}

/// The corner simplex with intercepts `n/16` on each axis: `n₁n₂n₃/(6·16³)`.
fn simplex3(rng: &mut Rng) -> (String, Truth) {
    let (n1, n2, n3) = (rng.range(8, 16), rng.range(8, 16), rng.range(8, 16));
    (
        format!(
            "x >= 0 & y >= 0 & z >= 0 & {}*x + {}*y + {}*z <= {}",
            16 * n2 * n3,
            16 * n1 * n3,
            16 * n1 * n2,
            n1 * n2 * n3
        ),
        Truth::exact(Q::new(n1 * n2 * n3, 6 * 4096)),
    )
}

/// The quarter disk `x² + y² <= r²` clipped to the unit box: `πr²/4`.
fn disk(r2: Q) -> (String, Truth) {
    (
        format!("x*x + y*y <= {r2}"),
        Truth::real(PI * r2.to_f64() / 4.0),
    )
}

/// The ∃-projection of a ball at the origin: again `πr²/4`.
fn ball_shadow(r2: Q) -> (String, Truth) {
    (
        format!("exists z. x*x + y*y + z*z <= {r2}"),
        Truth::real(PI * r2.to_f64() / 4.0),
    )
}

/// A seeded ball whose shadow lies inside the unit square.
fn shifted_ball(rng: &mut Rng, den: i128) -> (Q, Q, Q, Q) {
    let r = Q::new(rng.range(den / 10, 3 * den / 10), den);
    let lo = r.to_f64();
    let center = |rng: &mut Rng| {
        let lo_n = (lo * den as f64).ceil() as i128;
        Q::new(rng.range(lo_n, den - lo_n), den)
    };
    (center(rng), center(rng), center(rng), r)
}

/// `∃z` of a shifted ball: a disk of radius `r` inside the square, `πr²`.
fn ball_disk(rng: &mut Rng, den: i128) -> (String, Truth) {
    let (a, b, h, r) = shifted_ball(rng, den);
    (
        format!(
            "exists z. (x - {a})^2 + (y - {b})^2 + (z - {h})^2 <= {}",
            r.mul(r)
        ),
        Truth::real(PI * r.to_f64() * r.to_f64()),
    )
}

/// `∃y ∃z` of a shifted ball: the segment `[a - r, a + r]`, length `2r`.
fn ball_segment(rng: &mut Rng, den: i128) -> (String, Truth) {
    let (a, b, h, r) = shifted_ball(rng, den);
    (
        format!(
            "exists y. exists z. (x - {a})^2 + (y - {b})^2 + (z - {h})^2 <= {}",
            r.mul(r)
        ),
        Truth::exact(r.mul(Q::int(2))),
    )
}

/// A fresh triangle constant in `[1/2, 1)` with a 2⁻²⁰ grid: with this
/// many values, repeats among a run's requests are rare.
fn fresh_c(rng: &mut Rng) -> Q {
    Q::new(rng.range(1 << 19, (1 << 20) - 1), 1 << 20)
}

fn prepare_all(queries: &[Query]) -> Vec<Req> {
    queries
        .iter()
        .map(|qu| {
            Req::new(
                Kind::Prepare,
                format!("PREPARE {} {}", qu.name, qu.src),
                Expect::Ok("PREPARE"),
            )
        })
        .collect()
}

fn exec(qu: &Query) -> Req {
    Req::new(
        Kind::Exec,
        format!("EXEC {}", qu.name),
        Expect::Volume(qu.truth),
    )
}

fn volume((src, truth): (String, Truth)) -> Req {
    Req::new(Kind::Volume, format!("VOLUME {src}"), Expect::Volume(truth))
}

// ---- The workloads -----------------------------------------------------

/// The exact semi-linear set of the ROADMAP seed rows, with seeded
/// constants; two of each seeded shape, so one seed's constants sway the
/// mix less.
fn exact_queries(rng: &mut Rng, a: Q, b: Q) -> Vec<Query> {
    let mut qs = vec![band_query(a, b)];
    for i in 1..=2 {
        let (src, t) = triangle(Q::new(rng.range(40, 63), 64));
        qs.push(q(&format!("tri{i}"), src, t));
        let (src, t) = pentagon(rng);
        qs.push(q(&format!("poly5_{i}"), src, t));
        let (src, t) = simplex3(rng);
        qs.push(q(&format!("simplex3_{i}"), src, t));
        let (src, t) = proj3(Q::new(rng.range(40, 63), 64));
        qs.push(q(&format!("proj3_{i}"), src, t));
    }
    for k in 2..=5 {
        let (src, t) = interval_union(k, Q::new(rng.range(5, 8), 8));
        qs.push(q(&format!("union{k}"), src, t));
    }
    qs
}

fn warm_exact(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let (a, b) = band_constants(&mut rng);
    let queries = exact_queries(&mut rng, a, b);
    let clients = (0..2)
        .map(|i| {
            let mut setup = vec![Req::load_body(band_program(a, b))];
            setup.extend(prepare_all(&queries));
            // The first client's EXECs are the cold misses that fill the
            // cache; the second client's are already hits.
            setup.extend(queries.iter().map(exec));
            let mut rng = Rng::new(seed.wrapping_add(1 + i));
            let qs = queries.clone();
            Client {
                setup,
                stream: Box::new(move || exec(&qs[rng.pick(qs.len())])),
            }
        })
        .collect();
    Workload {
        clients,
        window: 1,
        history: None,
        trace_requests: 500,
    }
}

/// Specs per `BATCH` body and `BATCH`es in flight on the one connection.
const BATCH_SPECS: usize = 64;
const BATCH_WINDOW: usize = 4;

fn warm_pipelined(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let (src, t) = disk(Q::new(rng.range(32, 60), 64));
    let mut queries = vec![q("disk", src, t)];
    let (src, t) = ball_shadow(Q::new(rng.range(32, 60), 64));
    queries.push(q("ball", src, t));
    let (src, t) = ball_disk(&mut rng, 64);
    queries.push(q("sball", src, t));
    // Statically decided: the absint verdict replaces elimination.
    // A statically *valid* query is left out: its exact answer integrates
    // the whole unit box on every hit, which is warm_exact's mechanism.
    let lo = Q::new(rng.range(1, 20), 64);
    let hi = Q::new(rng.range(40, 63), 64);
    queries.push(q(
        "empty",
        format!("x <= {lo} & x >= {hi}"),
        Truth::exact(Q::int(0)),
    ));
    queries.push(q(
        "pempty",
        format!("x*x + y*y <= -{lo}"),
        Truth::exact(Q::int(0)),
    ));
    let mut setup = prepare_all(&queries);
    setup.extend(queries.iter().map(exec));
    let mut rng = Rng::new(seed.wrapping_add(1));
    let stream = move || {
        let picks: Vec<&Query> = (0..BATCH_SPECS)
            .map(|_| &queries[rng.pick(queries.len())])
            .collect();
        let specs: Vec<&str> = picks.iter().map(|qu| qu.name.as_str()).collect();
        Req {
            kind: Kind::Batch,
            line: "BATCH".into(),
            body: Some(specs.join("\n")),
            expect: Expect::Batch(picks.iter().map(|qu| qu.truth).collect()),
        }
    };
    Workload {
        clients: vec![Client {
            setup,
            stream: Box::new(stream),
        }],
        window: BATCH_WINDOW,
        history: None,
        trace_requests: 1200,
    }
}

/// Cold `VOLUME`s each client sends during set-up, so the timed phase
/// starts on a cache that already holds a working set.
const COLD_PREFILL: usize = 150;

/// One cold request: a fresh-constant projection, or the Σ-term.
fn cold_request(rng: &mut Rng, sum: Q) -> Req {
    match rng.pick(20) {
        0..=4 => volume(wedge(rng)),
        5..=8 => volume(proj4(fresh_c(rng))),
        9..=14 => volume(ball_disk(rng, 1 << 12)),
        15..=17 => volume(ball_segment(rng, 1 << 12)),
        _ => Req::new(Kind::Sum, "SUM EndpointSum".into(), Expect::Sum(sum)),
    }
}

fn cold_query(seed: u64) -> Workload {
    let clients = (0..2)
        .map(|i| {
            let mut rng = Rng::new(seed.wrapping_add(1 + i));
            let (a, b) = band_constants(&mut rng);
            let sum = a.add(b).add(Q::int(2));
            let mut setup = vec![Req::load_body(band_program(a, b))];
            setup.extend((0..COLD_PREFILL).map(|_| cold_request(&mut rng, sum)));
            Client {
                setup,
                stream: Box::new(move || cold_request(&mut rng, sum)),
            }
        })
        .collect();
    Workload {
        clients,
        window: 1,
        history: None,
        trace_requests: 3500,
    }
}

/// `LOAD`s per durable database before the writer moves to the next one
/// (a session attaches to one durable database, once).
const LOADS_PER_DB: u64 = 32;
/// Databases the seeded history fills before set-up.
const HISTORY_DBS: u64 = 3;
/// Cold misses in the seeded history: the warm file's starting size.
const HISTORY_MISSES: usize = 200;

fn durable_queries(rng: &mut Rng, a: Q, b: Q) -> Vec<Query> {
    let mut qs = vec![band_query(a, b)];
    let (src, t) = triangle(Q::new(rng.range(40, 63), 64));
    qs.push(q("tri", src, t));
    let (src, t) = proj3(Q::new(rng.range(40, 63), 64));
    qs.push(q("proj3", src, t));
    let (src, t) = interval_union(2, Q::new(rng.range(5, 8), 8));
    qs.push(q("union2", src, t));
    qs
}

/// The writer's request generator: `LOAD`s of small seeded relations into
/// durable database `w<db>`, moving to a fresh database (new session)
/// every [`LOADS_PER_DB`] commits.
struct Writer {
    rng: Rng,
    db: u64,
    n: u64,
}

impl Writer {
    fn attach(&self) -> Req {
        Req::new(
            Kind::Persist,
            format!("PERSIST w{}", self.db),
            Expect::Ok("PERSIST"),
        )
    }

    fn next(&mut self) -> Req {
        if self.n == LOADS_PER_DB {
            self.n = 0;
            self.db += 1;
            return Req::reopen();
        }
        if self.n == 0 && self.db > 0 {
            self.n += 1;
            return self.attach();
        }
        let lo = Q::new(self.rng.range(0, 31), 64);
        let hi = Q::new(self.rng.range(32, 64), 64);
        let id = self.n;
        self.n += 1;
        Req::new(
            Kind::Load,
            format!("LOAD rel R{id}(x) := {lo} <= x & x <= {hi}"),
            Expect::Ok("LOAD"),
        )
    }
}

fn durable_churn(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let (a, b) = band_constants(&mut rng);
    let queries = durable_queries(&mut rng, a, b);

    // History: the main database with the band, the warm cache filled by
    // the prepared queries plus a run of cold misses, and a few writer
    // databases (enough WAL records for a snapshot compaction).
    let mut history = vec![
        Req::new(Kind::Persist, "PERSIST main".into(), Expect::Ok("PERSIST")),
        Req::load_body(band_program(a, b)),
    ];
    history.extend(prepare_all(&queries));
    history.extend(queries.iter().map(exec));
    for _ in 0..HISTORY_MISSES {
        history.push(volume(proj3(fresh_c(&mut rng))));
    }
    let mut writer = Writer {
        rng: Rng::new(seed.wrapping_add(7)),
        db: 0,
        n: 0,
    };
    history.push(Req::reopen());
    history.push(writer.attach());
    while writer.db < HISTORY_DBS {
        history.push(writer.next());
    }
    history.push(Req::reopen());

    let mut reader_setup = vec![Req::new(
        Kind::Persist,
        "PERSIST main".into(),
        Expect::Ok("PERSIST"),
    )];
    reader_setup.extend(prepare_all(&queries));
    reader_setup.extend(queries.iter().map(exec));
    let mut rrng = Rng::new(seed.wrapping_add(1));
    let reader = move || {
        if rrng.pick(8) == 0 {
            volume(proj3(fresh_c(&mut rrng)))
        } else {
            exec(&queries[rrng.pick(queries.len())])
        }
    };
    let writer_setup = vec![writer.attach()];
    writer.n = 1;
    Workload {
        clients: vec![
            Client {
                setup: reader_setup,
                stream: Box::new(reader),
            },
            Client {
                setup: writer_setup,
                stream: Box::new(move || writer.next()),
            },
        ],
        window: 1,
        history: Some(history),
        trace_requests: 800,
    }
}

/// The workload `name` generated from `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "warm_exact" => warm_exact(seed),
        "warm_pipelined" => warm_pipelined(seed),
        "cold_query" => cold_query(seed),
        "durable_churn" => durable_churn(seed),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        for name in WORKLOADS {
            let mut a = generate(name, 11).unwrap();
            let mut b = generate(name, 11).unwrap();
            for (ca, cb) in a.clients.iter_mut().zip(&mut b.clients) {
                for _ in 0..50 {
                    assert_eq!((ca.stream)().line, (cb.stream)().line);
                }
            }
        }
    }

    #[test]
    fn writer_rotates_databases() {
        let mut w = Writer {
            rng: Rng::new(1),
            db: 0,
            n: 1,
        };
        let kinds: Vec<Kind> = (0..LOADS_PER_DB + 2).map(|_| w.next().kind).collect();
        assert_eq!(kinds[..LOADS_PER_DB as usize - 1], [Kind::Load; 31]);
        assert_eq!(kinds[LOADS_PER_DB as usize - 1], Kind::Reopen);
        assert_eq!(kinds[LOADS_PER_DB as usize], Kind::Persist);
    }

    #[test]
    fn pentagon_area_matches_triangulation() {
        let mut rng = Rng::new(3);
        for _ in 0..20 {
            let (src, t) = pentagon(&mut rng);
            assert_eq!(src.matches(">=").count(), 5);
            let area = t.real;
            assert!(area > 0.2 && area < 0.8, "{area}");
        }
    }
}
