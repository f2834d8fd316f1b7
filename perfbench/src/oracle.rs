//! The answer oracle: exact rationals and closed-form volumes computed by
//! the workload generator itself, never by the engine under test.
//!
//! `Q` is a deliberately tiny `i128` rational, independent of the
//! repository's `cqa-arith`, so an arithmetic defect in the engine cannot
//! also hide in its own check.

use std::fmt;

/// A reduced rational with a positive denominator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Q {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

impl Q {
    pub fn new(num: i128, den: i128) -> Q {
        assert!(den != 0, "zero denominator");
        let g = gcd(num, den) * den.signum();
        Q {
            num: num / g,
            den: den / g,
        }
    }

    pub fn int(n: i128) -> Q {
        Q::new(n, 1)
    }

    pub fn add(self, o: Q) -> Q {
        Q::new(self.num * o.den + o.num * self.den, self.den * o.den)
    }

    pub fn sub(self, o: Q) -> Q {
        Q::new(self.num * o.den - o.num * self.den, self.den * o.den)
    }

    pub fn mul(self, o: Q) -> Q {
        let (a, b) = (gcd(self.num, o.den), gcd(o.num, self.den));
        Q::new((self.num / a) * (o.num / b), (self.den / b) * (o.den / a))
    }

    pub fn div(self, o: Q) -> Q {
        self.mul(Q::new(o.den, o.num))
    }

    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Parses the engine's rendering of a rational: `p`, `-p` or `p/q`.
    pub fn parse(s: &str) -> Option<Q> {
        match s.split_once('/') {
            Some((n, d)) => {
                let (n, d): (i128, i128) = (n.parse().ok()?, d.parse().ok()?);
                (d != 0).then(|| Q::new(n, d))
            }
            None => Some(Q::int(s.parse().ok()?)),
        }
    }
}

impl fmt::Display for Q {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// The true volume of a query region: exact when the region is
/// semi-linear with rational vertices, real-valued (π r² and the like)
/// otherwise.
#[derive(Clone, Copy, Debug)]
pub struct Truth {
    pub rat: Option<Q>,
    pub real: f64,
}

impl Truth {
    pub fn exact(q: Q) -> Truth {
        Truth {
            rat: Some(q),
            real: q.to_f64(),
        }
    }

    pub fn real(x: f64) -> Truth {
        Truth { rat: None, real: x }
    }
}

/// What a correct response to one request looks like.
#[derive(Clone, Debug)]
pub enum Expect {
    /// An `OK` header starting with this verb (`LOAD`, `PREPARE`, …).
    Ok(&'static str),
    /// One `EXEC`/`VOLUME` answer.
    Volume(Truth),
    /// A `BATCH`: one answer per spec, in order.
    Batch(Vec<Truth>),
    /// A `SUM` value.
    Sum(Q),
}

/// The verdict on one response.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// No answer contradicts the oracle.
    pub ok: bool,
    /// Operations the response carries (each `EXEC` of a `BATCH` is one).
    pub ops: u64,
    /// `EXEC`/`VOLUME` answers among them.
    pub answers: u64,
    /// Answers tagged `status=exact`.
    pub exact: u64,
    /// Per `(ε, δ)` answer, by position in the response: whether it lies
    /// outside its ε of the truth (a δ-event, judged per run — see
    /// [`delta_bound`]).
    pub approx: Vec<(usize, bool)>,
}

/// The value of `key=` in a response header.
pub fn field<'a>(header: &'a str, key: &str) -> Option<&'a str> {
    header
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

enum Answer {
    Exact,
    /// An `(ε, δ)` answer; `true` when it lies within ε of the truth.
    Approx(bool),
    Wrong,
}

/// Checks one `EXEC`/`VOLUME` answer header. An exact answer must equal
/// the rational truth (or the real one to 1e-12 when the region has no
/// rational volume).
fn check_answer(header: &str, truth: &Truth) -> Answer {
    let value = field(header, "value").and_then(Q::parse);
    match (header.starts_with("OK"), value, field(header, "status")) {
        (true, Some(v), Some("exact")) => {
            let ok = match truth.rat {
                Some(q) => v == q,
                None => (v.to_f64() - truth.real).abs() <= 1e-12,
            };
            if ok {
                Answer::Exact
            } else {
                Answer::Wrong
            }
        }
        (true, Some(v), Some("approx")) => {
            match field(header, "eps").and_then(|e| e.parse::<f64>().ok()) {
                Some(eps) if (0.0..=1.0).contains(&v.to_f64()) => {
                    Answer::Approx((v.to_f64() - truth.real).abs() <= eps)
                }
                _ => Answer::Wrong,
            }
        }
        _ => Answer::Wrong,
    }
}

/// Checks a complete response (header plus payload lines).
pub fn check(expect: &Expect, header: &str, body: &[String]) -> Verdict {
    let mut v = Verdict {
        ok: true,
        ops: 1,
        ..Verdict::default()
    };
    let answer = |v: &mut Verdict, i: usize, line: &str, truth: &Truth| {
        v.answers += 1;
        match check_answer(line, truth) {
            Answer::Exact => v.exact += 1,
            Answer::Approx(within) => v.approx.push((i, !within)),
            Answer::Wrong => v.ok = false,
        }
    };
    match expect {
        Expect::Ok(verb) => {
            v.ok = header
                .strip_prefix("OK ")
                .is_some_and(|rest| rest.starts_with(verb));
        }
        Expect::Volume(truth) => answer(&mut v, 0, header, truth),
        Expect::Batch(truths) => {
            v.ops = truths.len() as u64;
            v.ok = header.starts_with(&format!("OK BATCH n={} errors=0", truths.len()))
                && body.len() == truths.len();
            for (i, (line, truth)) in body.iter().zip(truths).enumerate() {
                answer(&mut v, i, line, truth);
            }
        }
        Expect::Sum(q) => {
            v.ok = header.starts_with("OK SUM")
                && field(header, "value").and_then(Q::parse) == Some(*q);
        }
    }
    v
}

/// The largest share of distinct `(ε, δ)` queries in a run that may lie
/// outside ε before the run counts them as failures: the engine promises
/// each estimate is within ε with probability at least `1 − δ`, so among
/// `n` distinct queries the share outside is at most `δ` plus three
/// binomial standard deviations.
pub fn delta_bound(delta: f64, n: usize) -> f64 {
    delta + 3.0 * (delta * (1.0 - delta) / n.max(1) as f64).sqrt()
}

/// A copy of `expect` with every expected value moved off the truth by
/// more than any tolerance the checker allows: the oracle self-check
/// feeds it a real response and requires a mismatch.
pub fn perturbed(expect: &Expect) -> Expect {
    let shift = |t: &Truth| Truth {
        rat: t.rat.map(|q| q.add(Q::new(1, 7))),
        real: t.real + 1.0 / 7.0,
    };
    match expect {
        Expect::Ok(_) => Expect::Ok("NOT-A-VERB"),
        Expect::Volume(t) => Expect::Volume(shift(t)),
        Expect::Batch(ts) => {
            let mut ts = ts.clone();
            if let Some(first) = ts.first_mut() {
                *first = shift(first);
            }
            Expect::Batch(ts)
        }
        Expect::Sum(q) => Expect::Sum(q.add(Q::new(1, 7))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rationals_reduce_and_parse() {
        assert_eq!(Q::new(6, -8), Q::new(-3, 4));
        assert_eq!(Q::parse("3/4"), Some(Q::new(3, 4)));
        assert_eq!(Q::parse("0"), Some(Q::int(0)));
        assert_eq!(Q::new(1, 3).add(Q::new(1, 6)), Q::new(1, 2));
        assert_eq!(Q::new(2, 3).mul(Q::new(9, 4)), Q::new(3, 2));
        assert_eq!(Q::new(7, 2).to_string(), "7/2");
    }

    #[test]
    fn answers_are_checked_against_the_truth() {
        let t = Truth::exact(Q::new(3, 4));
        let hit = "OK EXEC band status=exact value=3/4 cache=hit steps=17";
        let v = check(&Expect::Volume(t), hit, &[]);
        assert!(v.ok && v.exact == 1);
        assert!(!check(&perturbed(&Expect::Volume(t)), hit, &[]).ok);
        let mc = "OK EXEC d status=approx value=443/739 eps=0.05 delta=0.05 samples=739";
        let disk = Truth::real(std::f64::consts::PI * 0.75 / 4.0);
        let v = check(&Expect::Volume(disk), mc, &[]);
        assert!(v.ok && v.exact == 0 && v.answers == 1);
        assert_eq!(v.approx, vec![(0, false)]);
        let far = check(&perturbed(&Expect::Volume(disk)), mc, &[]);
        assert_eq!(far.approx, vec![(0, true)]);
        assert!(!check(&Expect::Volume(t), "ERR volume too many DNF cells", &[]).ok);
    }

    #[test]
    fn delta_bound_tightens_with_more_queries() {
        assert!(delta_bound(0.05, 3) > 0.4);
        assert!(delta_bound(0.05, 1000) < 0.075);
        assert!(delta_bound(0.05, 100_000) < 0.053);
    }
}
