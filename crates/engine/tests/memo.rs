//! The cache slot's exact-answer memo: a memo hit — same session,
//! another session, or an ad-hoc `VOLUME` of the same region — must render
//! exactly the header a fresh integration of the cached entry renders,
//! value and `steps=` included.

use cqa_engine::{Engine, EngineConfig, EngineStats, WarmSlot};
use proptest::prelude::*;

/// One linear atom `a*x + b*y <= c/8` over the output columns `x`, `y`.
fn atom() -> impl Strategy<Value = String> {
    (-3i64..=3, -3i64..=3, -4i64..=12, any::<bool>()).prop_map(|(a, b, c, strict)| {
        let op = if strict { "<" } else { "<=" };
        format!("{a}*x + {b}*y {op} {c}/8")
    })
}

/// A union of one to three conjunctions of one to three atoms, optionally
/// behind an existential over a third variable `z` (which the elimination
/// projects away).
fn formula() -> impl Strategy<Value = String> {
    let cell = prop::collection::vec(atom(), 1..=3).prop_map(|atoms| atoms.join(" & "));
    (prop::collection::vec(cell, 1..=3), any::<bool>(), -2i64..=2).prop_map(
        |(cells, quantified, k)| {
            let body = cells
                .iter()
                .map(|c| format!("({c})"))
                .collect::<Vec<_>>()
                .join(" | ");
            // The region always mentions both columns, so EXEC and VOLUME
            // agree on the output dimension.
            let frame = "0 <= x & x <= 1 & 0 <= y & y <= 1";
            if quantified {
                format!("(exists z. x <= z & z <= y + {k}/4 & ({body})) & {frame}")
            } else {
                format!("({body}) & {frame}")
            }
        },
    )
}

/// The header a fresh integration of the engine's single cached query
/// entry renders on a hit.
fn fresh_header(engine: &Engine, verb_and_name: &str) -> String {
    let entries: Vec<_> = engine
        .cache
        .export()
        .into_iter()
        .filter_map(|s| match s {
            WarmSlot::Query(_, e) => Some(e),
            WarmSlot::Subplan(..) => None,
        })
        .collect();
    assert_eq!(entries.len(), 1, "one query slot");
    let budget = engine.request_budget();
    let v = cqa_geom::volume_in_unit_box_with_budget(&entries[0].qf, &entries[0].qf_vars, &budget)
        .expect("linear entries integrate");
    format!(
        "OK {verb_and_name} status=exact value={v} cache=hit steps={}",
        budget.steps()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn memo_hits_render_the_fresh_integration_header(src in formula()) {
        let engine = Engine::new(EngineConfig::default());
        let mut first = engine.open_session();
        prop_assert!(engine.prepare(&mut first, "q", &src).is_ok());
        let cold = engine.exec(&mut first, "q", None, None);
        prop_assert!(cold.header.contains("status=exact"), "{src}: {cold:?}");
        prop_assert!(cold.header.contains("cache=miss"), "{src}: {cold:?}");

        // Same session (memoized-key fast path), another session (full
        // pipeline, shared slot), and an ad-hoc VOLUME of the same region.
        let warm = engine.exec(&mut first, "q", None, None);
        let mut second = engine.open_session();
        prop_assert!(engine.prepare(&mut second, "q", &src).is_ok());
        let cross = engine.exec(&mut second, "q", None, None);
        let volume = engine.volume(&mut second, &src);

        let exec_header = fresh_header(&engine, "EXEC q");
        prop_assert_eq!(&warm.header, &exec_header, "{}", src);
        prop_assert_eq!(&cross.header, &exec_header, "{}", src);
        prop_assert_eq!(&volume.header, &fresh_header(&engine, "VOLUME -"), "{}", src);
        prop_assert_eq!(EngineStats::get(&engine.stats.memo_hits), 3);
    }
}
