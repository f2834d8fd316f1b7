//! The cache warm-start file: the QE/kernel/subplan cache, persisted.
//!
//! The cache keys (`CacheKey { hash: u128, dim }` + the `SlotKind`
//! namespace) are *session-independent by construction* — 128-bit
//! canonical structural hashes invariant under variable interning,
//! α-renaming, child order and atom scaling — so a cache entry written by
//! one process is addressable by any later process that sees the same
//! query. That is exactly what makes warm-starting sound: a recovered
//! boot loads this file and serves warm `EXEC`/subplan-hit latency
//! instead of re-running quantifier elimination (the Giusti–Heintz
//! dominant cost), with answers bit-identical because the stored artifact
//! *is* the QE output the cold path would recompute.
//!
//! ### File format (text, line-oriented)
//!
//! ```text
//! CQAWARM1
//! Q <hash:hex> <dim> <class> <fragment> <params|-> <box|->
//! <formula, one line>
//! S <hash:hex> <dim> <params|->
//! <formula, one line>
//! #sum <fnv1a64:hex>
//! ```
//!
//! Formulas are printed with the round-trip-tested pretty-printer using
//! position-stable synthetic names, and re-parsed on load; the compiled
//! kernel is *not* stored — it is rebuilt from the quantifier-free
//! formula in microseconds (compilation is cheap; elimination is what the
//! file exists to skip). The whole file is checksummed: any mismatch
//! makes the load a no-op — the warm file is an optimization, never a
//! source of truth, so unlike a damaged snapshot a damaged warm file
//! degrades to a cold cache instead of failing the boot.

use super::wal::checksum64;
use super::StorageError;
use crate::cache::{formula_bytes, CacheEntry, CacheKey, QueryCache, SubplanEntry, WarmSlot};
use cqa_logic::{parse_formula_with, CompiledMatrix, ConstraintClass, SlotMap, VarMap};
use cqa_poly::Var;
use std::path::Path;

const MAGIC: &str = "CQAWARM1";

fn class_token(c: ConstraintClass) -> &'static str {
    match c {
        ConstraintClass::DenseOrder => "dense",
        ConstraintClass::Linear => "lin",
        ConstraintClass::Polynomial => "poly",
    }
}

fn parse_class(tok: &str) -> Option<ConstraintClass> {
    match tok {
        "dense" => Some(ConstraintClass::DenseOrder),
        "lin" => Some(ConstraintClass::Linear),
        "poly" => Some(ConstraintClass::Polynomial),
        _ => None,
    }
}

/// The engine only ever stores these two fragment verdicts; interning the
/// strings back to `&'static str` keeps `CacheEntry` unchanged.
fn parse_fragment(tok: &str) -> Option<&'static str> {
    match tok {
        "FO+LIN" => Some("FO+LIN"),
        "FO+POLY" => Some("FO+POLY"),
        _ => None,
    }
}

fn params_token(params: &[Var], names: &VarMap) -> String {
    if params.is_empty() {
        "-".to_string()
    } else {
        params
            .iter()
            .map(|v| names.name(*v))
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn box_token(mc_box: &Option<Vec<(f64, f64)>>) -> String {
    match mc_box {
        None => "-".to_string(),
        Some(bx) => bx
            .iter()
            .map(|(lo, hi)| format!("{:016x}:{:016x}", lo.to_bits(), hi.to_bits()))
            .collect::<Vec<_>>()
            .join(","),
    }
}

fn parse_box(tok: &str) -> Option<Option<Vec<(f64, f64)>>> {
    if tok == "-" {
        return Some(None);
    }
    let mut out = Vec::new();
    for pair in tok.split(',') {
        let (lo, hi) = pair.split_once(':')?;
        let lo = u64::from_str_radix(lo, 16).ok()?;
        let hi = u64::from_str_radix(hi, 16).ok()?;
        out.push((f64::from_bits(lo), f64::from_bits(hi)));
    }
    Some(Some(out))
}

/// Serializes the cache export to the warm-file text (checksum line
/// included). Deterministic: the export is sorted by the caller.
pub fn encode(slots: &[WarmSlot]) -> String {
    let records: Vec<String> = slots.iter().map(encode_slot).collect();
    encode_records(&records)
}

/// One slot's record: its header line and its formula line. A record
/// depends on the slot alone, so the cache memoizes it per slot and a
/// flush only concatenates (see [`crate::QueryCache`]).
pub(crate) fn encode_slot(slot: &WarmSlot) -> String {
    // Synthetic, position-stable names for every variable index: the
    // empty map's fallback naming (`x{index}`) is injective, so the
    // printed formula and the params token agree on names.
    let names = VarMap::new();
    let (mut out, qf) = match slot {
        WarmSlot::Query(key, e) => (
            format!(
                "Q {:032x} {} {} {} {} {}\n",
                key.hash,
                key.dim,
                class_token(e.class),
                e.fragment,
                params_token(&e.qf_vars, &names),
                box_token(&e.mc_box),
            ),
            &e.qf,
        ),
        WarmSlot::Subplan(key, e) => (
            format!(
                "S {:032x} {} {}\n",
                key.hash,
                key.dim,
                params_token(&e.params, &names),
            ),
            &e.qf,
        ),
    };
    out.push_str(&cqa_logic::display_formula(qf, &names));
    out.push('\n');
    out
}

/// The warm-file text of `records` (each from [`encode_slot`], in export
/// order): magic line, the records, checksum trailer.
pub(crate) fn encode_records<R: AsRef<str>>(records: &[R]) -> String {
    let mut out = String::from(MAGIC);
    out.push('\n');
    for r in records {
        out.push_str(r.as_ref());
    }
    let sum = checksum64(out.as_bytes());
    out.push_str(&format!("#sum {sum:016x}\n"));
    out
}

fn parse_key(hash: &str, dim: &str) -> Option<CacheKey> {
    Some(CacheKey {
        hash: u128::from_str_radix(hash, 16).ok()?,
        dim: dim.parse().ok()?,
    })
}

fn parse_params(tok: &str, vars: &mut VarMap) -> Vec<Var> {
    if tok == "-" {
        Vec::new()
    } else {
        tok.split(',').map(|name| vars.intern(name)).collect()
    }
}

/// Decodes the warm-file text and inserts every reconstructible entry
/// into `cache`. Returns `(loaded, skipped)`; file-level damage (bad
/// magic, checksum mismatch, truncation) is a typed error and loads
/// nothing. Individual entries that no longer reconstruct (unparsable
/// formula, uncompilable kernel) are skipped, not fatal: the warm file is
/// a cache, and a partial warm start is still a warm start.
pub fn decode_into(
    text: &str,
    path: &Path,
    cache: &QueryCache,
) -> Result<(u64, u64), StorageError> {
    let corrupt = |detail: &str| StorageError::Corrupt {
        file: path.display().to_string(),
        detail: detail.to_string(),
    };
    let (body, sum_line) = text
        .rsplit_once("#sum ")
        .ok_or_else(|| corrupt("missing #sum trailer"))?;
    let sum = u64::from_str_radix(sum_line.trim(), 16).map_err(|_| corrupt("bad #sum value"))?;
    if checksum64(body.as_bytes()) != sum {
        return Err(corrupt("checksum mismatch"));
    }
    let mut lines = body.lines();
    if lines.next() != Some(MAGIC) {
        return Err(corrupt("missing CQAWARM1 magic"));
    }
    let mut loaded = 0u64;
    let mut skipped = 0u64;
    while let Some(head) = lines.next() {
        let Some(formula_src) = lines.next() else {
            return Err(corrupt("header line without formula line"));
        };
        let fields: Vec<&str> = head.split_whitespace().collect();
        let ok = match fields.as_slice() {
            ["Q", hash, dim, class, fragment, params, mc_box] => (|| {
                let key = parse_key(hash, dim)?;
                let class = parse_class(class)?;
                let fragment = parse_fragment(fragment)?;
                let mc_box = parse_box(mc_box)?;
                let mut vars = VarMap::new();
                let qf = parse_formula_with(formula_src, &mut vars).ok()?;
                let qf_vars = parse_params(params, &mut vars);
                let kernel = CompiledMatrix::compile(&qf, &SlotMap::from_vars(&qf_vars)).ok()?;
                let bytes = formula_bytes(&qf) + 64 * kernel.atom_count();
                cache.insert(
                    key,
                    CacheEntry {
                        qf,
                        qf_vars,
                        kernel,
                        class,
                        fragment,
                        bytes,
                        mc_box,
                    },
                );
                Some(())
            })()
            .is_some(),
            ["S", hash, dim, params] => (|| {
                let key = parse_key(hash, dim)?;
                let mut vars = VarMap::new();
                let qf = parse_formula_with(formula_src, &mut vars).ok()?;
                let params = parse_params(params, &mut vars);
                let bytes = formula_bytes(&qf);
                cache.insert_subplan(key, SubplanEntry { qf, params, bytes });
                Some(())
            })()
            .is_some(),
            _ => false,
        };
        if ok {
            loaded += 1;
        } else {
            skipped += 1;
        }
    }
    Ok((loaded, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_logic::parse_formula;
    use std::path::PathBuf;

    fn query_entry(src: &str) -> CacheEntry {
        let (qf, _) = parse_formula(src).unwrap();
        let qf_vars: Vec<Var> = qf.free_vars().into_iter().collect();
        let kernel = CompiledMatrix::compile(&qf, &SlotMap::from_vars(&qf_vars)).unwrap();
        let bytes = formula_bytes(&qf) + 64 * kernel.atom_count();
        CacheEntry {
            class: qf.class(),
            fragment: "FO+LIN",
            qf,
            qf_vars,
            kernel,
            bytes,
            mc_box: Some(vec![(0.25, 0.75)]),
        }
    }

    #[test]
    fn roundtrip_preserves_keys_and_formulas() {
        let cache = QueryCache::new(1 << 20);
        cache.insert(
            CacheKey {
                hash: 0xABC,
                dim: 1,
            },
            query_entry("1/4 <= x & x <= 3/4"),
        );
        let (sub, _) = parse_formula("x < 1/2").unwrap();
        let params: Vec<Var> = sub.free_vars().into_iter().collect();
        cache.insert_subplan(
            CacheKey {
                hash: 0xDEF,
                dim: 1,
            },
            SubplanEntry {
                bytes: formula_bytes(&sub),
                qf: sub,
                params,
            },
        );
        let text = encode(&cache.export());
        let fresh = QueryCache::new(1 << 20);
        let (loaded, skipped) = decode_into(&text, &PathBuf::from("t.warm"), &fresh).unwrap();
        assert_eq!((loaded, skipped), (2, 0));
        let back = fresh
            .get(CacheKey {
                hash: 0xABC,
                dim: 1,
            })
            .expect("query entry");
        assert_eq!(back.fragment, "FO+LIN");
        assert_eq!(back.mc_box, Some(vec![(0.25, 0.75)]));
        assert_eq!(back.qf_vars.len(), 1);
        assert!(fresh
            .get_subplan(CacheKey {
                hash: 0xDEF,
                dim: 1
            })
            .is_some());
        // Re-encoding the reloaded cache is stable (same count of slots).
        assert_eq!(fresh.export().len(), 2);
    }

    #[test]
    fn checksum_mismatch_loads_nothing() {
        let cache = QueryCache::new(1 << 20);
        cache.insert(CacheKey { hash: 1, dim: 1 }, query_entry("x <= 1/2"));
        let mut text = encode(&cache.export());
        // Corrupt one body byte, keep the trailer.
        let idx = MAGIC.len() + 3;
        text.replace_range(idx..idx + 1, "#");
        let fresh = QueryCache::new(1 << 20);
        match decode_into(&text, &PathBuf::from("t.warm"), &fresh) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(fresh.snapshot().entries, 0);
    }

    #[test]
    fn unreconstructible_entries_are_skipped_not_fatal() {
        let text_body = format!(
            "{MAGIC}\nQ 00000000000000000000000000000001 1 lin FO+LIN x0 -\nthis is not a formula\n"
        );
        let sum = checksum64(text_body.as_bytes());
        let text = format!("{text_body}#sum {sum:016x}\n");
        let fresh = QueryCache::new(1 << 20);
        let (loaded, skipped) = decode_into(&text, &PathBuf::from("t.warm"), &fresh).unwrap();
        assert_eq!((loaded, skipped), (0, 1));
    }
}
