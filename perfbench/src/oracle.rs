//! The in-process oracle every HTTP answer is checked against.

use onex_core::{normalized_distance, Onex, QueryOptions};
use onex_server::json::Json;

/// One match as the `/api/match` JSON reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Series name.
    pub series: String,
    /// Window start.
    pub start: usize,
    /// Window length.
    pub len: usize,
    /// Raw DTW distance.
    pub distance: f64,
}

/// The engine's own top-`k` for `query` under `opts`: the answer the
/// route must return.
pub fn expected(engine: &Onex, query: &[f64], k: usize, opts: &QueryOptions) -> Vec<Hit> {
    let (matches, _) = engine
        .k_best(query, k, opts)
        .expect("benchmark queries are valid");
    matches
        .into_iter()
        .map(|m| Hit {
            series: m.series_name,
            start: m.subseq.start as usize,
            len: m.subseq.len as usize,
            distance: m.distance,
        })
        .collect()
}

fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(obj: &Json, key: &str) -> Result<f64, String> {
    match field(obj, key) {
        Some(Json::Num(v)) => Ok(*v),
        other => Err(format!("{key}: expected a number, got {other:?}")),
    }
}

/// Parse a `/api/match` body: the backend that answered and its matches.
/// A degraded fan-out answer (some shards missing) is an error.
pub fn parse_match(body: &[u8]) -> Result<(String, Vec<Hit>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let backend = match field(&json, "backend") {
        Some(Json::Str(s)) => s.clone(),
        other => return Err(format!("backend: {other:?}")),
    };
    if let Some(cov) = field(&json, "coverage") {
        if field(cov, "degraded") != Some(&Json::Bool(false)) {
            return Err("degraded fan-out answer".into());
        }
    }
    let Some(Json::Arr(items)) = field(&json, "matches") else {
        return Err("matches: not an array".into());
    };
    let hits = items
        .iter()
        .map(|m| {
            let series = match field(m, "series") {
                Some(Json::Str(s)) => s.clone(),
                other => return Err(format!("series: {other:?}")),
            };
            Ok(Hit {
                series,
                start: num(m, "start")? as usize,
                len: num(m, "len")? as usize,
                distance: num(m, "distance")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((backend, hits))
}

/// Parse an `/api/append` body: the series appended and the epoch it
/// published.
pub fn parse_append(body: &[u8]) -> Result<(String, u64), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    match field(&json, "appended") {
        Some(Json::Str(name)) => Ok((name.clone(), num(&json, "epoch")? as u64)),
        other => Err(format!("appended: {other:?}")),
    }
}

/// `got` must equal `want` exactly, order and distances included.
pub fn check_exact(got: &[Hit], want: &[Hit]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("answer {got:?} differs from the oracle {want:?}"))
    }
}

/// Distances agree when equal up to rounding in the last bits.
fn same_distance(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The value matches are ranked by: the distance normalised by the
/// longer of the query and the match (lengths differ under `Nearest`).
fn rank_key(h: &Hit, query_len: usize) -> f64 {
    normalized_distance(h.distance, query_len, h.len)
}

/// `got` must equal `want` up to distance ties at the k boundary: the
/// same ranking values in order, and every match strictly better than
/// the k-th present. Fan-out backends may resolve a tie to either window.
pub fn check_up_to_ties(got: &[Hit], want: &[Hit], query_len: usize) -> Result<(), String> {
    let fail = || Err(format!("answer {got:?} differs from the oracle {want:?}"));
    let key = |h: &Hit| rank_key(h, query_len);
    if got.len() != want.len()
        || got
            .iter()
            .zip(want)
            .any(|(g, w)| !same_distance(key(g), key(w)))
    {
        return fail();
    }
    let Some(kth) = want.last().map(key) else {
        return Ok(());
    };
    let present = |w: &Hit| {
        got.iter()
            .any(|g| g.series == w.series && g.start == w.start && g.len == w.len)
    };
    if want
        .iter()
        .all(|w| same_distance(key(w), kth) || present(w))
    {
        Ok(())
    } else {
        fail()
    }
}

/// A read served while appends were landing: `k` matches, best first,
/// with a top-1 no worse than before the first append and no better
/// than after the last (appends only add candidates).
pub fn check_between(
    got: &[Hit],
    k: usize,
    before: &[Hit],
    after: &[Hit],
    query_len: usize,
) -> Result<(), String> {
    let key = |h: &Hit| rank_key(h, query_len);
    let top = |h: &[Hit]| h.first().map(key);
    let (Some(d), Some(hi), Some(lo)) = (top(got), top(before), top(after)) else {
        return Err("empty answer".into());
    };
    if got.len() != k || got.windows(2).any(|w| key(&w[0]) > key(&w[1])) {
        return Err(format!("answer {got:?} is not {k} matches best first"));
    }
    if d < lo || d > hi {
        return Err(format!(
            "top-1 normalised distance {d} outside [{lo}, {hi}] spanned by the oracle \
             before and after the appends"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(series: &str, start: usize, distance: f64) -> Hit {
        Hit {
            series: series.into(),
            start,
            len: 24,
            distance,
        }
    }

    fn answer() -> Vec<Hit> {
        vec![hit("a", 0, 0.5), hit("b", 3, 0.7), hit("c", 9, 0.9)]
    }

    #[test]
    fn parses_what_the_server_renders() {
        let body = br#"{"backend":"onex","metric":"raw-dtw","exact":true,"matches":[{"series":"a","start":0,"len":24,"distance":0.5}],"stats":{}}"#;
        let (backend, hits) = parse_match(body).unwrap();
        assert_eq!(backend, "onex");
        assert_eq!(hits, vec![hit("a", 0, 0.5)]);
        let degraded = br#"{"backend":"cluster","matches":[],"coverage":{"shards_answered":3,"shards_total":4,"degraded":true}}"#;
        assert!(parse_match(degraded).is_err());
        let appended = br#"{"appended":"w","epoch":3,"series":201,"subsequences":909,"groups":9}"#;
        assert_eq!(parse_append(appended).unwrap(), ("w".to_owned(), 3));
        assert!(parse_append(br#"{"epoch":3}"#).is_err());
    }

    #[test]
    fn corrupted_answers_are_rejected() {
        let want = answer();
        assert!(check_exact(&want, &want).is_ok());
        let mut moved = want.clone();
        moved[1].start += 1;
        let mut farther = want.clone();
        farther[0].distance += 1e-6;
        let short = want[..2].to_vec();
        for bad in [&moved, &farther, &short] {
            assert!(check_exact(bad, &want).is_err());
            assert!(check_up_to_ties(bad, &want, 24).is_err());
        }
    }

    #[test]
    fn ties_at_the_k_boundary_may_resolve_either_way() {
        let want = answer();
        let mut tied = want.clone();
        tied[2] = hit("d", 1, 0.9);
        assert!(check_up_to_ties(&tied, &want, 24).is_ok());
        assert!(check_exact(&tied, &want).is_err());
        // A swap above the boundary is not a tie.
        let mut swapped = want.clone();
        swapped[1] = hit("d", 1, 0.7);
        assert!(check_up_to_ties(&swapped, &want, 24).is_err());
    }

    #[test]
    fn reads_during_appends_must_lie_between_the_oracles() {
        let before = answer();
        let after = vec![hit("new", 0, 0.2), hit("a", 0, 0.5), hit("b", 3, 0.7)];
        let between = |got: &[Hit]| check_between(got, 3, &before, &after, 24);
        assert!(between(&before).is_ok());
        assert!(between(&after).is_ok());
        let too_good = vec![hit("x", 0, 0.1), hit("a", 0, 0.5), hit("b", 3, 0.7)];
        assert!(between(&too_good).is_err());
        let too_bad = vec![hit("x", 0, 0.6), hit("a", 0, 0.7), hit("b", 3, 0.8)];
        assert!(between(&too_bad).is_err());
        assert!(between(&before[..2]).is_err());
        // Ranked by normalised distance: a longer match may carry the
        // larger raw distance and still come first.
        let mut longer = before.clone();
        longer[1] = Hit {
            len: 30,
            distance: 0.75,
            ..longer[1].clone()
        };
        assert!(between(&longer).is_ok());
    }
}
