//! Correctness oracles: answers computed without the buffer, the top-k
//! engine or the wire, compared bit for bit with what the system served.

use std::cmp::Ordering;
use std::collections::HashMap;

use coupling::{MixedStrategy, ResultOrigin};
use irs::IrsCollection;
use oodb::Oid;
use serve::Response;

/// How one served answer compares with its oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Correct.
    Ok,
    /// Wrong shape or content.
    Wrong,
    /// Served from the stale store, which a healthy run never needs.
    Stale,
}

/// Present an `OID → value` map the way the server does: value
/// descending, ties by OID.
pub fn ranked(map: &HashMap<Oid, f64>) -> Vec<(Oid, f64)> {
    let mut hits: Vec<(Oid, f64)> = map.iter().map(|(&o, &v)| (o, v)).collect();
    hits.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    hits
}

/// Exhaustive evaluation of `query` (no buffer, no pruning), cut to the
/// first `limit` hits, folded to OIDs: the single-node reference answer.
pub fn exhaustive(irs: &IrsCollection, query: &str, limit: Option<usize>) -> HashMap<Oid, f64> {
    let mut hits = irs.search(query).expect("oracle query parses");
    if let Some(k) = limit {
        hits.truncate(k);
    }
    hits.into_iter()
        .filter_map(|h| Oid::parse(&h.key).map(|oid| (oid, h.score)))
        .collect()
}

/// Bit-identical hit lists.
pub fn same_hits(got: &[(Oid, f64)], want: &[(Oid, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits())
}

/// Compare a served response with the expected one. Origins other than
/// `Stale` are not compared: fresh and buffered answers must agree.
pub fn judge(got: &Response, want: &Response) -> Verdict {
    if origin(got) == Some(ResultOrigin::Stale) {
        return Verdict::Stale;
    }
    let same = match (got, want) {
        (Response::IrsResult { hits: g, .. }, Response::IrsResult { hits: w, .. }) => {
            same_hits(g, w)
        }
        (
            Response::Mixed {
                oids: g,
                strategy: gs,
                ..
            },
            Response::Mixed {
                oids: w,
                strategy: ws,
                ..
            },
        ) => g == w && gs == ws,
        (Response::Value(g), Response::Value(w)) => g.to_bits() == w.to_bits(),
        _ => false,
    };
    if same {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

/// Shape check for reads whose exact answer moves under concurrent
/// writes: the right variant, at most `limit` hits in serving order,
/// finite values, no stale origin.
pub fn judge_shape(
    got: &Response,
    limit: Option<usize>,
    strategy: Option<MixedStrategy>,
) -> Verdict {
    if origin(got) == Some(ResultOrigin::Stale) {
        return Verdict::Stale;
    }
    let ok = match got {
        Response::IrsResult { hits, .. } => {
            strategy.is_none()
                && limit.is_none_or(|k| hits.len() <= k)
                && hits.iter().all(|h| h.1.is_finite())
                && hits.windows(2).all(|w| w[0].1 >= w[1].1)
        }
        Response::Mixed {
            oids, strategy: s, ..
        } => Some(*s) == strategy && oids.windows(2).all(|w| w[0] < w[1]),
        Response::Value(v) => strategy.is_none() && v.is_finite() && *v >= 0.0,
        _ => false,
    };
    if ok {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

fn origin(resp: &Response) -> Option<ResultOrigin> {
    match resp {
        Response::IrsResult { origin, .. } | Response::Mixed { origin, .. } => Some(*origin),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(score: f64) -> Response {
        Response::IrsResult {
            hits: vec![(Oid(3), score), (Oid(1), 0.25)],
            origin: ResultOrigin::Fresh,
        }
    }

    #[test]
    fn one_ulp_is_a_mismatch() {
        let want = result(0.5);
        assert_eq!(judge(&result(0.5), &want), Verdict::Ok);
        let nudged = f64::from_bits(0.5f64.to_bits() + 1);
        assert_eq!(judge(&result(nudged), &want), Verdict::Wrong);
        assert_eq!(
            judge(&Response::Value(nudged), &Response::Value(0.5)),
            Verdict::Wrong
        );
    }

    #[test]
    fn buffered_matches_fresh_but_stale_never_passes() {
        let want = result(0.5);
        let buffered = Response::IrsResult {
            hits: vec![(Oid(3), 0.5), (Oid(1), 0.25)],
            origin: ResultOrigin::Buffered,
        };
        assert_eq!(judge(&buffered, &want), Verdict::Ok);
        let stale = Response::IrsResult {
            hits: vec![(Oid(3), 0.5), (Oid(1), 0.25)],
            origin: ResultOrigin::Stale,
        };
        assert_eq!(judge(&stale, &want), Verdict::Stale);
        assert_eq!(judge_shape(&stale, None, None), Verdict::Stale);
    }

    #[test]
    fn shape_checks_limit_order_and_variant() {
        assert_eq!(judge_shape(&result(0.5), Some(2), None), Verdict::Ok);
        assert_eq!(judge_shape(&result(0.5), Some(1), None), Verdict::Wrong);
        assert_eq!(judge_shape(&result(0.1), None, None), Verdict::Wrong);
        let mixed = Response::Mixed {
            oids: vec![Oid(1), Oid(2)],
            strategy: MixedStrategy::IrsFirst,
            origin: ResultOrigin::Buffered,
        };
        assert_eq!(
            judge_shape(&mixed, None, Some(MixedStrategy::IrsFirst)),
            Verdict::Ok
        );
        assert_eq!(
            judge_shape(&mixed, None, Some(MixedStrategy::Independent)),
            Verdict::Wrong
        );
    }

    #[test]
    fn ranking_breaks_ties_by_oid() {
        let map: HashMap<Oid, f64> = [(Oid(9), 1.0), (Oid(2), 1.0), (Oid(5), 2.0)].into();
        assert_eq!(
            ranked(&map),
            vec![(Oid(5), 2.0), (Oid(2), 1.0), (Oid(9), 1.0)]
        );
    }
}
