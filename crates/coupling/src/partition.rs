//! Shard-per-node IRS partitioning with scatter/gather top-k.
//!
//! [`crate::remote`] scales *availability*: N replicas of one index.
//! This module scales *capacity*: a collection's documents are split
//! across N **partition groups**, each group being a [`RemoteIrs`]
//! replica set of its shard — so every partition keeps the full
//! hedging/breaker/stale machinery of replica serving, and the router
//! composes partitions on top.
//!
//! # The global-statistics exchange
//!
//! Every retrieval model scores with corpus-wide statistics (`df`,
//! `n_docs`, `avg_doc_len`) that no partition knows alone; scoring each
//! partition with its *local* statistics would make scores incomparable
//! across partitions and the merged ranking diverge from a single-node
//! index. A read therefore runs in two scatter legs:
//!
//! 1. **Stats** — every partition reports its local
//!    [`QueryGlobals`] for the query; the router sums them
//!    ([`QueryGlobals::merge`]), which reconstructs the union index's
//!    statistics *exactly* (partitions are disjoint, so counts add).
//! 2. **Search** — every partition ranks its own documents under the
//!    merged globals and returns at most `k` candidates, pruned locally
//!    with the top-k engine's score upper bounds.
//!
//! The router then merges the per-partition lists with the engine's own
//! selection comparator — score descending, ties by ascending IRS *key
//! string* — truncates to `k`, and only then folds keys into OIDs. The
//! key-string tie-break matters: `"oid:10"` sorts before `"oid:9"`
//! lexicographically, and the single-node engine selects at the
//! k-boundary by key string, so merging by numeric OID would pick a
//! different document on score ties. Because a global top-k under one
//! comparator is always a subset of the union of per-partition top-ks,
//! the merged result is **bit-identical** to single-node evaluation —
//! the partition proptest in `tests/partition.rs` pins this.
//!
//! # Degradation
//!
//! A partial ranking silently missing one partition's documents would
//! be indistinguishable from a correct answer, so it is never served:
//! if any partition fails both scatter legs' hedging, the whole read
//! degrades — to the last merged result for the same `(collection,
//! query)` (marked [`ResultOrigin::Stale`]), or to the partition's
//! transient error when the store is cold.

use std::sync::atomic::{AtomicU64, Ordering};

use irs::QueryGlobals;
use oodb::Oid;

use crate::collection::ResultOrigin;
use crate::error::{CouplingError, ErrorKind, Result};
use crate::remote::{RemoteConfig, RemoteIrs, ReplicaTransport};
use crate::stale::StaleStore;

/// Tuning for a partitioned fan-out.
#[derive(Debug, Clone, Default)]
pub struct PartitionConfig {
    /// Hedging/breaker/retry configuration applied to *each* partition
    /// group independently. Its `stale_capacity` sizes the router's
    /// merged-result stale store; the per-group stale stores are unused,
    /// since stale fallback happens on the merged result.
    pub remote: RemoteConfig,
}

/// Counter snapshot of the scatter/gather router (see
/// [`PartitionedIrs::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionStats {
    /// Logical read requests (search + value) accepted by the router.
    pub requests: u64,
    /// Requests where at least one partition failed a scatter leg (the
    /// read then degraded to stale or an error — never a partial merge).
    pub scatter_failures: u64,
    /// Requests answered from the merged-result stale store.
    pub stale_serves: u64,
    /// Requests that failed outright — a partition was down and no stale
    /// entry existed.
    pub exhausted: u64,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    scatter_failures: AtomicU64,
    stale_serves: AtomicU64,
    exhausted: AtomicU64,
}

/// Scatter/gather router over N partition groups, each a [`RemoteIrs`]
/// replica set of one shard of the collection (module docs have the full
/// policy).
pub struct PartitionedIrs<T> {
    groups: Vec<RemoteIrs<T>>,
    stale: StaleStore,
    counters: Counters,
}

impl<T: ReplicaTransport> PartitionedIrs<T> {
    /// Build a router over `groups`: one inner `Vec` of `(label,
    /// transport)` replicas per partition. Partition order is fixed at
    /// construction and carries no semantics (results merge by score).
    pub fn new(groups: Vec<Vec<(String, T)>>, config: PartitionConfig) -> Self {
        PartitionedIrs {
            groups: groups
                .into_iter()
                .map(|replicas| RemoteIrs::new(replicas, config.remote.clone()))
                .collect(),
            stale: StaleStore::new(config.remote.stale_capacity),
            counters: Counters::default(),
        }
    }

    /// Number of partition groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The partition groups, in construction order — for health and
    /// per-group statistics inspection.
    pub fn groups(&self) -> &[RemoteIrs<T>] {
        &self.groups
    }

    /// Entries currently held by the merged-result stale store.
    pub fn stale_len(&self) -> usize {
        self.stale.len()
    }

    /// Counter snapshot (monotonic since construction).
    pub fn stats(&self) -> PartitionStats {
        PartitionStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            scatter_failures: self.counters.scatter_failures.load(Ordering::Relaxed),
            stale_serves: self.counters.stale_serves.load(Ordering::Relaxed),
            exhausted: self.counters.exhausted.load(Ordering::Relaxed),
        }
    }

    /// Probe every replica of every partition (see [`RemoteIrs::probe`]).
    /// Outer order is partition order.
    pub fn probe(&self) -> Vec<Vec<(String, bool)>> {
        self.groups.iter().map(|g| g.probe()).collect()
    }

    /// Scatter/gather ranked retrieval: the `k` best `(oid, score)`
    /// pairs across all partitions, bit-identical to evaluating the
    /// union index on one node. On success the merged result refreshes
    /// the stale store; if any partition fails transiently, a stored
    /// merge for the same `(collection, query)` is served as
    /// [`ResultOrigin::Stale`].
    pub fn search_top_k(
        &self,
        collection: &str,
        query: &str,
        k: usize,
    ) -> Result<(Vec<(Oid, f64)>, ResultOrigin)> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        match self.scatter_search(collection, query, k) {
            Ok(hits) => {
                self.stale.put(collection, query, hits.clone());
                Ok((hits, ResultOrigin::Fresh))
            }
            Err(e) => self.degrade(collection, query, e).map(|hits| {
                let v = hits.clone();
                (v, ResultOrigin::Stale)
            }),
        }
    }

    /// Scatter/gather `getIRSValue`: one object's score under global
    /// statistics (`0.0` when it does not match), degrading through the
    /// merged-result stale store exactly like
    /// [`PartitionedIrs::search_top_k`].
    pub fn get_irs_value(
        &self,
        collection: &str,
        query: &str,
        oid: Oid,
    ) -> Result<(f64, ResultOrigin)> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        // No top-k cut: the object's exact score must survive the merge
        // wherever it ranks.
        match self.scatter_search(collection, query, usize::MAX) {
            Ok(hits) => {
                let v = Self::lookup(&hits, oid);
                self.stale.put(collection, query, hits);
                Ok((v, ResultOrigin::Fresh))
            }
            Err(e) => self
                .degrade(collection, query, e)
                .map(|hits| (Self::lookup(&hits, oid), ResultOrigin::Stale)),
        }
    }

    fn lookup(hits: &[(Oid, f64)], oid: Oid) -> f64 {
        hits.iter()
            .find(|(o, _)| *o == oid)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }

    /// The two scatter legs plus the gather merge (module docs).
    fn scatter_search(&self, collection: &str, query: &str, k: usize) -> Result<Vec<(Oid, f64)>> {
        if self.groups.is_empty() {
            return Err(CouplingError::Remote {
                kind: ErrorKind::IrsDown,
                message: "no partitions configured".into(),
            });
        }
        // Leg 1: gather per-partition statistics and merge them.
        let stats = self.collect(self.scatter(|g| g.term_stats(collection, query)))?;
        let merged = QueryGlobals::merge(stats.iter()).ok_or_else(|| CouplingError::Remote {
            // Permanent: partitions compiled different term lists for
            // the same query (version/analyzer skew) — retrying or
            // serving stale would mask real corruption.
            kind: ErrorKind::Other,
            message: "partitions returned mismatched query statistics".into(),
        })?;
        // Leg 2: every partition ranks under the merged globals.
        let partials =
            self.collect(self.scatter(|g| g.search_global(collection, query, k, &merged)))?;

        // Gather: merge with the engine's selection comparator (score
        // descending, ties by ascending key string), then cut to k.
        let mut all: Vec<(String, f64)> = partials.into_iter().flatten().collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        // Partitions hold disjoint documents; dedup defensively anyway
        // (first occurrence = best-ranked survives).
        let mut seen = std::collections::HashSet::new();
        all.retain(|(key, _)| seen.insert(key.clone()));
        all.truncate(k);

        // Fold keys into OIDs only after the cut (unparsable keys are
        // skipped, mirroring the single-node fold), then present in the
        // serving layer's order: score descending, ties by OID.
        let mut hits: Vec<(Oid, f64)> = all
            .into_iter()
            .filter_map(|(key, score)| Oid::parse(&key).map(|oid| (oid, score)))
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(hits)
    }

    /// Run `op` against every partition group concurrently (one scoped
    /// thread per group; each group's own hedging fans out further).
    fn scatter<R, F>(&self, op: F) -> Vec<Result<R>>
    where
        R: Send,
        F: Fn(&RemoteIrs<T>) -> Result<R> + Sync,
    {
        let op = &op;
        std::thread::scope(|s| {
            let handles: Vec<_> = self.groups.iter().map(|g| s.spawn(move || op(g))).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(CouplingError::Remote {
                            kind: ErrorKind::Other,
                            message: "partition worker panicked".into(),
                        })
                    })
                })
                .collect()
        })
    }

    /// All-or-nothing gather: a permanent error wins immediately (the
    /// request itself is at fault), otherwise any transient failure
    /// fails the whole read — a merge missing one partition's documents
    /// must never pass as a full answer.
    fn collect<R>(&self, results: Vec<Result<R>>) -> Result<Vec<R>> {
        let mut ok = Vec::with_capacity(results.len());
        let mut transient: Option<CouplingError> = None;
        for r in results {
            match r {
                Ok(v) => ok.push(v),
                Err(e) if e.is_transient() => {
                    transient.get_or_insert(e);
                }
                Err(e) => {
                    self.counters
                        .scatter_failures
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
        if let Some(e) = transient {
            self.counters
                .scatter_failures
                .fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        Ok(ok)
    }

    /// Stale fallback for a failed scatter: serve the last merged result
    /// if the failure was transient and the store is warm.
    fn degrade(&self, collection: &str, query: &str, e: CouplingError) -> Result<Vec<(Oid, f64)>> {
        if !e.is_transient() {
            return Err(e);
        }
        match self.stale.get(collection, query) {
            Some(hits) => {
                self.counters.stale_serves.fetch_add(1, Ordering::Relaxed);
                Ok(hits)
            }
            None => {
                self.counters.exhausted.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs::TermGlobals;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Scripted fake partition: canned stats and a pre-ranked hit list.
    struct FakePartition {
        stats: QueryGlobals,
        hits: Vec<(String, f64)>,
        down: AtomicBool,
    }

    impl FakePartition {
        fn up(stats: QueryGlobals, hits: Vec<(String, f64)>) -> Arc<Self> {
            Arc::new(FakePartition {
                stats,
                hits,
                down: AtomicBool::new(false),
            })
        }

        fn check(&self) -> Result<()> {
            if self.down.load(Ordering::Relaxed) {
                return Err(CouplingError::Remote {
                    kind: ErrorKind::Io,
                    message: "fake partition down".into(),
                });
            }
            Ok(())
        }
    }

    impl ReplicaTransport for Arc<FakePartition> {
        fn search(&self, _c: &str, _q: &str) -> Result<(Vec<(Oid, f64)>, ResultOrigin)> {
            unreachable!("partitioned reads go through search_global")
        }

        fn value(&self, _c: &str, _q: &str, _o: Oid) -> Result<f64> {
            unreachable!("partitioned reads go through search_global")
        }

        fn ping(&self) -> Result<()> {
            self.check()
        }

        fn term_stats(&self, _c: &str, _q: &str) -> Result<QueryGlobals> {
            self.check()?;
            Ok(self.stats.clone())
        }

        fn search_global(
            &self,
            _c: &str,
            _q: &str,
            k: usize,
            _globals: &QueryGlobals,
        ) -> Result<Vec<(String, f64)>> {
            self.check()?;
            let mut hits = self.hits.clone();
            hits.truncate(k);
            Ok(hits)
        }
    }

    fn stats_for(n_docs: u32, df: u32) -> QueryGlobals {
        QueryGlobals {
            n_docs,
            total_tokens: u64::from(n_docs) * 10,
            min_doc_len: 5,
            max_doc_len: 15,
            terms: vec![TermGlobals {
                term: "www".into(),
                df,
                max_tf: 3,
            }],
        }
    }

    fn config() -> PartitionConfig {
        PartitionConfig {
            remote: RemoteConfig {
                hedge_delay: std::time::Duration::from_millis(30),
                attempt_timeout: std::time::Duration::from_millis(200),
                ..RemoteConfig::default()
            },
        }
    }

    fn router(parts: Vec<Arc<FakePartition>>) -> PartitionedIrs<Arc<FakePartition>> {
        PartitionedIrs::new(
            parts
                .into_iter()
                .enumerate()
                .map(|(i, p)| vec![(format!("p{i}"), p)])
                .collect(),
            config(),
        )
    }

    #[test]
    fn scatter_gather_merges_and_truncates_by_score() {
        let a = FakePartition::up(
            stats_for(10, 2),
            vec![("oid:1".into(), 0.9), ("oid:3".into(), 0.2)],
        );
        let b = FakePartition::up(
            stats_for(20, 1),
            vec![("oid:2".into(), 0.5), ("oid:4".into(), 0.1)],
        );
        let r = router(vec![a, b]);
        let (hits, origin) = r.search_top_k("coll", "www", 3).unwrap();
        assert_eq!(origin, ResultOrigin::Fresh);
        assert_eq!(
            hits,
            vec![(Oid(1), 0.9), (Oid(2), 0.5), (Oid(3), 0.2)],
            "merged across partitions, cut to k"
        );
        assert_eq!(r.stats().requests, 1);
        assert_eq!(r.stats().scatter_failures, 0);
    }

    #[test]
    fn score_ties_cut_by_key_string_not_numeric_oid() {
        // "oid:10" < "oid:9" lexicographically — the single-node engine
        // selects at the k-boundary by key string, so the router must
        // too, even though Oid(9) < Oid(10) numerically.
        let a = FakePartition::up(stats_for(5, 1), vec![("oid:9".into(), 0.5)]);
        let b = FakePartition::up(stats_for(5, 1), vec![("oid:10".into(), 0.5)]);
        let r = router(vec![a, b]);
        let (hits, _) = r.search_top_k("coll", "www", 1).unwrap();
        assert_eq!(hits, vec![(Oid(10), 0.5)], "key-string tie-break wins");
    }

    #[test]
    fn get_irs_value_reads_through_the_merge() {
        let a = FakePartition::up(stats_for(5, 1), vec![("oid:7".into(), 0.8)]);
        let b = FakePartition::up(stats_for(5, 1), vec![("oid:8".into(), 0.3)]);
        let r = router(vec![a, b]);
        let (v, origin) = r.get_irs_value("coll", "www", Oid(8)).unwrap();
        assert!((v - 0.3).abs() < 1e-12);
        assert_eq!(origin, ResultOrigin::Fresh);
        let (v, _) = r.get_irs_value("coll", "www", Oid(999)).unwrap();
        assert_eq!(v, 0.0, "non-matching object scores zero");
    }

    #[test]
    fn partition_down_never_yields_a_silent_partial_result() {
        let a = FakePartition::up(stats_for(5, 1), vec![("oid:1".into(), 0.9)]);
        let b = FakePartition::up(stats_for(5, 1), vec![("oid:2".into(), 0.5)]);
        let r = router(vec![Arc::clone(&a), Arc::clone(&b)]);
        // Warm the merged stale store.
        let (warm, _) = r.search_top_k("coll", "www", 10).unwrap();
        assert_eq!(warm.len(), 2);
        // One partition (all its replicas) goes down: the merged stale
        // result is served — marked — instead of a partial fresh merge.
        b.down.store(true, Ordering::Relaxed);
        let (hits, origin) = r.search_top_k("coll", "www", 10).unwrap();
        assert_eq!(origin, ResultOrigin::Stale, "degradation must be marked");
        assert_eq!(hits, warm, "stale serves the full merged result");
        assert_eq!(r.stats().stale_serves, 1);
        assert_eq!(r.stats().scatter_failures, 1);
        // A cold query cannot be answered at all — typed transient error,
        // not a partial result.
        let err = r.search_top_k("coll", "never-seen", 10).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(r.stats().exhausted, 1);
    }

    #[test]
    fn mismatched_partition_statistics_fail_permanently() {
        let a = FakePartition::up(stats_for(5, 1), vec![("oid:1".into(), 0.9)]);
        let mut other = stats_for(5, 1);
        other.terms[0].term = "different".into();
        let b = FakePartition::up(other, vec![("oid:2".into(), 0.5)]);
        let r = router(vec![a, b]);
        let err = r.search_top_k("coll", "www", 10).unwrap_err();
        assert!(!err.is_transient(), "statistics skew is not retryable");
        assert_eq!(err.kind(), ErrorKind::Other);
    }

    #[test]
    fn no_partitions_is_an_irs_down_error() {
        let r: PartitionedIrs<Arc<FakePartition>> = PartitionedIrs::new(vec![], config());
        let err = r.search_top_k("coll", "q", 5).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::IrsDown);
    }
}
