//! The three workloads, why each exists, and their seeded inputs.
//!
//! | workload | corpus | load | exists so that |
//! |---|---|---|---|
//! | `cold_topk` | 20 000 docs (~1.1×10^5 paragraphs), `result_limit(10)` | 1 closed-loop connection, every query distinct | the postings/top-k engine does nearly all the work; buffer hit ratio ≈ 0 |
//! | `hot_mixed` | 2 000 docs (~1.1×10^4 paragraphs), no limit | 1 closed-loop connection over ≤100 distinct queries: 5/8 `IrsQuery`, 2/8 `MixedQuery`, 1/8 `GetIrsValue` on SECTIONs | buffer, wire codec, OODB structural pass and derivation do the work; the engine idles after warm-up |
//! | `update_mix` | `hot_mixed` corpus, `result_limit(10)`, journaled | 1 open-loop `UpdateText` writer (Poisson) + 1 closed-loop reader of the hot mix's request kinds, each over a distinct query | every write takes the write lock, invalidates the buffer and syncs ledger and journal while top-k reads run beside it: read/write trade-offs show only here |
//!
//! Scatter/gather (`coupling::partition`/`remote`, `serve::replica`) is
//! not a workload of its own: a single `PartitionedIrs` caller spawns a
//! thread per leg and waits on four loopback round trips per query, and
//! on a 2-vCPU VM its figures moved by 40-70% (quartile spread over ten
//! seeds) whenever the host got busy, against 6-20% for the workloads
//! above. Its layers are measured in `hot_mixed`'s traced run instead,
//! which routes the same IRS queries over two replica partitions.
//!
//! Which end-to-end metric each per-layer metric should move, and on
//! which workload, is recorded next to the metric names in
//! [`crate::report::PER_LAYER`].

use std::collections::HashSet;

use sgml::gen::topic_term;
use sgml::{CorpusConfig, CorpusGenerator, GeneratedDoc};

use crate::stats::{Rng, Zipf};

/// The collection every workload queries.
pub const COLL: &str = "coll";
/// Its specification query: every paragraph is an IRS document.
pub const SPEC: &str = "ACCESS p FROM p IN PARA";
/// Topics of the generated corpus (the generator's default).
pub const TOPICS: usize = 10;
/// Background vocabulary of the generated corpus (the generator's default).
pub const VOCABULARY: usize = 2_000;
/// Zipf skew of query background words and of written paragraphs.
pub const ZIPF_S: f64 = 1.1;
/// Result limit of the top-k workloads.
pub const K: usize = 10;
/// Distinct IRS queries of the hot mix (fits the default 256-entry buffer).
pub const HOT_POOL: usize = 100;
/// Length of every pre-generated request stream; a stream position past
/// it wraps.
pub const STREAM_LEN: usize = 200_000;
/// Mean arrival rate of `update_mix`'s open-loop writer. Every write
/// takes the write lock, invalidates the whole buffer and syncs ledger
/// and journal (about one write per forty reads at this rate); at 200/s
/// the sync traffic cost a 2-vCPU VM a quarter of its CPU time to the
/// host and the read figures stopped repeating.
pub const WRITE_RATE_PER_S: f64 = 50.0;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct top-k queries over the large corpus.
    ColdTopk,
    /// Buffered mixed reads over the small corpus.
    HotMixed,
    /// Hot reads under open-loop durable writes.
    UpdateMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ColdTopk, Workload::HotMixed, Workload::UpdateMix];

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdTopk => "cold_topk",
            Workload::HotMixed => "hot_mixed",
            Workload::UpdateMix => "update_mix",
        }
    }

    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdTopk => {
                "distinct top-k queries on 1.1e5 paragraphs: the postings/top-k engine does the work, the buffer is bypassed"
            }
            Workload::HotMixed => {
                "at most 100 distinct queries fit the buffer: buffer, wire codec, OODB structural pass and derivation do the work; the traced run also routes them over two partitions"
            }
            Workload::UpdateMix => {
                "distinct top-k reads beside open-loop durable writes that take the write lock, invalidate the buffer and sync ledger and journal"
            }
        }
    }

    /// Generated documents in the corpus.
    pub fn docs(self) -> usize {
        match self {
            Workload::ColdTopk => 20_000,
            _ => 2_000,
        }
    }

    /// The collection's result limit.
    pub fn result_limit(self) -> Option<usize> {
        match self {
            Workload::HotMixed => None,
            _ => Some(K),
        }
    }
}

/// Salts that keep the seeded streams independent of each other.
mod salt {
    pub const COLD: u64 = 1;
    pub const POOL: u64 = 2;
    pub const MIX: u64 = 3;
    pub const WRITES: u64 = 4;
    pub const PAIRS: u64 = 5;
    pub const SAMPLE: u64 = 6;
}

/// The workload's corpus: the generator's defaults, seeded by `--seed`.
pub fn corpus(workload: Workload, seed: u64) -> Vec<GeneratedDoc> {
    CorpusGenerator::new(CorpusConfig {
        docs: workload.docs(),
        topics: TOPICS,
        vocabulary: VOCABULARY,
        seed,
        ..CorpusConfig::default()
    })
    .generate_corpus()
}

fn background(zipf: &Zipf, rng: &mut Rng) -> String {
    format!("w{:04}", zipf.sample(rng))
}

fn two_topics(rng: &mut Rng) -> (String, String) {
    let a = rng.below(TOPICS);
    let b = (a + 1 + rng.below(TOPICS - 1)) % TOPICS;
    (topic_term(a), topic_term(b))
}

/// `n` distinct queries drawn by `draw`.
fn distinct(n: usize, rng: &mut Rng, mut draw: impl FnMut(&mut Rng) -> String) -> Vec<String> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let q = draw(rng);
        if seen.insert(q.clone()) {
            out.push(q);
        }
    }
    out
}

/// `cold_topk`'s stream: [`STREAM_LEN`] pairwise distinct `#and`/`#sum`/
/// `#or` queries over topic terms and Zipf background words.
pub fn cold_queries(seed: u64) -> Vec<String> {
    let zipf = Zipf::new(VOCABULARY, ZIPF_S);
    let mut rng = Rng::new(seed, salt::COLD);
    distinct(STREAM_LEN, &mut rng, |rng| {
        let (a, b) = two_topics(rng);
        match rng.below(3) {
            0 => format!("#and({a} {})", background(&zipf, rng)),
            1 => {
                let (x, y) = (background(&zipf, rng), background(&zipf, rng));
                format!("#sum({a} {x} {y})")
            }
            _ => format!("#or({a} {b} {})", background(&zipf, rng)),
        }
    })
}

/// The hot query pool: [`HOT_POOL`] distinct queries — every single
/// topic term, then equal thirds of `#or` over two topics, and `#and` and
/// `#sum` of a topic with a background word. Background ranks are drawn
/// stratified over the Zipf distribution, so every seed gets the same
/// spread of cheap and expensive words and seeds differ in which words
/// and topics, not in how heavy the pool is.
pub fn hot_pool(seed: u64) -> Vec<String> {
    let zipf = Zipf::new(VOCABULARY, ZIPF_S);
    let mut rng = Rng::new(seed, salt::POOL);
    let mut pool: Vec<String> = (0..TOPICS).map(topic_term).collect();
    let per_form = (HOT_POOL - TOPICS) / 3;
    let mut seen: HashSet<String> = pool.iter().cloned().collect();
    for form in 0..3 {
        for j in 0..per_form {
            loop {
                let (a, b) = two_topics(&mut rng);
                let word = format!(
                    "w{:04}",
                    zipf.quantile((j as f64 + rng.unit()) / per_form as f64)
                );
                let q = match form {
                    0 => format!("#or({a} {b})"),
                    1 => format!("#and({a} {word})"),
                    _ => format!("#sum({a} {word})"),
                };
                if seen.insert(q.clone()) {
                    pool.push(q);
                    break;
                }
            }
        }
    }
    pool
}

/// One distinct read of the hot mix, by pool index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HotRead {
    /// `IrsQuery` of pool query `q`.
    Irs(usize),
    /// `MixedQuery` of pool query `q`, `IrsFirst` when `irs_first`.
    Mixed { q: usize, irs_first: bool },
    /// `GetIrsValue` of value pair `pair` (see [`value_pairs`]).
    Value(usize),
}

/// The hot mix's stream: 5/8 `IrsQuery`, 2/8 `MixedQuery` (half each
/// strategy), 1/8 `GetIrsValue`, pool entries drawn uniformly.
pub fn hot_stream(seed: u64) -> Vec<HotRead> {
    let mut rng = Rng::new(seed, salt::MIX);
    (0..STREAM_LEN)
        .map(|_| {
            let slot = rng.below(8);
            let i = rng.below(HOT_POOL);
            match slot {
                0..=4 => HotRead::Irs(i),
                5 | 6 => HotRead::Mixed {
                    q: i,
                    irs_first: slot == 5,
                },
                _ => HotRead::Value(i),
            }
        })
        .collect()
}

/// `HOT_POOL` `(pool query, section)` pairs for `GetIrsValue`, as indices
/// into the pool and into the system's SECTION list.
pub fn value_pairs(seed: u64, sections: usize) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, salt::PAIRS);
    (0..HOT_POOL)
        .map(|_| (rng.below(HOT_POOL), rng.below(sections.max(1))))
        .collect()
}

/// Stream positions of `cold_topk` whose answers are checked against
/// the exhaustive oracle: one in every `every`, among the first `limit`.
pub fn oracle_sample(seed: u64, every: usize, limit: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, salt::SAMPLE);
    (0..limit / every)
        .map(|b| b * every + rng.below(every))
        .collect()
}

/// One write of `update_mix`'s open-loop writer.
#[derive(Debug, Clone, PartialEq)]
pub struct Write {
    /// Seconds after the window opens at which the write is due.
    pub due_s: f64,
    /// Index into the paragraph list.
    pub para: usize,
    /// The unique marker token the write appends.
    pub marker: String,
}

/// The writes due within `seconds`: Poisson arrivals at
/// [`WRITE_RATE_PER_S`], each marking a Zipf-chosen paragraph.
pub fn write_plan(seed: u64, paras: usize, seconds: f64) -> Vec<Write> {
    let zipf = Zipf::new(paras, ZIPF_S);
    let mut rng = Rng::new(seed, salt::WRITES);
    let mut due_s = 0.0;
    let mut out = Vec::new();
    loop {
        due_s += rng.exp(1.0 / WRITE_RATE_PER_S);
        if due_s >= seconds {
            return out;
        }
        out.push(Write {
            due_s,
            para: zipf.sample(&mut rng),
            marker: marker(out.len()),
        });
    }
}

/// The marker token of write `i`: unique, and untouched by the analyzer.
pub fn marker(i: usize) -> String {
    format!("mk{i:07}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(cold_queries(7)[..500], cold_queries(7)[..500]);
        assert_ne!(cold_queries(7)[..50], cold_queries(8)[..50]);
        assert_eq!(hot_pool(7), hot_pool(7));
        assert_ne!(hot_pool(7), hot_pool(8));
        assert_eq!(hot_stream(7), hot_stream(7));
        assert_ne!(hot_stream(7)[..50], hot_stream(8)[..50]);
        assert_eq!(write_plan(7, 500, 2.0), write_plan(7, 500, 2.0));
        assert_ne!(write_plan(7, 500, 2.0), write_plan(8, 500, 2.0));
        assert_eq!(value_pairs(7, 40), value_pairs(7, 40));
        assert_eq!(oracle_sample(7, 16, 256), oracle_sample(7, 16, 256));
    }

    #[test]
    fn cold_queries_are_distinct() {
        let q = cold_queries(3);
        assert_eq!(q.len(), STREAM_LEN);
        assert_eq!(q.iter().collect::<HashSet<_>>().len(), STREAM_LEN);
    }

    #[test]
    fn hot_mix_has_the_stated_shares() {
        let s = hot_stream(1);
        let share =
            |f: fn(&HotRead) -> bool| s.iter().filter(|r| f(r)).count() as f64 / s.len() as f64;
        assert!((share(|r| matches!(r, HotRead::Irs(_))) - 5.0 / 8.0).abs() < 0.01);
        assert!((share(|r| matches!(r, HotRead::Mixed { .. })) - 2.0 / 8.0).abs() < 0.01);
        assert!((share(|r| matches!(r, HotRead::Value(_))) - 1.0 / 8.0).abs() < 0.01);
        assert_eq!(hot_pool(1).iter().collect::<HashSet<_>>().len(), HOT_POOL);
    }

    #[test]
    fn writes_arrive_at_the_mean_rate() {
        let plan = write_plan(5, 1_000, 20.0);
        let rate = plan.len() as f64 / 20.0;
        assert!((rate / WRITE_RATE_PER_S - 1.0).abs() < 0.1, "rate {rate}");
        assert!(plan.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(plan.iter().all(|w| w.para < 1_000));
    }

    #[test]
    fn every_name_parses_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200);
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
