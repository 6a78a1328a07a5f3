//! Shared workload construction: a generated MMF corpus loaded into a
//! [`DocumentSystem`], with ground-truth bookkeeping for quality metrics.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use coupling::{CollectionSetup, DocumentSystem};
use irs::FaultPlan;
use oodb::Oid;
use sgml::gen::{topic_term, ParaTruth};
use sgml::{CorpusConfig, CorpusGenerator, GeneratedDoc};

/// Workload parameters (a thin wrapper over the corpus generator's
/// config plus system-level choices).
#[derive(Debug, Clone, Default)]
pub struct WorkloadConfig {
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
}

impl WorkloadConfig {
    /// A small workload for fast runs (`experiments -- --small`,
    /// `bench_query --smoke`).
    pub fn small() -> Self {
        WorkloadConfig {
            corpus: CorpusConfig {
                docs: 30,
                topics: 8,
                vocabulary: 800,
                ..CorpusConfig::default()
            },
        }
    }

    /// The standard experiment workload.
    pub fn standard() -> Self {
        WorkloadConfig {
            corpus: CorpusConfig {
                docs: 120,
                topics: 12,
                vocabulary: 3_000,
                ..CorpusConfig::default()
            },
        }
    }
}

/// Ground truth for one loaded document.
#[derive(Debug, Clone)]
pub struct DocTruth {
    /// Root object OID.
    pub root: Oid,
    /// Document topics.
    pub topics: Vec<usize>,
    /// `(paragraph OID, paragraph topics)` pairs.
    pub paras: Vec<(Oid, Vec<usize>)>,
}

/// A corpus loaded into a [`DocumentSystem`], with truth lookup tables.
pub struct CorpusSystem {
    /// The integrated system.
    pub sys: DocumentSystem,
    /// Per-document ground truth, in generation order.
    pub docs: Vec<DocTruth>,
    /// Number of topics in the corpus.
    pub topics: usize,
    /// OID → document index, for mapping IRS results back to truth.
    pub doc_of_root: HashMap<Oid, usize>,
    /// Paragraph OID → (document index, topics).
    pub para_truth: HashMap<Oid, (usize, Vec<usize>)>,
}

impl CorpusSystem {
    /// True if document `root` is relevant to all `topics`.
    pub fn doc_relevant(&self, root: Oid, topics: &[usize]) -> bool {
        self.doc_of_root
            .get(&root)
            .map(|&i| topics.iter().all(|t| self.docs[i].topics.contains(t)))
            .unwrap_or(false)
    }

    /// True if paragraph `oid` is relevant to topic `t`.
    pub fn para_relevant(&self, oid: Oid, t: usize) -> bool {
        self.para_truth
            .get(&oid)
            .map(|(_, ts)| ts.contains(&t))
            .unwrap_or(false)
    }

    /// Root OIDs in generation order.
    pub fn roots(&self) -> Vec<Oid> {
        self.docs.iter().map(|d| d.root).collect()
    }
}

/// Generate a corpus and load it into a fresh system. No collections are
/// created — each experiment sets up the collections it compares.
pub fn build_corpus_system(config: &WorkloadConfig) -> CorpusSystem {
    let mut generator = CorpusGenerator::new(config.corpus.clone());
    let corpus: Vec<GeneratedDoc> = generator.generate_corpus();
    let mut sys = DocumentSystem::new();
    let mut docs = Vec::with_capacity(corpus.len());
    let mut doc_of_root = HashMap::new();
    let mut para_truth = HashMap::new();

    for (i, gdoc) in corpus.iter().enumerate() {
        let loaded = sys.load_generated(gdoc).expect("generated documents load");
        let mut paras = Vec::new();
        for ParaTruth { node, topics } in &gdoc.paras {
            let oid = loaded.oid_of(*node).expect("paragraph nodes are elements");
            paras.push((oid, topics.clone()));
            para_truth.insert(oid, (i, topics.clone()));
        }
        doc_of_root.insert(loaded.root, i);
        docs.push(DocTruth {
            root: loaded.root,
            topics: gdoc.topics.clone(),
            paras,
        });
    }

    CorpusSystem {
        sys,
        docs,
        topics: config.corpus.topics,
        doc_of_root,
        para_truth,
    }
}

/// Create a paragraph-level collection named `name` with `setup` and
/// index every PARA — the configuration most experiments start from.
pub fn with_para_collection(cs: &mut CorpusSystem, name: &str, setup: CollectionSetup) {
    cs.sys.create_collection(name, setup).expect("fresh name");
    cs.sys
        .index_collection(name, "ACCESS p FROM p IN PARA")
        .expect("indexing succeeds");
}

/// The `#and` conjunction query of two topic terms — the Figure 4 query
/// shape.
pub fn and_query(a: usize, b: usize) -> String {
    format!("#and({} {})", topic_term(a), topic_term(b))
}

/// All topic pairs `(a, b)` with `a < b` that at least one corpus
/// document is relevant to (so quality metrics are defined).
pub fn relevant_topic_pairs(cs: &CorpusSystem) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for a in 0..cs.topics {
        for b in (a + 1)..cs.topics {
            if cs
                .docs
                .iter()
                .any(|d| d.topics.contains(&a) && d.topics.contains(&b))
            {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// Topics in the gated benches' corpus.
const GATE_TOPICS: usize = 6;

/// Latency injected into every IRS call by [`gate_system`] when the
/// bench models the paper's out-of-process IRS.
pub const IRS_LATENCY: Duration = Duration::from_millis(2);

/// The gated benches' corpus: `docs` generated documents over six
/// topics and a 400-word vocabulary, loaded into a fresh system with no
/// collections.
pub fn gate_corpus(docs: usize) -> DocumentSystem {
    let mut generator = CorpusGenerator::new(CorpusConfig {
        docs,
        topics: GATE_TOPICS,
        vocabulary: 400,
        ..CorpusConfig::default()
    });
    let mut sys = DocumentSystem::new();
    for doc in generator.generate_corpus() {
        sys.load_generated(&doc).expect("corpus loads");
    }
    sys
}

/// [`gate_corpus`] plus collection `coll` over every PARA. Its result
/// buffer holds one entry, so repeated queries travel to the IRS; with
/// `irs_latency` every IRS call also sleeps that long.
pub fn gate_system(docs: usize, irs_latency: Option<Duration>) -> DocumentSystem {
    let mut sys = gate_corpus(docs);
    sys.create_collection(
        "coll",
        CollectionSetup::builder().buffer_capacity(1).build(),
    )
    .expect("fresh collection");
    sys.index_collection("coll", "ACCESS p FROM p IN PARA")
        .expect("paragraphs index");
    if let Some(latency) = irs_latency {
        sys.collection_mut("coll")
            .expect("collection exists")
            .inject_faults(Some(Arc::new(FaultPlan::new(1).with_latency(latency))));
    }
    sys
}

/// Distinct topic-pair query for client `c`, request `i`: keeps a
/// one-slot buffer cold and spreads work across the index.
pub fn query_for(c: usize, i: usize) -> String {
    let a = (c + i) % GATE_TOPICS;
    let b = (c + i + 1 + i % (GATE_TOPICS - 1)) % GATE_TOPICS;
    if a == b {
        topic_term(a)
    } else {
        format!("#and({} {})", topic_term(a), topic_term(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_system_builds_with_truth() {
        let cs = build_corpus_system(&WorkloadConfig::small());
        assert_eq!(cs.docs.len(), 30);
        assert_eq!(cs.doc_of_root.len(), 30);
        assert!(!cs.para_truth.is_empty());
        // Truth lookups agree with the tables.
        let d = &cs.docs[0];
        assert!(cs.doc_relevant(d.root, &d.topics));
        assert!(!cs.doc_relevant(d.root, &[usize::MAX]));
    }

    #[test]
    fn para_collection_indexes_all_paragraphs() {
        let mut cs = build_corpus_system(&WorkloadConfig::small());
        with_para_collection(&mut cs, "collPara", CollectionSetup::default());
        let total_paras: usize = cs.docs.iter().map(|d| d.paras.len()).sum();
        let indexed = cs.sys.collection("collPara").unwrap().len();
        assert_eq!(indexed, total_paras);
    }

    #[test]
    fn topic_pairs_are_nonempty_and_relevant() {
        let cs = build_corpus_system(&WorkloadConfig::small());
        let pairs = relevant_topic_pairs(&cs);
        assert!(!pairs.is_empty());
        for (a, b) in &pairs {
            assert!(cs
                .docs
                .iter()
                .any(|d| d.topics.contains(a) && d.topics.contains(b)));
        }
    }

    #[test]
    fn and_query_shape() {
        assert_eq!(and_query(1, 2), "#and(topic01 topic02)");
    }
}
