//! System set-up with every host-dependent setting pinned.
//!
//! `setup_s` covers `load_generated` of every document,
//! `create_collection` + `index_collection`, and server (or replica)
//! start. Corpus generation is input synthesis and is excluded.

use std::path::Path;
use std::time::Instant;

use coupling::{
    CollectionSetup, DocumentSystem, PartitionConfig, PartitionedIrs, PropagationStrategy,
    SharedSystem, TaskQueue,
};
use oodb::Oid;
use serve::{NetServer, ReplicaServer, Server, ServerConfig, WireTransport};
use sgml::GeneratedDoc;

use crate::workload::{COLL, SPEC};

/// IRS index shards (the default follows `available_parallelism`).
pub const IRS_SHARDS: usize = 2;
/// Read worker threads per server.
pub const READ_WORKERS: usize = 2;
/// Admission limit of each server queue.
pub const QUEUE_CAPACITY: usize = 64;
/// Largest task execution batch.
pub const BATCH_MAX: usize = 32;
/// Update propagation strategy.
pub const PROPAGATION: PropagationStrategy = PropagationStrategy::Eager;

/// The pinned server configuration, journaled under `journal` if given.
pub fn server_config(journal: Option<&Path>) -> ServerConfig {
    let builder = ServerConfig::builder()
        .read_workers(READ_WORKERS)
        .queue_capacity(QUEUE_CAPACITY)
        .propagation(PROPAGATION)
        .batch_max(BATCH_MAX)
        .batching(true);
    match journal {
        Some(dir) => builder.journal_dir(dir),
        None => builder,
    }
    .build()
}

/// Time spent in each set-up stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// `load_generated` of every document.
    pub load_s: f64,
    /// A separate `DocumentSystem::query(spec)` (traced set-up only).
    pub spec_query_s: f64,
    /// `create_collection` + `index_collection`.
    pub index_s: f64,
}

/// Load `docs` and index every paragraph into [`COLL`]. With
/// `split_spec`, the specification query is also evaluated on its own
/// first, so its share of `index_collection` can be attributed.
pub fn build_system(
    docs: &[GeneratedDoc],
    limit: Option<usize>,
    split_spec: bool,
) -> (DocumentSystem, Timings) {
    let mut timings = Timings::default();
    let mut sys = DocumentSystem::new();
    let t = Instant::now();
    for doc in docs {
        sys.load_generated(doc).expect("generated document loads");
    }
    timings.load_s = t.elapsed().as_secs_f64();
    if split_spec {
        let t = Instant::now();
        std::hint::black_box(sys.query(SPEC).expect("spec query runs"));
        timings.spec_query_s = t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let mut setup = CollectionSetup::builder().shards(IRS_SHARDS);
    if let Some(k) = limit {
        setup = setup.result_limit(k);
    }
    sys.create_collection(COLL, setup.build())
        .expect("fresh collection");
    sys.index_collection(COLL, SPEC).expect("paragraphs index");
    timings.index_s = t.elapsed().as_secs_f64();
    (sys, timings)
}

/// OIDs returned by an OODB query, in result order.
pub fn oids(sys: &DocumentSystem, query: &str) -> Vec<Oid> {
    sys.query(query)
        .expect("enumeration query runs")
        .iter()
        .filter_map(|row| row.oid())
        .collect()
}

/// A primary: the system behind a TCP front-end, plus the handles the
/// benchmark inspects it through.
pub struct Primary {
    /// The TCP front-end.
    pub net: NetServer,
    /// The served system.
    pub shared: SharedSystem,
    /// The server's task queue (absent on read-only servers).
    pub queue: Option<TaskQueue>,
}

/// Serve `shared` on an ephemeral loopback port.
pub fn start_primary(shared: SharedSystem, config: ServerConfig) -> Primary {
    let server = Server::start_shared(shared.clone(), config);
    let queue = server.tasks().cloned();
    let net = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    Primary { net, shared, queue }
}

/// Read-only partitions behind a scatter/gather router.
pub struct Partitions {
    /// One replica server per partition.
    pub replicas: Vec<ReplicaServer>,
    /// The router over them.
    pub router: PartitionedIrs<WireTransport>,
}

/// Build `parts` partitions of `docs`: each loads the full corpus (so
/// OIDs agree on every node), then deletes the paragraphs outside its
/// round-robin slice; each is served by a [`ReplicaServer`].
pub fn start_partitions(docs: &[GeneratedDoc], parts: usize) -> Partitions {
    let mut replicas = Vec::with_capacity(parts);
    for p in 0..parts {
        let (sys, _) = build_system(docs, Some(crate::workload::K), false);
        let paras = oids(&sys, SPEC);
        {
            let mut coll = sys.collection_mut(COLL).expect("collection exists");
            for (i, &oid) in paras.iter().enumerate() {
                if i % parts != p {
                    coll.on_delete(oid).expect("carve partition slice");
                }
            }
        }
        replicas.push(
            ReplicaServer::serve_with(sys, server_config(None), "127.0.0.1:0")
                .expect("bind partition"),
        );
    }
    let router = PartitionedIrs::new(
        replicas
            .iter()
            .enumerate()
            .map(|(i, r)| vec![(format!("part-{i}"), WireTransport::new(r.local_addr()))])
            .collect(),
        PartitionConfig::default(),
    );
    Partitions { replicas, router }
}

impl Partitions {
    /// Stop every replica and wait for it.
    pub fn shutdown(self) {
        for r in self.replicas {
            r.shutdown();
        }
    }
}
