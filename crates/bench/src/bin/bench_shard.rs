//! Partitioned scatter/gather benchmark gate: correctness and latency of
//! shard-per-node reads, written to `BENCH_shard.json` for CI tracking.
//!
//! Usage:
//!
//! ```text
//! cargo run -p coupling-bench --release --bin bench_shard            # full
//! cargo run -p coupling-bench --release --bin bench_shard -- --smoke
//! ```
//!
//! Two read-only [`serve::ReplicaServer`]s each carry one *slice* of the
//! corpus (every partition loads the full corpus so OIDs agree, then
//! deletes the paragraphs outside its slice). A [`PartitionedIrs`]
//! router scatters each query to both partitions — statistics leg, then
//! search leg — and gathers the merged top-k. The workload runs twice:
//! both partitions healthy (every merged result compared bit-for-bit
//! against a single-node evaluation of the unsliced corpus), then with
//! one partition shut down (warmed queries must degrade to the stale
//! merged result, not fail and not go partial).
//!
//! The process exits nonzero and prints a line containing `REGRESSION`
//! if any healthy-phase query fails or diverges from the single-node
//! baseline, if any degraded-phase query fails, or if no stale serve
//! happened while a partition was down.

use std::process::ExitCode;
use std::time::Instant;

use coupling::{DocumentSystem, PartitionConfig, PartitionedIrs, ResultOrigin};
use coupling_bench::harness::{Gates, Json, Mode, Samples};
use coupling_bench::workload::{gate_system, query_for};
use oodb::Oid;
use serve::{ReplicaServer, WireTransport};

const PARTITIONS: usize = 2;
/// No top-k cut: small corpus, and an uncut merge exercises the whole
/// gather path while keeping the single-node baseline trivially exact.
const K: usize = 10_000;

/// Partition `p` of `parts`: the full corpus loaded (identical OIDs on
/// every node), then carved down to the round-robin slice by deleting
/// the out-of-slice paragraphs from the IRS collection. No latency is
/// injected: this gate measures the scatter/gather overhead itself.
fn build_partition(docs: usize, p: usize, parts: usize) -> DocumentSystem {
    let sys = gate_system(docs, None);
    let paras: Vec<Oid> = sys
        .query("ACCESS p FROM p IN PARA")
        .expect("enumerate paragraphs")
        .iter()
        .filter_map(|row| row.oid())
        .collect();
    let mut coll = sys.collection_mut("coll").expect("collection exists");
    for (i, &oid) in paras.iter().enumerate() {
        if i % parts != p {
            coll.on_delete(oid).expect("carve slice");
        }
    }
    drop(coll);
    sys
}

/// Single-node answer for `query`, in the router's presentation order.
fn baseline_for(sys: &DocumentSystem, query: &str) -> Vec<(Oid, f64)> {
    let coll = sys.collection("coll").expect("collection exists");
    let mut hits: Vec<(Oid, f64)> = coll
        .get_irs_result(query)
        .expect("single-node evaluation")
        .into_iter()
        .collect();
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hits
}

struct Phase {
    name: &'static str,
    ops: usize,
    latencies: Samples,
    failed: u64,
    mismatched: u64,
    stale: u64,
}

/// Run `ops` queries; when `baseline` is given, compare every merged
/// result bit-for-bit against the single-node evaluation.
fn run_phase(
    name: &'static str,
    router: &PartitionedIrs<WireTransport>,
    baseline: Option<&DocumentSystem>,
    ops: usize,
) -> Phase {
    let mut phase = Phase {
        name,
        ops,
        latencies: Samples::new(),
        failed: 0,
        mismatched: 0,
        stale: 0,
    };
    for i in 0..ops {
        let query = query_for(0, i);
        let t0 = Instant::now();
        match router.search_top_k("coll", &query, K) {
            Ok((hits, origin)) => {
                phase.latencies.record_since(t0);
                if origin == ResultOrigin::Stale {
                    phase.stale += 1;
                }
                if let Some(sys) = baseline {
                    let expected = baseline_for(sys, &query);
                    let same = hits.len() == expected.len()
                        && hits
                            .iter()
                            .zip(expected.iter())
                            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
                    if !same {
                        eprintln!(
                            "{name}: query {i} ({query}) diverged from single-node: \
                             {} merged hits vs {} expected",
                            hits.len(),
                            expected.len()
                        );
                        phase.mismatched += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("{name}: query {i} ({query}) failed: {e}");
                phase.failed += 1;
            }
        }
    }
    phase
}

fn main() -> ExitCode {
    let mode = Mode::from_args();
    let (docs, ops) = mode.pick((8, 40), (20, 200));

    let baseline = gate_system(docs, None);
    let servers: Vec<ReplicaServer> = (0..PARTITIONS)
        .map(|p| {
            ReplicaServer::serve(build_partition(docs, p, PARTITIONS), "127.0.0.1:0")
                .expect("bind partition")
        })
        .collect();
    let router = PartitionedIrs::new(
        servers
            .iter()
            .enumerate()
            .map(|(i, s)| vec![(format!("part-{i}"), WireTransport::new(s.local_addr()))])
            .collect(),
        PartitionConfig::default(),
    );

    println!(
        "bench_shard: {ops} ops/phase, {PARTITIONS} partitions x 1 replica, \
         {docs} docs, k={K}"
    );

    let healthy = run_phase("scatter", &router, Some(&baseline), ops);

    // Take one whole partition away: the router must keep answering the
    // warmed queries from its merged stale store.
    let mut servers = servers;
    servers.pop().expect("two partitions").shutdown();
    println!("shutting down partition {}", PARTITIONS - 1);

    let degraded = run_phase("degraded", &router, None, ops);
    let stats = router.stats();

    let phases = [&healthy, &degraded].map(|phase| {
        Json::object([
            ("phase", phase.name.into()),
            ("ops", phase.ops.into()),
            ("p50_us", phase.latencies.quantile(0.5).into()),
            ("p99_us", phase.latencies.quantile(0.99).into()),
            ("max_us", phase.latencies.max().into()),
            ("failed", phase.failed.into()),
            ("mismatched", phase.mismatched.into()),
            ("stale", phase.stale.into()),
        ])
    });
    let router_stats = Json::object([
        ("requests", stats.requests.into()),
        ("scatter_failures", stats.scatter_failures.into()),
        ("stale_serves", stats.stale_serves.into()),
        ("exhausted", stats.exhausted.into()),
    ]);
    mode.write(
        "shard",
        &Json::object([
            ("bench", "shard_scatter_gather".into()),
            ("mode", mode.name().into()),
            ("partitions", PARTITIONS.into()),
            ("docs", docs.into()),
            ("phases", Json::Array(phases.into())),
            ("router", router_stats),
        ]),
    );

    for server in servers {
        server.shutdown();
    }

    let mut gates = Gates::new();
    gates.check(
        healthy.failed > 0,
        format!("{} scattered reads failed", healthy.failed),
    );
    gates.check(
        healthy.mismatched > 0,
        format!(
            "{} merged results diverged from single-node evaluation",
            healthy.mismatched
        ),
    );
    gates.check(
        degraded.failed > 0,
        format!(
            "{} warmed queries failed with a partition down",
            degraded.failed
        ),
    );
    gates.check(
        stats.stale_serves == 0,
        "a partition was down but no stale serve happened",
    );
    ExitCode::from(gates.code())
}
