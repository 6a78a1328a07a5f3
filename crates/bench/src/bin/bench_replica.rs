//! Replica fan-out benchmark gate: tail latency of hedged reads with a
//! degraded replica, written to `BENCH_replica.json` for CI tracking.
//!
//! Usage:
//!
//! ```text
//! cargo run -p coupling-bench --release --bin bench_replica            # full
//! cargo run -p coupling-bench --release --bin bench_replica -- --smoke
//! ```
//!
//! Two read-only [`serve::ReplicaServer`]s carry the same corpus; every
//! byte flows through a [`serve::ChaosProxy`] so one replica can be
//! black-holed deterministically. The workload runs twice — both
//! replicas healthy, then with the *currently preferred* replica
//! black-holed — and reports p50/p99/max per phase plus the fan-out's
//! own counters. The interesting number is the degraded tail: hedging
//! should cap it near `hedge_delay` (the engine stops preferring the
//! dead replica after one abandoned attempt), and it must never exceed
//! `hedge_delay + attempt_timeout`, the engine's hard deadline.
//!
//! The process exits nonzero and prints a line containing `REGRESSION`
//! if any query fails in either phase, if the degraded-phase p99
//! exceeds the deadline bound, or if the hedge never fired while its
//! preferred replica was black-holed.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use coupling::remote::{RemoteConfig, RemoteIrs};
use coupling_bench::harness::{Gates, Json, Mode, Samples};
use coupling_bench::workload::{gate_system, query_for, IRS_LATENCY};
use serve::{ChaosMode, ChaosPlan, ChaosProxy, ClientConfig, ReplicaServer, WireTransport};

const HEDGE_DELAY: Duration = Duration::from_millis(20);
const ATTEMPT_TIMEOUT: Duration = Duration::from_millis(400);
/// Scheduling slack on top of the engine's hard deadline before the
/// gate calls the tail a regression.
const GATE_MARGIN: Duration = Duration::from_millis(200);

struct Phase {
    name: &'static str,
    ops: usize,
    latencies: Samples,
    failed: u64,
}

fn run_phase(name: &'static str, remote: &RemoteIrs<WireTransport>, ops: usize) -> Phase {
    let mut phase = Phase {
        name,
        ops,
        latencies: Samples::new(),
        failed: 0,
    };
    for i in 0..ops {
        let t0 = Instant::now();
        match remote.search_top_k("coll", &query_for(0, i)) {
            Ok(_) => phase.latencies.record_since(t0),
            Err(e) => {
                eprintln!("{name}: query {i} failed: {e}");
                phase.failed += 1;
            }
        }
    }
    phase
}

fn main() -> ExitCode {
    let mode = Mode::from_args();
    let (docs, ops) = mode.pick((8, 40), (20, 200));

    let servers: Vec<ReplicaServer> = (0..2)
        .map(|_| {
            ReplicaServer::serve(gate_system(docs, Some(IRS_LATENCY)), "127.0.0.1:0")
                .expect("bind replica")
        })
        .collect();
    let proxies: Vec<ChaosProxy> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            ChaosProxy::start(s.local_addr(), ChaosPlan::new(i as u64 + 1)).expect("bind proxy")
        })
        .collect();
    let client_config = ClientConfig::builder()
        .connect_timeout(Duration::from_millis(500))
        .read_timeout(Duration::from_millis(300))
        .write_timeout(Duration::from_millis(300))
        .build();
    let config = RemoteConfig {
        hedge_delay: HEDGE_DELAY,
        attempt_timeout: ATTEMPT_TIMEOUT,
        ..RemoteConfig::default()
    };
    let remote = RemoteIrs::new(
        proxies
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    format!("replica-{i}"),
                    WireTransport::with_config(p.local_addr(), client_config.clone()),
                )
            })
            .collect(),
        config,
    );

    println!(
        "bench_replica: {ops} ops/phase, 2 replicas, hedge {HEDGE_DELAY:?}, \
         attempt timeout {ATTEMPT_TIMEOUT:?}, {IRS_LATENCY:?} injected IRS latency"
    );

    let healthy = run_phase("healthy", &remote, ops);
    let hedges_before = remote.stats().hedges_fired;

    // Black-hole whichever replica the engine currently prefers — that
    // forces the next read through the hedge path instead of letting
    // the ranking dodge the fault.
    let health = remote.health();
    let preferred = (0..health.len())
        .min_by_key(|&i| health[i].ewma_us)
        .expect("two replicas");
    proxies[preferred].plan().force(Some(ChaosMode::Blackhole));
    // Sever the transport's cached connection so new reads actually
    // traverse the black-holed proxy path. Dropping the server does
    // that from the far end, like a machine going away.
    let mut servers = servers;
    servers.remove(preferred).shutdown();
    println!("degrading preferred replica {preferred}");

    let degraded = run_phase("degraded", &remote, ops);
    let stats = remote.stats();
    let hedges_during_degraded = stats.hedges_fired - hedges_before;

    let bound = HEDGE_DELAY + ATTEMPT_TIMEOUT + GATE_MARGIN;
    let bound_us = bound.as_micros() as u64;

    let phases = [&healthy, &degraded].map(|phase| {
        Json::object([
            ("phase", phase.name.into()),
            ("ops", phase.ops.into()),
            ("p50_us", phase.latencies.quantile(0.5).into()),
            ("p99_us", phase.latencies.quantile(0.99).into()),
            ("max_us", phase.latencies.max().into()),
            ("failed", phase.failed.into()),
        ])
    });
    let fanout = Json::object([
        ("requests", stats.requests.into()),
        ("hedges_fired", stats.hedges_fired.into()),
        ("hedges_degraded", hedges_during_degraded.into()),
        ("hedge_wins", stats.hedge_wins.into()),
        ("failovers", stats.failovers.into()),
        ("breaker_skips", stats.breaker_skips.into()),
        ("stale_serves", stats.stale_serves.into()),
        ("exhausted", stats.exhausted.into()),
    ]);
    mode.write(
        "replica",
        &Json::object([
            ("bench", "replica_hedged_reads".into()),
            ("mode", mode.name().into()),
            ("hedge_delay_us", HEDGE_DELAY.as_micros().into()),
            ("attempt_timeout_us", ATTEMPT_TIMEOUT.as_micros().into()),
            ("tail_bound_us", bound_us.into()),
            ("phases", Json::Array(phases.into())),
            ("fanout", fanout),
        ]),
    );

    drop(remote);
    for proxy in proxies {
        proxy.shutdown();
    }
    for server in servers {
        server.shutdown();
    }

    let mut gates = Gates::new();
    let failed = healthy.failed + degraded.failed;
    gates.check(failed > 0, format!("{failed} hedged reads failed"));
    let degraded_p99 = degraded.latencies.quantile(0.99);
    gates.check(
        degraded_p99 > bound_us,
        format!("degraded p99 {degraded_p99}us exceeds the {bound_us}us deadline bound"),
    );
    gates.check(
        hedges_during_degraded == 0,
        "preferred replica was black-holed but no hedge fired",
    );
    ExitCode::from(gates.code())
}
