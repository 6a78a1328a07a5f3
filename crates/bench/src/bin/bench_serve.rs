//! Serving-throughput benchmark gate: a closed-loop multi-client
//! workload against the `serve` front-end, 1 client vs 8 clients over
//! the same worker pool, writing `BENCH_serve.json` for CI tracking.
//!
//! Usage:
//!
//! ```text
//! cargo run -p coupling-bench --release --bin bench_serve            # full
//! cargo run -p coupling-bench --release --bin bench_serve -- --smoke
//! ```
//!
//! The coupled IRS is given a small injected per-operation latency
//! (modeling the paper's out-of-process IRS); concurrency then pays off
//! even on a single core because waiting clients overlap their IRS
//! round-trips. The process exits nonzero and prints a line containing
//! `REGRESSION` if 8 clients fail to beat 1 client by more than 2x
//! throughput, or if any request fails.

use std::process::ExitCode;

use coupling_bench::harness::{closed_loop, Gates, Json, LoopRun, Mode};
use coupling_bench::workload::{gate_system, query_for, IRS_LATENCY};
use serve::{MetricsSnapshot, Request, Server, ServerConfig};

const READ_WORKERS: usize = 8;

/// Closed loop against an in-process server whose IRS carries the
/// injected latency; the snapshot is the server's own accounting.
fn run_workload(docs: usize, clients: usize, ops: usize) -> (LoopRun, MetricsSnapshot) {
    let server = Server::start(
        gate_system(docs, Some(IRS_LATENCY)),
        ServerConfig::default()
            .read_workers(READ_WORKERS)
            .queue_capacity(256),
    );
    let run = closed_loop(clients, ops, |c| {
        let server = &server;
        move |i| {
            server
                .call(Request::IrsQuery {
                    collection: "coll".into(),
                    query: query_for(c, i),
                })
                .expect("query succeeds");
            Ok::<_, ()>(true)
        }
    });
    (run, server.shutdown())
}

fn main() -> ExitCode {
    let mode = Mode::from_args();
    let (docs, ops) = mode.pick((8, 24), (20, 96));

    println!(
        "bench_serve: {} ops, {} read workers, {:?} injected IRS latency",
        ops, READ_WORKERS, IRS_LATENCY
    );
    let runs = [1, 8].map(|clients| run_workload(docs, clients, ops));
    let speedup = runs[1].0.throughput_rps / runs[0].0.throughput_rps;

    let rows = runs.iter().map(|(run, snap)| {
        Json::object([
            ("clients", run.clients.into()),
            ("ops", run.ops.into()),
            ("wall_us", run.wall_us.into()),
            ("throughput_rps", Json::Fixed(run.throughput_rps, 1)),
            ("p50_us", snap.p50_us.into()),
            ("p99_us", snap.p99_us.into()),
            ("completed", snap.completed.into()),
            ("failed", snap.failed.into()),
        ])
    });
    mode.write(
        "serve",
        &Json::object([
            ("bench", "serve_closed_loop".into()),
            ("mode", mode.name().into()),
            ("read_workers", READ_WORKERS.into()),
            ("irs_latency_us", IRS_LATENCY.as_micros().into()),
            ("runs", Json::Array(rows.collect())),
            ("speedup", Json::Fixed(speedup, 3)),
        ]),
    );

    let mut gates = Gates::new();
    let failed: u64 = runs.iter().map(|(_, snap)| snap.failed).sum();
    gates.check(failed > 0, format!("{failed} requests failed"));
    gates.check(
        speedup <= 2.0,
        format!("8-client speedup {speedup:.2}x is not above 2x"),
    );
    ExitCode::from(gates.code())
}
