//! Wire-protocol benchmark gate: the same closed-loop multi-client
//! workload as `bench_serve`, run twice — in-process (`Server::call`)
//! and over localhost TCP (`serve::Client` against a
//! `serve::NetServer`) — writing `BENCH_net.json` for CI tracking.
//!
//! Usage:
//!
//! ```text
//! cargo run -p coupling-bench --release --bin bench_net            # full
//! cargo run -p coupling-bench --release --bin bench_net -- --smoke
//! ```
//!
//! The interesting number is the wire tax: how much throughput the
//! framing/codec/socket layer costs relative to in-process dispatch,
//! at matched concurrency, with the IRS itself carrying a small
//! injected latency (modelling the paper's out-of-process IRS — the
//! dominant cost a real deployment would see). The process exits
//! nonzero and prints a line containing `REGRESSION` if any request
//! fails, if any response carries the wrong hit shape, or if the wire
//! path falls below a minimal sanity floor (10% of in-process
//! throughput — the gate catches protocol-level stalls like a lost
//! flush or per-call reconnects, not micro-variance).

use std::process::ExitCode;

use coupling_bench::harness::{closed_loop, Gates, Json, LoopRun, Mode};
use coupling_bench::workload::{gate_system, query_for, IRS_LATENCY};
use serve::{Client, NetServer, Request, Response, Server, ServerConfig};

const READ_WORKERS: usize = 8;

fn request(c: usize, i: usize) -> Request {
    Request::IrsQuery {
        collection: "coll".into(),
        query: query_for(c, i),
    }
}

fn check_response(resp: &Response) -> bool {
    matches!(resp, Response::IrsResult { hits, .. } if !hits.is_empty())
}

fn server(docs: usize) -> Server {
    Server::start(
        gate_system(docs, Some(IRS_LATENCY)),
        ServerConfig::default()
            .read_workers(READ_WORKERS)
            .queue_capacity(256),
    )
}

/// Closed loop, in-process transport: `clients` threads call straight
/// into the server.
fn run_in_process(docs: usize, clients: usize, ops: usize) -> LoopRun {
    let server = server(docs);
    let run = closed_loop(clients, ops, |c| {
        let server = &server;
        move |i| server.call(request(c, i)).map(|r| check_response(&r))
    });
    server.shutdown();
    run
}

/// Closed loop, localhost TCP transport: `clients` threads each own one
/// wire connection to a `NetServer` on an ephemeral loopback port.
fn run_over_wire(docs: usize, clients: usize, ops: usize) -> LoopRun {
    let net = NetServer::bind(server(docs), "127.0.0.1:0").expect("bind loopback");
    let addr = net.local_addr();
    let run = closed_loop(clients, ops, |c| {
        let mut client = Client::connect(addr).expect("connect loopback");
        move |i| client.call(&request(c, i)).map(|r| check_response(&r))
    });
    net.shutdown();
    run
}

fn main() -> ExitCode {
    let mode = Mode::from_args();
    let (docs, ops, clients) = mode.pick((8, 24, 4), (20, 96, 8));

    println!(
        "bench_net: {} ops, {} clients, {} read workers, {:?} injected IRS latency",
        ops, clients, READ_WORKERS, IRS_LATENCY
    );
    let runs = [
        ("in_process", run_in_process(docs, clients, ops)),
        ("tcp_loopback", run_over_wire(docs, clients, ops)),
    ];
    let wire_tax = runs[1].1.throughput_rps / runs[0].1.throughput_rps;

    let rows = runs.iter().map(|(transport, run)| {
        Json::object([
            ("transport", (*transport).into()),
            ("clients", run.clients.into()),
            ("ops", run.ops.into()),
            ("wall_us", run.wall_us.into()),
            ("throughput_rps", Json::Fixed(run.throughput_rps, 1)),
            ("failed", run.failed.into()),
            ("bad_responses", run.bad.into()),
        ])
    });
    mode.write(
        "net",
        &Json::object([
            ("bench", "net_closed_loop".into()),
            ("mode", mode.name().into()),
            ("read_workers", READ_WORKERS.into()),
            ("irs_latency_us", IRS_LATENCY.as_micros().into()),
            ("runs", Json::Array(rows.collect())),
            ("wire_vs_in_process", Json::Fixed(wire_tax, 3)),
        ]),
    );

    let mut gates = Gates::new();
    let failed: u64 = runs.iter().map(|(_, r)| r.failed).sum();
    let bad: u64 = runs.iter().map(|(_, r)| r.bad).sum();
    gates.check(failed > 0, format!("{failed} requests failed"));
    gates.check(bad > 0, format!("{bad} responses had the wrong shape"));
    gates.check(
        wire_tax < 0.10,
        format!("wire throughput {wire_tax:.2}x of in-process is below the 0.10x floor"),
    );
    ExitCode::from(gates.code())
}
