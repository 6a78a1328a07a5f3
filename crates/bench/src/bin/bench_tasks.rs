//! Task-batching benchmark gate: repeated `indexObjects` ingest through
//! the durable task queue, batched vs unbatched, writing
//! `BENCH_tasks.json` for CI tracking.
//!
//! Usage:
//!
//! ```text
//! cargo run -p coupling-bench --release --bin bench_tasks            # full
//! cargo run -p coupling-bench --release --bin bench_tasks -- --smoke
//! ```
//!
//! The workload models a burst of redundant ingest requests: N clients
//! each ask the server to (re-)run the same specification query over a
//! generated corpus (~10^4 paragraphs in full mode). With batching on,
//! the scheduler claims adjacent identical tasks as one batch and runs
//! the indexing **once** per batch; with batching off every task pays
//! the full corpus walk. The process exits nonzero and prints a line
//! containing `REGRESSION` if batching fails to beat the unbatched
//! drain by more than 2x, if any task fails, or if the batched run does
//! not actually merge anything.

use std::process::ExitCode;
use std::time::Instant;

use coupling::tasks::{SchedulerConfig, TaskExecutor, TaskFilter, TaskKind, TaskQueue, TaskStatus};
use coupling::{CollectionSetup, SharedSystem};
use coupling_bench::harness::{Gates, Json, Mode};
use coupling_bench::workload::gate_corpus;

const BATCH_MAX: usize = 32;
const TASKS: usize = 12;

/// One drain's results.
struct Run {
    batching: bool,
    tasks: usize,
    wall_us: u128,
    batches: u64,
    merged: u64,
    failed: usize,
}

/// Enqueue `tasks` identical ingest tasks into a corpus system with an
/// *empty* paragraph collection, then drain them with one executor and
/// report the wall clock of the drain alone.
fn run_ingest(docs: usize, tasks: usize, batching: bool) -> Run {
    let mut sys = gate_corpus(docs);
    sys.create_collection("coll", CollectionSetup::default())
        .expect("fresh collection");
    let shared = SharedSystem::new(sys);
    let queue = TaskQueue::open(None, tasks + 1, 16).expect("in-memory queue");
    let kind = TaskKind::IndexObjects {
        collection: "coll".into(),
        spec_query: "ACCESS p FROM p IN PARA".into(),
    };
    for _ in 0..tasks {
        queue.enqueue(kind.clone()).expect("enqueue");
    }
    let config = SchedulerConfig::builder()
        .batch_max(BATCH_MAX)
        .batching(batching)
        .build();
    let mut executor = TaskExecutor::new(shared, queue.clone(), config);
    let t0 = Instant::now();
    executor.drain();
    let wall_us = t0.elapsed().as_micros();
    let failed = queue
        .list_tasks(&TaskFilter::default())
        .iter()
        .filter(|t| t.status != TaskStatus::Succeeded)
        .count();
    let stats = queue.stats();
    Run {
        batching,
        tasks,
        wall_us,
        batches: stats.batches,
        merged: stats.merged,
        failed,
    }
}

fn main() -> ExitCode {
    let mode = Mode::from_args();
    // Full mode: ~2000 docs x ~5.5 paragraphs ≈ 10^4 IRS documents.
    let docs = mode.pick(30, 2000);

    println!("bench_tasks: {TASKS} identical ingest tasks over {docs} docs, batch_max {BATCH_MAX}");
    let runs = [false, true].map(|batching| run_ingest(docs, TASKS, batching));
    let speedup = runs[0].wall_us as f64 / runs[1].wall_us.max(1) as f64;

    let rows = runs.iter().map(|run| {
        Json::object([
            ("batching", run.batching.into()),
            ("tasks", run.tasks.into()),
            ("wall_us", run.wall_us.into()),
            ("batches", run.batches.into()),
            ("merged", run.merged.into()),
        ])
    });
    mode.write(
        "tasks",
        &Json::object([
            ("bench", "task_batching_ingest".into()),
            ("mode", mode.name().into()),
            ("docs", docs.into()),
            ("batch_max", BATCH_MAX.into()),
            ("runs", Json::Array(rows.collect())),
            ("speedup", Json::Fixed(speedup, 3)),
        ]),
    );

    let mut gates = Gates::new();
    let failed: usize = runs.iter().map(|r| r.failed).sum();
    gates.check(failed > 0, format!("{failed} ingest tasks did not succeed"));
    gates.check(runs[1].merged == 0, "the batched drain merged nothing");
    gates.check(
        speedup <= 2.0,
        format!("batching speedup {speedup:.2}x is not above 2x"),
    );
    ExitCode::from(gates.code())
}
