//! Integration tests for the durable update-task queue: batching proof
//! at the serving layer, crash-replay convergence over the journaled
//! ledger, torn-ledger robustness, event observability through a
//! server, the fsync cost of one acknowledged write, and the answer to
//! the retired synchronous write kinds.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;

use coupling::tasks::{
    SchedulerConfig, TaskEvent, TaskExecutor, TaskFilter, TaskKind, TaskQueue, TaskStatus,
    TaskStatusKind,
};
use coupling::{PropagationStrategy, SharedSystem};
use oodb::Oid;
use serve::wire::{self, FrameKind};
use serve::{Client, NetServer, Request, Response, Server, ServerConfig, Status};
use system_tests::two_issue_system;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coupling-tasks-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn para_oids(shared: &SharedSystem) -> Vec<Oid> {
    shared.read(|sys| {
        sys.query("ACCESS p FROM p IN PARA")
            .expect("paras")
            .iter()
            .map(|row| row.oid().expect("oid row"))
            .collect()
    })
}

/// Deterministic fingerprint of the searchable state: ranked results
/// for a fixed probe vocabulary. Two systems that answer identically
/// here have converged as far as the coupling is observable.
fn probe(shared: &SharedSystem) -> Vec<(String, Vec<(Oid, f64)>)> {
    const TERMS: &[&str] = &["telnet", "www", "nii", "login", "alpha", "gamma", "epsilon"];
    shared.read(|sys| {
        TERMS
            .iter()
            .map(|term| {
                let coll = sys.collection("collPara").expect("collPara");
                let (map, _) = coll.get_irs_result_with_origin(term).expect("probe query");
                let mut hits: Vec<(Oid, f64)> = map.into_iter().collect();
                hits.sort_by_key(|hit| hit.0);
                (term.to_string(), hits)
            })
            .collect()
    })
}

/// One mutation in the randomized op scripts below.
#[derive(Debug, Clone)]
enum Op {
    Update { para: usize, text: usize },
    Index,
    Flush,
}

const TEXTS: &[&str] = &[
    "alpha particles in the telnet stream",
    "gamma rays over the www backbone",
    "epsilon bounds for interactive login",
    "plain replacement paragraph",
];

fn op_kind(op: &Op, paras: &[Oid]) -> TaskKind {
    match op {
        Op::Update { para, text } => TaskKind::UpdateText {
            oid: paras[para % paras.len()],
            text: TEXTS[text % TEXTS.len()].to_string(),
            collections: vec!["collPara".into()],
        },
        Op::Index => TaskKind::IndexObjects {
            collection: "collPara".into(),
            spec_query: "ACCESS p FROM p IN PARA".into(),
        },
        Op::Flush => TaskKind::Flush {
            collection: "collPara".into(),
        },
    }
}

fn ops_strategy() -> BoxedStrategy<Vec<Op>> {
    let op = prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(p, t)| Op::Update {
            para: p as usize % 4,
            text: t as usize % TEXTS.len(),
        }),
        Just(Op::Index),
        Just(Op::Flush),
    ];
    prop::collection::vec(op.boxed(), 1..10).boxed()
}

fn executor_over(shared: &SharedSystem, queue: &TaskQueue) -> TaskExecutor {
    let config = SchedulerConfig::builder().batch_max(4).build();
    TaskExecutor::new(shared.clone(), queue.clone(), config)
}

/// Run every op to completion on a fresh system and return the probe —
/// the reference state crash-replay runs must converge to.
fn baseline(ops: &[Op]) -> Vec<(String, Vec<(Oid, f64)>)> {
    let shared = SharedSystem::new(two_issue_system());
    let paras = para_oids(&shared);
    let queue = TaskQueue::open(None, 1024, 16).expect("in-memory queue");
    for op in ops {
        queue.enqueue(op_kind(op, &paras)).expect("enqueue");
    }
    let mut executor = executor_over(&shared, &queue);
    executor.drain();
    executor.flush_propagation();
    probe(&shared)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-replay idempotence: execute an arbitrary prefix of the
    /// journaled queue, "crash" (drop queue and executor), reopen the
    /// ledger, and drain the rest. The surviving system must converge
    /// to exactly the state of an uninterrupted run, every task must
    /// reach `Succeeded`, and interrupted tasks must have reverted to
    /// the queue rather than being lost.
    #[test]
    fn crash_replay_converges(ops in ops_strategy(), cut in any::<u16>()) {
        let expected = baseline(&ops);

        let dir = tmp_dir("replay");
        let ledger = dir.join("tasks.ledger");
        let shared = SharedSystem::new(two_issue_system());
        let paras = para_oids(&shared);

        let queue = TaskQueue::open(Some(&ledger), 1024, 16).expect("journaled queue");
        for op in &ops {
            queue.enqueue(op_kind(op, &paras)).expect("enqueue");
        }
        let steps = cut as usize % (ops.len() + 1);
        let mut executor = executor_over(&shared, &queue);
        for _ in 0..steps {
            executor.step();
        }
        // Crash: the queue and executor vanish mid-drain; only the
        // ledger file and the document system survive.
        drop(executor);
        drop(queue);

        let queue = TaskQueue::open(Some(&ledger), 1024, 16).expect("reopen ledger");
        let reopened = queue.list_tasks(&TaskFilter::default());
        prop_assert_eq!(reopened.len(), ops.len(), "no task lost across the crash");
        prop_assert!(
            reopened
                .iter()
                .all(|t| t.status.kind() != TaskStatusKind::Processing),
            "interrupted tasks revert to Enqueued on replay"
        );
        let mut executor = executor_over(&shared, &queue);
        executor.drain();
        executor.flush_propagation();

        let done = queue.list_tasks(&TaskFilter::default());
        prop_assert!(
            done.iter().all(|t| t.status == TaskStatus::Succeeded),
            "every task terminal after the second drain: {done:?}"
        );
        prop_assert_eq!(probe(&shared), expected, "replayed state matches uninterrupted run");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn ledger tail — the file cut at an arbitrary byte — must
    /// never panic on reopen, and whatever tasks survive must still
    /// drain to terminal states.
    #[test]
    fn torn_ledger_never_panics(ops in ops_strategy(), cut in any::<u16>()) {
        let dir = tmp_dir("torn");
        let ledger = dir.join("tasks.ledger");
        let shared = SharedSystem::new(two_issue_system());
        let paras = para_oids(&shared);
        {
            let queue = TaskQueue::open(Some(&ledger), 1024, 16).expect("journaled queue");
            for op in &ops {
                queue.enqueue(op_kind(op, &paras)).expect("enqueue");
            }
            let mut executor = executor_over(&shared, &queue);
            executor.drain();
        }
        let bytes = std::fs::read(&ledger).expect("read ledger");
        let torn = &bytes[..cut as usize % (bytes.len() + 1)];
        std::fs::write(&ledger, torn).expect("write torn ledger");

        let queue = TaskQueue::open(Some(&ledger), 1024, 16).expect("torn tail truncates, not panics");
        let mut executor = executor_over(&shared, &queue);
        executor.drain();
        prop_assert!(
            queue
                .list_tasks(&TaskFilter::default())
                .iter()
                .all(|t| t.status.is_terminal()),
            "surviving tasks drain to terminal states"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance-level batching proof at the queue API: adjacent
/// identical `indexObjects` tasks claimed as one batch share one batch
/// id and count as merged executions saved.
#[test]
fn merged_tasks_share_batch_ids() {
    let shared = SharedSystem::new(two_issue_system());
    let queue = TaskQueue::open(None, 1024, 16).expect("queue");
    let kind = TaskKind::IndexObjects {
        collection: "collPara".into(),
        spec_query: "ACCESS p FROM p IN PARA".into(),
    };
    let ids: Vec<_> = (0..5)
        .map(|_| queue.enqueue(kind.clone()).expect("enqueue"))
        .collect();
    let mut executor = TaskExecutor::new(
        shared.clone(),
        queue.clone(),
        SchedulerConfig::builder().batch_max(8).build(),
    );
    assert!(executor.step(), "one step claims the whole run");
    let tasks: Vec<_> = ids
        .iter()
        .map(|id| queue.task_status(*id).expect("known"))
        .collect();
    assert!(
        tasks.iter().all(|t| t.status == TaskStatus::Succeeded),
        "all merged tasks succeeded: {tasks:?}"
    );
    let batch = tasks[0].batch_id.expect("executed tasks carry a batch id");
    assert!(
        tasks.iter().all(|t| t.batch_id == Some(batch)),
        "merged tasks share one batch id: {tasks:?}"
    );
    let stats = queue.stats();
    assert_eq!(stats.batches, 1, "one execution for five tasks");
    assert_eq!(stats.merged, 4, "four executions saved by merging");
}

/// Task lifecycle events are observable through a running server: an
/// enqueued write surfaces Enqueued → Started/Batched → Finished on a
/// subscription opened before the write.
#[test]
fn server_emits_task_events() {
    let server = Server::start(two_issue_system(), ServerConfig::default().read_workers(2));
    let events = server.tasks().expect("writable server").subscribe();
    let resp = server
        .call(Request::EnqueueTask {
            kind: TaskKind::Flush {
                collection: "collPara".into(),
            },
        })
        .expect("enqueue");
    let Response::TaskAccepted(id) = resp else {
        panic!("wrong response variant");
    };
    let mut seen = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if let Some(event) = events.recv_timeout(Duration::from_millis(100)) {
            let finished = matches!(&event, TaskEvent::Finished { id: fid, .. } if *fid == id);
            seen.push(event);
            if finished {
                break;
            }
        }
    }
    assert!(
        seen.contains(&TaskEvent::Enqueued(id)),
        "enqueue observed: {seen:?}"
    );
    assert!(
        seen.contains(&TaskEvent::Started(id)),
        "start observed: {seen:?}"
    );
    assert!(
        seen.iter()
            .any(|e| matches!(e, TaskEvent::Finished { id: fid, ok: true } if *fid == id)),
        "successful finish observed: {seen:?}"
    );
    server.shutdown();
}

/// A journaled server remembers its tasks across a restart: the ledger
/// under `journal_dir` reloads with the terminal statuses intact.
#[test]
fn server_ledger_survives_restart() {
    let dir = tmp_dir("restart");
    let config = || {
        ServerConfig::builder()
            .read_workers(2)
            .journal_dir(&dir)
            .build()
    };
    let id = {
        let server = Server::start(two_issue_system(), config());
        let Response::TaskAccepted(id) = server
            .call(Request::EnqueueTask {
                kind: TaskKind::IndexObjects {
                    collection: "collPara".into(),
                    spec_query: "ACCESS p FROM p IN PARA".into(),
                },
            })
            .expect("enqueue")
        else {
            panic!("wrong response variant");
        };
        server.shutdown();
        id
    };
    let server = Server::start(two_issue_system(), config());
    let resp = server
        .call(Request::TaskStatus { id })
        .expect("restarted server still knows the task");
    let Response::TaskInfo(task) = resp else {
        panic!("wrong response variant");
    };
    assert_eq!(
        task.status,
        TaskStatus::Succeeded,
        "shutdown drained the task before the restart"
    );
    let resp = server
        .call(Request::ListTasks {
            filter: TaskFilter {
                status: Some(TaskStatusKind::Succeeded),
                collection: Some("collPara".into()),
            },
        })
        .expect("list");
    let Response::TaskList(list) = resp else {
        panic!("wrong response variant");
    };
    assert!(list.iter().any(|t| t.id == id), "filtered listing finds it");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a journaled scheduler must create the `collections/`
/// journal subdirectory itself. The first UpdateText against a fresh
/// `journal_dir` used to fail with ENOENT because only the directory
/// root existed when the propagator opened its journal.
#[test]
fn journaled_update_creates_collections_dir() {
    let dir = tmp_dir("propagation-dir");
    let server = Server::start(
        two_issue_system(),
        ServerConfig::builder()
            .read_workers(2)
            .journal_dir(&dir)
            .build(),
    );
    let shared = server.system().clone();
    let para = para_oids(&shared)[0];
    let Response::TaskAccepted(id) = server
        .call(Request::EnqueueTask {
            kind: TaskKind::UpdateText {
                oid: para,
                text: "obsidian shards in the journal".into(),
                collections: vec!["collPara".into()],
            },
        })
        .expect("enqueue")
    else {
        panic!("wrong response variant");
    };
    let queue = server.tasks().expect("writable server");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let task = queue.task_status(id).expect("known task");
        if task.status.is_terminal() {
            assert_eq!(
                task.status,
                TaskStatus::Succeeded,
                "journaled update succeeds on a fresh journal_dir"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "task did not finish in time"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
    assert!(
        dir.join("collections").join("collPara.journal").exists(),
        "propagation journal written under the auto-created subdirectory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability point of one acknowledged write: an eager `UpdateText`
/// on a journaled queue syncs the task ledger three times (`Enqueued`,
/// `Started`, `Finished`) and the propagation journal twice (the
/// operation's append, then the clear once the IRS applied it).
#[test]
fn one_eager_update_syncs_ledger_three_times_and_journal_twice() {
    let dir = tmp_dir("durability-point");
    let shared = SharedSystem::new(two_issue_system());
    let para = para_oids(&shared)[0];
    let config = SchedulerConfig::builder()
        .journal_dir(&dir)
        .propagation(PropagationStrategy::Eager)
        .build();
    let queue = TaskQueue::open(config.ledger_path().as_deref(), 16, 16).expect("journaled queue");
    let id = queue
        .enqueue(TaskKind::UpdateText {
            oid: para,
            text: "basalt columns cool slowly".into(),
            collections: vec!["collPara".into()],
        })
        .expect("enqueue");
    let mut executor = TaskExecutor::new(shared, queue.clone(), config);
    executor.drain();
    assert_eq!(
        queue.task_status(id).expect("known task").status,
        TaskStatus::Succeeded
    );
    assert_eq!(queue.ledger_syncs(), 3, "Enqueued, Started, Finished");
    let journal = executor
        .propagator("collPara")
        .and_then(|p| p.journal())
        .expect("journaled propagator");
    assert_eq!(journal.syncs(), 2, "append, then clear");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retired synchronous write kinds (request tags 3 and 4) are
/// answered over the wire with a 400 that points at `EnqueueTask`, and
/// the server keeps serving afterwards.
#[test]
fn retired_write_kinds_answer_bad_request() {
    let net = NetServer::bind(
        Server::start(two_issue_system(), ServerConfig::default().read_workers(2)),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = net.local_addr();
    let put_str = |buf: &mut Vec<u8>, s: &str| {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    };
    // The payloads an old client sends: UpdateText (oid, text,
    // collection list) and IndexObjects (collection, spec query).
    let mut update_text = vec![3u8];
    update_text.extend_from_slice(&1u64.to_le_bytes());
    put_str(&mut update_text, "quartz crystals resonate");
    update_text.extend_from_slice(&1u32.to_le_bytes());
    put_str(&mut update_text, "collPara");
    let mut index_objects = vec![4u8];
    put_str(&mut index_objects, "collPara");
    put_str(&mut index_objects, "ACCESS p FROM p IN PARA");

    for (name, payload) in [("UpdateText", update_text), ("IndexObjects", index_objects)] {
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, FrameKind::Request, &payload).unwrap();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&frame).unwrap();
        let reply = wire::read_frame(&mut stream)
            .expect("readable reply")
            .expect("error frame, not a close");
        assert_eq!(reply.kind, FrameKind::Error, "{name}");
        let fault = wire::decode_fault(&reply.payload).expect("fault payload");
        assert_eq!(fault.status, Status::BadRequest, "{name}");
        assert!(fault.message.contains(name), "{name}: {}", fault.message);
        assert!(
            fault.message.contains("EnqueueTask"),
            "{name}: {}",
            fault.message
        );
    }
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.call(&Request::Ping).expect("ping"), Response::Pong);
    net.shutdown();
}

/// The bytes of a ledger `Enqueued` record, pinned: record tag 0x10,
/// task id and tick as 8 little-endian bytes each, then the task kind
/// in the same layout as the wire's `EnqueueTask` payload
/// (`tests/tests/wire.rs`).
#[test]
fn ledger_enqueued_record_bytes_are_pinned() {
    let dir = tmp_dir("golden-ledger");
    let path = dir.join("tasks.ledger");
    let queue = TaskQueue::open(Some(&path), 16, 16).expect("queue");
    queue
        .enqueue(TaskKind::UpdateText {
            oid: Oid(0x0102),
            text: "hi".into(),
            collections: vec!["a".into(), "bc".into()],
        })
        .expect("enqueue");
    drop(queue);
    let (_, records) = oodb::log::Log::open(&path, coupling::tasks::TASK_RECORD_MAX).expect("log");
    let golden: &[u8] = b"\x10\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\
        \x01\x02\x01\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00hi\
        \x02\x00\x00\x00\x01\x00\x00\x00a\x02\x00\x00\x00bc";
    assert_eq!(records, vec![golden.to_vec()]);
    let _ = std::fs::remove_dir_all(&dir);
}
