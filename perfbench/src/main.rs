//! `perfbench`: the end-to-end benchmark of the OODBMS–IRS coupling,
//! with per-layer attribution.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_topk|hot_mixed|update_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every workload drives the real system
//! over loopback TCP (`serve::NetServer` + `serve::Client`) from one
//! process with at most two load threads and two client connections;
//! `hot_mixed`'s traced run also routes its queries through
//! `PartitionedIrs` over two `ReplicaServer` partitions. Nothing
//! injects latency or faults. With `--trace 0` the last stdout line
//! carries the end-to-end metrics of an untraced run; with `--trace 1`
//! it carries the per-layer metrics of a traced replay of the same seed
//! (plus the untraced run they are compared with). Work files
//! (journals, span dumps) go under `.perfbench_work/`.

mod load;
mod oracle;
mod report;
mod setup;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use coupling::tasks::{SchedulerConfig, TaskExecutor, TaskKind, TaskQueue};
use coupling::{tasks_ledger_path, FaultStats, MixedStrategy, ResultOrigin, SharedSystem};
use oodb::Oid;
use serve::{Client, NetServer, Request, Response, Server};
use sgml::GeneratedDoc;

use crate::load::{closed_loop, open_loop_writes, Reads, Writes};
use crate::oracle::{exhaustive, judge, judge_shape, ranked, same_hits, Verdict};
use crate::report::{Metrics, END_TO_END, PER_LAYER};
use crate::setup::{
    build_system, oids, server_config, start_partitions, start_primary, Primary, Timings,
};
use crate::stats::median;
use crate::trace::{replay_partitioned, replay_read, replay_write, Layers, Tracer};
use crate::workload::{HotRead, Workload, Write, COLL, HOT_POOL, K, SPEC};

/// Set-ups per untraced run; `setup_s` is their median. The 20 000-doc
/// corpus takes seconds to set up, the 2 000-doc ones a fraction of one.
fn setup_repeats(o: &Opts) -> usize {
    match (o.trace, o.workload) {
        (true, _) => 1,
        (false, Workload::ColdTopk) => 3,
        (false, _) => 5,
    }
}

/// Each slice of the read window holds at least this many reads, so its
/// p99 has at least ten samples beyond it...
const MIN_SLICE_SAMPLES: usize = 1_000;
/// ...and the window is cut into at most this many slices.
const MAX_SLICES: usize = 20;

/// Work directory (journals, span dumps), relative to the checkout root.
const WORK_DIR: &str = ".perfbench_work";
/// Longest wait for accepted writes to finish after the window.
const DRAIN: Duration = Duration::from_secs(30);
/// `durable.bytes_per_write` is read after this many traced writes, so
/// it covers the same writes on every run of a seed.
const DURABLE_PREFIX: u64 = 64;
/// `cold_topk` checks one query in this many against the oracle...
const ORACLE_EVERY: usize = 64;
/// ...among this many first stream positions.
const ORACLE_SPAN: usize = 64 * 64;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything a run measured and checked.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    fn add_reads(&mut self, reads: &Reads) {
        self.attempted += reads.attempted;
        self.failed += reads.errors();
        if reads.errors() > 0 {
            self.problems.push(format!(
                "reads: {} failed, {} wrong, {} stale",
                reads.failed, reads.wrong, reads.stale
            ));
        }
    }

    /// The untraced read metrics: medians over [`Reads::slices`] of the
    /// window, so a burst of host noise moves a few slices, not the
    /// figure.
    fn read_metrics(&mut self, reads: &Reads) {
        let slices = reads.slices(MIN_SLICE_SAMPLES, MAX_SLICES);
        let lat: Vec<&[f64]> = slices.iter().map(|s| s.lat_us.as_slice()).collect();
        let rps: Vec<f64> = slices.iter().map(|s| s.rps()).collect();
        let m = &mut self.metrics;
        m.set_pct_median("read_p50_us", &lat, 0.50);
        m.set_pct_median("read_p95_us", &lat, 0.95);
        m.set_pct_median("read_p99_us", &lat, 0.99);
        m.set("read_rps", median(&rps));
    }

    /// Per-layer metrics of a traced replay.
    fn layer_metrics(&mut self, l: &Layers) {
        const PCT: &[(&str, f64, &str)] = &[
            ("net.rtt_us", 0.5, "net.rtt_us.p50"),
            ("wire.encode_us", 0.5, "wire.encode_us.p50"),
            ("wire.decode_us", 0.5, "wire.decode_us.p50"),
            ("wire.response_bytes", 0.5, "wire.response_bytes.p50"),
            ("serve.call_us", 0.5, "serve.call_us.p50"),
            ("serve.call_us", 0.99, "serve.call_us.p99"),
            ("serve.queue_wait_us", 0.99, "serve.queue_wait_us.p99"),
            ("coupling.result_us", 0.5, "coupling.result_us.p50"),
            ("coupling.result_us", 0.99, "coupling.result_us.p99"),
            ("coupling.fold_us", 0.5, "coupling.fold_us.p50"),
            ("mixed.eval_us", 0.5, "mixed.eval_us.p50"),
            ("mixed.eval_us", 0.99, "mixed.eval_us.p99"),
            ("oodb.extent_us", 0.5, "oodb.extent_us.p50"),
            ("derive.us", 0.5, "derive.us.p50"),
            ("irs.parse_us", 0.5, "irs.parse_us.p50"),
            ("irs.search_us", 0.5, "irs.search_us.p50"),
            ("irs.search_us", 0.99, "irs.search_us.p99"),
            ("tasks.enqueue_us", 0.5, "tasks.enqueue_us.p50"),
            ("tasks.enqueue_us", 0.99, "tasks.enqueue_us.p99"),
            ("tasks.exec_us", 0.5, "tasks.exec_us.p50"),
            ("tasks.exec_us", 0.99, "tasks.exec_us.p99"),
            ("partition.stats_leg_us", 0.5, "partition.stats_leg_us.p50"),
            (
                "partition.search_leg_us",
                0.5,
                "partition.search_leg_us.p50",
            ),
            ("partition.route_us", 0.5, "partition.route_us.p50"),
            ("partition.route_us", 0.99, "partition.route_us.p99"),
            ("partition.gather_us", 0.5, "partition.gather_us.p50"),
        ];
        for &(src, p, dst) in PCT {
            if let Some(v) = l.pct(src, p) {
                self.metrics.set(dst, v);
            }
        }
        for (src, dst) in [
            (
                "mixed.structural_checks",
                "mixed.structural_checks_per_query",
            ),
            ("derive.components", "derive.components_per_value"),
        ] {
            if let Some(v) = l.mean(src) {
                self.metrics.set(dst, v);
            }
        }
        if let (Some(traced), Some(untraced)) = (
            l.pct("trace.latency_us", 0.5),
            self.metrics.get("read_p50_us"),
        ) {
            self.metrics.set("trace.overhead", traced / untraced);
        }
    }

    fn setup_metrics(&mut self, t: Timings, postings_bytes: usize) {
        let m = &mut self.metrics;
        m.set("setup.load_s", t.load_s);
        m.set("setup.spec_query_s", t.spec_query_s);
        // `index_collection` evaluates the spec query itself; report the
        // indexing stage's own share.
        m.set("setup.index_s", t.index_s - t.spec_query_s);
        m.set("irs.postings_bytes", postings_bytes as f64);
    }

    fn buffer_metrics(
        &mut self,
        before: coupling::buffer::BufferStats,
        after: coupling::buffer::BufferStats,
    ) {
        let hits = (after.hits - before.hits) as f64;
        let misses = (after.misses - before.misses) as f64;
        self.metrics
            .set("buffer.hit_ratio", hits / (hits + misses).max(1.0));
    }
}

/// The request at a stream position.
type RequestAt<'a> = Box<dyn Fn(usize) -> Request + Sync + 'a>;
/// How to judge the answer to the request at a stream position.
type JudgeAt<'a> = Box<dyn Fn(usize, &Response) -> Verdict + Sync + 'a>;

/// The reads of one workload.
struct ReadMix<'a> {
    request: RequestAt<'a>,
    judge: JudgeAt<'a>,
}

fn warmup(o: &Opts) -> Duration {
    Duration::from_secs_f64((o.seconds * 0.2).min(1.0))
}

/// Closed-loop reads against a primary until `deadline`.
fn primary_reads(
    addr: std::net::SocketAddr,
    mix: &ReadMix,
    next: &mut usize,
    deadline: Instant,
) -> Reads {
    let mut client = Client::connect(addr).expect("connect loopback");
    closed_loop(&mut client, next, deadline, |c, i| {
        let req = (mix.request)(i);
        c.call(&req).ok().map(|resp| (mix.judge)(i, &resp))
    })
}

/// Warm up, then measure the window; warm-up reads count as attempted
/// and their errors as failed, but not in the latency samples.
fn measured_reads(
    o: &Opts,
    out: &mut Outcome,
    primary: &Primary,
    mix: &ReadMix,
    next: &mut usize,
) -> Reads {
    let addr = primary.net.local_addr();
    let warm = primary_reads(addr, mix, next, Instant::now() + warmup(o));
    out.add_reads(&warm);
    let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
    primary_reads(addr, mix, next, deadline)
}

fn buffer_stats(shared: &SharedSystem) -> coupling::buffer::BufferStats {
    shared.read(|sys| {
        sys.collection(COLL)
            .expect("collection exists")
            .buffer_stats()
    })
}

fn check_faults(out: &mut Outcome, shared: &SharedSystem) {
    let faults = shared.read(|sys| {
        sys.collection(COLL)
            .expect("collection exists")
            .fault_stats()
    });
    out.check(faults == FaultStats::default(), || {
        format!("fault stats not zero: {faults:?}")
    });
}

/// Build and serve the primary [`setup_repeats`] times; keep the last. Returns it with the set-up times.
fn repeated_primaries(
    o: &Opts,
    docs: &[GeneratedDoc],
    limit: Option<usize>,
    journal: impl Fn(usize) -> Option<PathBuf>,
) -> (Primary, Vec<f64>) {
    let repeats = setup_repeats(o);
    let mut times = Vec::new();
    let mut kept = None;
    for r in 0..repeats {
        let dir = journal(r);
        let t = Instant::now();
        let (sys, _) = build_system(docs, limit, false);
        let primary = start_primary(SharedSystem::new(sys), server_config(dir.as_deref()));
        times.push(t.elapsed().as_secs_f64());
        if r + 1 < repeats {
            primary.net.shutdown();
        } else {
            kept = Some(primary);
        }
    }
    (kept.expect("at least one set-up"), times)
}

/// A freshly built system for the traced replay, with an in-process
/// read-only server and a read-only TCP front-end over it.
struct Replay {
    shared: SharedSystem,
    server: Server,
    net: NetServer,
    client: Client,
}

fn start_replay(out: &mut Outcome, docs: &[GeneratedDoc], limit: Option<usize>) -> Replay {
    let (sys, timings) = build_system(docs, limit, true);
    let postings = sys
        .collection(COLL)
        .expect("collection exists")
        .irs()
        .index_stats()
        .postings_bytes;
    out.setup_metrics(timings, postings);
    let shared = SharedSystem::new(sys);
    let read_only = || server_config(None).read_only(true);
    let server = Server::start_shared(shared.clone(), read_only());
    let net = NetServer::bind(
        Server::start_shared(shared.clone(), read_only()),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let client = Client::connect(net.local_addr()).expect("connect loopback");
    Replay {
        shared,
        server,
        net,
        client,
    }
}

impl Replay {
    /// Replay stream positions from `from` until `until` says stop;
    /// returns the next position.
    fn reads(
        &mut self,
        t: &mut Tracer,
        l: &mut Layers,
        out: &mut Outcome,
        mix: &ReadMix,
        from: usize,
        until: impl Fn(usize) -> bool,
    ) -> usize {
        let mut i = from;
        while !until(i) {
            t.request(i as u64);
            let req = (mix.request)(i);
            let verdict = replay_read(t, l, &self.shared, &self.server, &mut self.client, &req)
                .map(|resp| (mix.judge)(i, &resp));
            out.attempted += 1;
            out.check(verdict == Some(Verdict::Ok), || {
                format!("traced read {i}: {verdict:?}")
            });
            i += 1;
        }
        i
    }

    fn shutdown(self) {
        drop(self.client);
        self.net.shutdown();
        self.server.shutdown();
    }
}

fn write_trace(o: &Opts, t: &Tracer) {
    let path = Path::new(WORK_DIR).join(format!("trace-{}-seed{}.tsv", o.workload.name(), o.seed));
    match t.write_tsv(&path) {
        Ok(()) => println!("perfbench-trace {} spans -> {}", t.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

// ---------------------------------------------------------------------
// cold_topk
// ---------------------------------------------------------------------

fn run_cold(o: &Opts, docs: &[GeneratedDoc], out: &mut Outcome) {
    let queries = workload::cold_queries(o.seed);
    let (primary, times) = repeated_primaries(o, docs, o.workload.result_limit(), |_| None);
    out.metrics.set("setup_s", median(&times));

    // Oracle (untimed): exhaustive evaluation of a seeded sample.
    let expected: HashMap<usize, Vec<(Oid, f64)>> = primary.shared.read(|sys| {
        let coll = sys.collection(COLL).expect("collection exists");
        workload::oracle_sample(o.seed, ORACLE_EVERY, ORACLE_SPAN)
            .into_iter()
            .map(|i| (i, ranked(&exhaustive(coll.irs(), &queries[i], Some(K)))))
            .collect()
    });
    let mix = ReadMix {
        request: Box::new(|i| Request::IrsQuery {
            collection: COLL.into(),
            query: queries[i % queries.len()].clone(),
        }),
        judge: Box::new(|i, resp| match expected.get(&i) {
            Some(want) => judge(
                resp,
                &Response::IrsResult {
                    hits: want.clone(),
                    origin: ResultOrigin::Fresh,
                },
            ),
            None => judge_shape(resp, Some(K), None),
        }),
    };
    let mut next = 0;
    let before = buffer_stats(&primary.shared);
    let reads = measured_reads(o, out, &primary, &mix, &mut next);
    out.buffer_metrics(before, buffer_stats(&primary.shared));
    out.add_reads(&reads);
    out.read_metrics(&reads);
    check_faults(out, &primary.shared);
    let checked = expected.keys().filter(|&&i| i < next).count();
    println!(
        "perfbench-oracle cold_topk: {checked} sampled answers compared with exhaustive search"
    );
    primary.net.shutdown();
    out.metrics.set("peak_rss_mb", report::peak_rss_mb());

    if o.trace {
        let mut replay = start_replay(out, docs, Some(K));
        let (mut t, mut l) = (Tracer::default(), Layers::default());
        let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
        replay.reads(&mut t, &mut l, out, &mix, 0, |_| Instant::now() >= deadline);
        out.layer_metrics(&l);
        check_faults(out, &replay.shared);
        replay.shutdown();
        write_trace(o, &t);
    }
}

// ---------------------------------------------------------------------
// hot_mixed
// ---------------------------------------------------------------------

/// The hot mix's distinct requests and their oracle answers.
struct HotTable {
    requests: Vec<Request>,
    expected: Vec<Response>,
    stream: Vec<HotRead>,
}

impl HotTable {
    fn build(seed: u64, shared: &SharedSystem) -> HotTable {
        let pool = workload::hot_pool(seed);
        shared.read(|sys| {
            let coll = sys.collection(COLL).expect("collection exists");
            let ctx = coll.db().method_ctx();
            let sections = oids(sys, "ACCESS s FROM s IN SECTION");
            let pairs = workload::value_pairs(seed, sections.len());
            let maps: Vec<HashMap<Oid, f64>> = pool
                .iter()
                .map(|q| exhaustive(coll.irs(), q, None))
                .collect();
            // Threshold: the median score, so about half the hits pass.
            let thresholds: Vec<f64> = maps
                .iter()
                .map(|m| median(&m.values().copied().collect::<Vec<_>>()))
                .collect();
            let mut requests = Vec::with_capacity(4 * HOT_POOL);
            let mut expected = Vec::with_capacity(4 * HOT_POOL);
            for (q, map) in maps.iter().enumerate() {
                requests.push(Request::IrsQuery {
                    collection: COLL.into(),
                    query: pool[q].clone(),
                });
                expected.push(Response::IrsResult {
                    hits: ranked(map),
                    origin: ResultOrigin::Fresh,
                });
            }
            for strategy in [MixedStrategy::IrsFirst, MixedStrategy::Independent] {
                for (q, map) in maps.iter().enumerate() {
                    requests.push(Request::MixedQuery {
                        collection: COLL.into(),
                        class: "PARA".into(),
                        irs_query: pool[q].clone(),
                        threshold: thresholds[q],
                        strategy,
                    });
                    let mut oids: Vec<Oid> = map
                        .iter()
                        .filter(|(_, &v)| v > thresholds[q])
                        .map(|(&o, _)| o)
                        .collect();
                    oids.sort();
                    expected.push(Response::Mixed {
                        oids,
                        strategy,
                        origin: ResultOrigin::Fresh,
                    });
                }
            }
            for &(q, s) in &pairs {
                let oid = sections.get(s).copied().unwrap_or(Oid(0));
                requests.push(Request::GetIrsValue {
                    collection: COLL.into(),
                    query: pool[q].clone(),
                    oid,
                });
                // The default derivation: maximum over the nearest
                // represented components.
                let value = coupling::derive::represented_components(&ctx, &*coll, oid)
                    .iter()
                    .map(|c| maps[q].get(c).copied().unwrap_or(0.0))
                    .fold(0.0, f64::max);
                expected.push(Response::Value(value));
            }
            HotTable {
                requests,
                expected,
                stream: workload::hot_stream(seed),
            }
        })
    }

    fn index(&self, i: usize) -> usize {
        match self.stream[i % self.stream.len()] {
            HotRead::Irs(q) => q,
            HotRead::Mixed { q, irs_first: true } => HOT_POOL + q,
            HotRead::Mixed {
                q,
                irs_first: false,
            } => 2 * HOT_POOL + q,
            HotRead::Value(p) => 3 * HOT_POOL + p,
        }
    }

    /// Reads judged against the oracle.
    fn exact(&self) -> ReadMix<'_> {
        ReadMix {
            request: Box::new(|i| self.requests[self.index(i)].clone()),
            judge: Box::new(|i, resp| judge(resp, &self.expected[self.index(i)])),
        }
    }
}

fn run_hot(o: &Opts, docs: &[GeneratedDoc], out: &mut Outcome) {
    let (primary, times) = repeated_primaries(o, docs, o.workload.result_limit(), |_| None);
    out.metrics.set("setup_s", median(&times));
    let table = HotTable::build(o.seed, &primary.shared);
    let mix = table.exact();
    let mut next = 0;
    let before = buffer_stats(&primary.shared);
    let reads = measured_reads(o, out, &primary, &mix, &mut next);
    out.buffer_metrics(before, buffer_stats(&primary.shared));
    out.add_reads(&reads);
    out.read_metrics(&reads);
    check_faults(out, &primary.shared);
    primary.net.shutdown();
    out.metrics.set("peak_rss_mb", report::peak_rss_mb());

    if o.trace {
        let mut replay = start_replay(out, docs, None);
        let table = HotTable::build(o.seed, &replay.shared);
        let mix = table.exact();
        let (mut t, mut l) = (Tracer::default(), Layers::default());
        let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
        replay.reads(&mut t, &mut l, out, &mix, 0, |_| Instant::now() >= deadline);
        check_faults(out, &replay.shared);
        replay_scatter(o, docs, &replay.shared, &mut t, &mut l, out);
        out.layer_metrics(&l);
        replay.shutdown();
        write_trace(o, &t);
    }
}

// ---------------------------------------------------------------------
// update_mix
// ---------------------------------------------------------------------

/// Paragraph OIDs and their original texts.
fn paragraphs(shared: &SharedSystem) -> (Vec<Oid>, Vec<String>) {
    shared.read(|sys| {
        let paras = oids(sys, SPEC);
        let texts = paras
            .iter()
            .map(|&p| {
                sys.db()
                    .object(p)
                    .ok()
                    .and_then(|obj| {
                        obj.attr_ref("text")
                            .and_then(|v| v.as_str())
                            .map(str::to_string)
                    })
                    .unwrap_or_default()
            })
            .collect();
        (paras, texts)
    })
}

fn write_kind(paras: &[Oid], texts: &[String], w: &Write) -> TaskKind {
    TaskKind::UpdateText {
        oid: paras[w.para],
        text: format!("{} {}", texts[w.para], w.marker),
        collections: vec![COLL.into()],
    }
}

/// After the drain, each marker query must return exactly the paragraph
/// whose last write carried that marker, and nothing for overwritten
/// markers.
fn check_markers(
    out: &mut Outcome,
    shared: &SharedSystem,
    paras: &[Oid],
    plan: &[Write],
    applied: &[usize],
) {
    let mut last: HashMap<usize, usize> = HashMap::new();
    for &i in applied {
        last.insert(plan[i].para, i);
    }
    let wrong = shared.read(|sys| {
        let coll = sys.collection(COLL).expect("collection exists");
        applied
            .iter()
            .filter(|&&i| {
                let got: Vec<Oid> = exhaustive(coll.irs(), &plan[i].marker, None)
                    .into_keys()
                    .collect();
                let want: Vec<Oid> = if last[&plan[i].para] == i {
                    vec![paras[plan[i].para]]
                } else {
                    vec![]
                };
                got != want
            })
            .count()
    });
    out.attempted += applied.len() as u64;
    out.failed += wrong as u64;
    if wrong > 0 {
        out.problems.push(format!(
            "{wrong} marker queries disagree with the last write"
        ));
    }
    println!(
        "perfbench-oracle update_mix: {} marker queries checked after the drain",
        applied.len()
    );
}

/// `update_mix`'s reads: the hot mix's request kinds in its shares, but
/// each over a query of the distinct `cold_topk` stream, judged by shape
/// only (answers move under writes). No read finds its answer buffered,
/// so the hit ratio cannot follow the server's speed: with the hot
/// pool, a faster server fitted more reads between two writes, hit more
/// often and ran faster still, and the median read sat between the hit
/// and the miss latencies, moving by a fifth between runs of one seed.
fn distinct_mix<'a>(
    queries: &'a [String],
    kinds: &'a [HotRead],
    sections: &'a [Oid],
) -> ReadMix<'a> {
    let query = move |i: usize| queries[i % queries.len()].clone();
    let kind = move |i: usize| kinds[i % kinds.len()];
    ReadMix {
        request: Box::new(move |i| match kind(i) {
            HotRead::Irs(_) => Request::IrsQuery {
                collection: COLL.into(),
                query: query(i),
            },
            HotRead::Mixed { irs_first, .. } => Request::MixedQuery {
                collection: COLL.into(),
                class: "PARA".into(),
                irs_query: query(i),
                threshold: 0.0,
                strategy: strategy(irs_first),
            },
            HotRead::Value(p) => Request::GetIrsValue {
                collection: COLL.into(),
                query: query(i),
                oid: sections
                    .get(p % sections.len().max(1))
                    .copied()
                    .unwrap_or(Oid(0)),
            },
        }),
        judge: Box::new(move |i, resp| {
            let strategy = match kind(i) {
                HotRead::Mixed { irs_first, .. } => Some(strategy(irs_first)),
                _ => None,
            };
            judge_shape(resp, Some(K), strategy)
        }),
    }
}

fn strategy(irs_first: bool) -> MixedStrategy {
    if irs_first {
        MixedStrategy::IrsFirst
    } else {
        MixedStrategy::Independent
    }
}

fn run_update(o: &Opts, docs: &[GeneratedDoc], out: &mut Outcome, work: &Path) {
    let journal = |r: usize| Some(work.join(format!("journal-{r}")));
    let (primary, times) = repeated_primaries(o, docs, Some(K), journal);
    out.metrics.set("setup_s", median(&times));
    let queries = workload::cold_queries(o.seed);
    let kinds = workload::hot_stream(o.seed);
    let sections = primary
        .shared
        .read(|sys| oids(sys, "ACCESS s FROM s IN SECTION"));
    let mix = distinct_mix(&queries, &kinds, &sections);
    let (paras, texts) = paragraphs(&primary.shared);
    let plan = workload::write_plan(o.seed, paras.len(), o.seconds);
    let queue = primary.queue.clone().expect("primary has a task queue");
    let events = queue.subscribe();
    let addr = primary.net.local_addr();

    let mut next = 0;
    let warm = primary_reads(addr, &mix, &mut next, Instant::now() + warmup(o));
    out.add_reads(&warm);
    let (buffer_before, tasks_before) = (buffer_stats(&primary.shared), queue.stats());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(o.seconds);
    let (reads, writes): (Reads, Writes) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connect loopback");
            open_loop_writes(
                &mut client,
                &queue,
                &events,
                start,
                &plan,
                |w| write_kind(&paras, &texts, w),
                DRAIN,
            )
        });
        let reads = primary_reads(addr, &mix, &mut next, deadline);
        (reads, writer.join().expect("writer thread"))
    });
    let (buffer_after, tasks_after) = (buffer_stats(&primary.shared), queue.stats());
    out.buffer_metrics(buffer_before, buffer_after);
    out.add_reads(&reads);
    out.read_metrics(&reads);

    // Write-path invariants.
    out.attempted += writes.attempted;
    out.failed += writes.refused + writes.failed + writes.unfinished;
    out.check(events.missed() == 0, || {
        format!("task subscriber missed {} events", events.missed())
    });
    out.check(
        tasks_after.succeeded - tasks_before.succeeded == writes.acked,
        || {
            format!(
                "{} tasks succeeded for {} acknowledged writes",
                tasks_after.succeeded - tasks_before.succeeded,
                writes.acked
            )
        },
    );
    out.check(tasks_after.failed == tasks_before.failed, || {
        "a task failed".into()
    });
    if writes.refused + writes.failed + writes.unfinished > 0 {
        out.problems.push(format!(
            "writes: {} refused, {} failed, {} unfinished",
            writes.refused, writes.failed, writes.unfinished
        ));
    }
    check_markers(out, &primary.shared, &paras, &plan, &writes.accepted);
    check_faults(out, &primary.shared);

    let m = &mut out.metrics;
    m.set_pct("write_ack_p50_us", &writes.ack_us, 0.50);
    m.set_pct("write_ack_p99_us", &writes.ack_us, 0.99);
    m.set_pct("write_visible_p50_us", &writes.visible_us, 0.50);
    m.set_pct("write_visible_p99_us", &writes.visible_us, 0.99);
    m.set_pct("loadgen.late_p99_us", &writes.late_us, 0.99);
    let batches = (tasks_after.batches - tasks_before.batches).max(1);
    m.set(
        "tasks.batch_size",
        (tasks_after.enqueued - tasks_before.enqueued) as f64 / batches as f64,
    );
    m.set("tasks.depth_max", writes.depth_max as f64);
    m.set(
        "buffer.invalidations_per_write",
        (buffer_after.invalidations - buffer_before.invalidations) as f64
            / writes.acked.max(1) as f64,
    );
    drop(events);
    primary.net.shutdown();
    out.metrics.set("peak_rss_mb", report::peak_rss_mb());

    if o.trace {
        let reads_per_write =
            ((reads.ok as f64 / writes.acked.max(1) as f64).round() as usize).max(1);
        let mut replay = start_replay(out, docs, Some(K));
        let dir = work.join("journal-trace");
        std::fs::create_dir_all(&dir).expect("create journal directory");
        let config = SchedulerConfig::builder()
            .queue_capacity(setup::QUEUE_CAPACITY)
            .batch_max(setup::BATCH_MAX)
            .batching(true)
            .propagation(setup::PROPAGATION)
            .journal_dir(&dir)
            .build();
        let queue = TaskQueue::open(
            Some(&tasks_ledger_path(&dir)),
            config.queue_capacity,
            config.event_capacity,
        )
        .expect("open journaled task queue");
        let mut executor = TaskExecutor::new(replay.shared.clone(), queue.clone(), config);
        let (mut t, mut l) = (Tracer::default(), Layers::default());
        let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
        let (mut next, mut replayed) = (0, 0u64);
        for w in &plan {
            if Instant::now() >= deadline {
                break;
            }
            t.request(u64::MAX - replayed);
            out.attempted += 1;
            let ok = replay_write(
                &mut t,
                &mut l,
                &queue,
                &mut executor,
                write_kind(&paras, &texts, w),
            );
            out.check(ok, || "traced write refused".into());
            replayed += 1;
            if replayed == DURABLE_PREFIX {
                out.metrics.set(
                    "durable.bytes_per_write",
                    report::dir_bytes(&dir) as f64 / DURABLE_PREFIX as f64,
                );
            }
            let stop = next + reads_per_write;
            next = replay.reads(&mut t, &mut l, out, &mix, next, |i| i >= stop);
        }
        let stats = queue.stats();
        out.check(stats.succeeded == replayed && stats.failed == 0, || {
            format!("traced writes: {stats:?}")
        });
        if replayed < DURABLE_PREFIX {
            println!(
                "perfbench-warning only {replayed} traced writes; durable.bytes_per_write \
                 needs {DURABLE_PREFIX}, run longer"
            );
        }
        out.layer_metrics(&l);
        check_faults(out, &replay.shared);
        drop(executor);
        replay.shutdown();
        write_trace(o, &t);
    }
}

// ---------------------------------------------------------------------
// scatter/gather, measured in hot_mixed's traced run
// ---------------------------------------------------------------------

/// Span request ids of routed queries start here, clear of the replay's.
const ROUTED_REQUEST_IDS: u64 = 1 << 40;

/// Route `hot_mixed`'s IRS queries over two read-only partitions of the
/// same corpus for half the run length, comparing every merged top-k
/// bit for bit with the single-node answer of `shared`.
fn replay_scatter(
    o: &Opts,
    docs: &[GeneratedDoc],
    shared: &SharedSystem,
    t: &mut Tracer,
    l: &mut Layers,
    out: &mut Outcome,
) {
    let pool = workload::hot_pool(o.seed);
    let stream = workload::hot_stream(o.seed);
    let query_at = |i: usize| match stream[i % stream.len()] {
        HotRead::Irs(q) | HotRead::Mixed { q, .. } | HotRead::Value(q) => pool[q].as_str(),
    };
    let expected: HashMap<&str, Vec<(Oid, f64)>> = shared.read(|sys| {
        let coll = sys.collection(COLL).expect("collection exists");
        pool.iter()
            .map(|q| (q.as_str(), ranked(&exhaustive(coll.irs(), q, Some(K)))))
            .collect()
    });
    let parts = start_partitions(docs, 2);
    let deadline = Instant::now() + Duration::from_secs_f64(o.seconds / 2.0);
    let mut i = 0;
    while Instant::now() < deadline {
        t.request(ROUTED_REQUEST_IDS + i as u64);
        let verdict = match replay_partitioned(t, l, &parts.router, query_at(i)) {
            None => None,
            Some((_, ResultOrigin::Stale)) => Some(Verdict::Stale),
            Some((hits, _)) if same_hits(&hits, &expected[query_at(i)]) => Some(Verdict::Ok),
            Some(_) => Some(Verdict::Wrong),
        };
        out.attempted += 1;
        out.check(verdict == Some(Verdict::Ok), || {
            format!("routed query {i}: {verdict:?}")
        });
        i += 1;
    }
    let stats = parts.router.stats();
    out.check(
        stats.scatter_failures == 0 && stats.stale_serves == 0 && stats.exhausted == 0,
        || format!("partition router degraded: {stats:?}"),
    );
    parts.shutdown();
}

fn main() {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_topk|hot_mixed|update_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let work = Path::new(WORK_DIR).join(format!("{}-{}", o.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).expect("create the work directory");
    println!(
        "perfbench-env {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"git_revision\": \"{}\", \"irs_shards\": {}, \"read_workers\": {}, \
         \"queue_capacity\": {}, \"batch_max\": {}, \"propagation\": \"{:?}\", \
         \"journal_fs\": \"{}\", \"why\": \"{}\"}}",
        o.workload.name(),
        o.seed,
        o.seconds,
        o.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        report::git_revision(),
        setup::IRS_SHARDS,
        setup::READ_WORKERS,
        setup::QUEUE_CAPACITY,
        setup::BATCH_MAX,
        setup::PROPAGATION,
        report::filesystem_of(&work),
        o.workload.why(),
    );

    let docs = workload::corpus(o.workload, o.seed);
    let mut out = Outcome::default();
    match o.workload {
        Workload::ColdTopk => run_cold(&o, &docs, &mut out),
        Workload::HotMixed => run_hot(&o, &docs, &mut out),
        Workload::UpdateMix => run_update(&o, &docs, &mut out, &work),
    }
    let _ = std::fs::remove_dir_all(&work);
    // Leave the work directory only if it holds span dumps.
    let _ = std::fs::remove_dir(WORK_DIR);

    for p in &out.problems {
        println!("perfbench-problem {p}");
    }
    println!("perfbench-evidence {}", out.metrics.evidence_json());
    for name in out.metrics.thin() {
        println!("perfbench-warning {name} has fewer than 10 samples beyond it; run longer");
    }
    let line = if o.trace {
        report::result_line(
            out.failed == 0,
            out.attempted,
            out.failed,
            &out.metrics,
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)),
        )
    } else {
        report::result_line(
            out.failed == 0,
            out.attempted,
            out.failed,
            &out.metrics,
            END_TO_END.iter().copied(),
        )
    };
    println!("{line}");
}
