//! The traced replay: spans recorded in the benchmark's own code around
//! calls into each layer's public functions.
//!
//! A replayed read first runs the coupling layer the way the server's
//! handler would (buffer lookup; on a miss `evaluate_uncached` and a
//! buffer insert; the structural pass; derivation), so inner layers are
//! timed only on requests where the outer layer reaches them. Then the
//! same request, now answered from the buffer, is timed at the coupling
//! API, through the in-process `Server::call`, and over TCP with
//! `Client::call`; the differences attribute the serve and net layers.
//! Calls made only to measure a layer on its own (`parse_query`, the IRS
//! search, `Database::extent`, `represented_components`, the wire codec)
//! are siblings of the request's coupling span and never counted in it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use coupling::derive::represented_components;
use coupling::remote::ReplicaTransport;
use coupling::tasks::{TaskExecutor, TaskKind, TaskQueue};
use coupling::{evaluate_mixed, Collection, DocumentSystem, PartitionedIrs, SharedSystem};
use irs::{parse_query, QueryGlobals};
use oodb::Oid;
use serve::wire::{decode_request, decode_response, encode_request, encode_response};
use serve::{Client, Request, Response, Server};

use crate::stats::{percentile, sorted};
use crate::workload::{COLL, K};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder; spans are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// Spans recorded from now on belong to request `id`.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. Returns `f`'s result and the span's duration in µs.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let span = &mut self.spans[index];
        span.start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        (out, (end - start).as_nanos() as f64 / 1_000.0)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as tab-separated `request id parent name start_ns
    /// end_ns self_ns` lines. Self time is the span minus the part of it
    /// its children cover.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer samples and scalars gathered by a replay.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Record one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Nearest-rank percentile `p` of `name`'s samples.
    pub fn pct(&self, name: &str, p: f64) -> Option<f64> {
        let s = sorted(self.samples.get(name)?.clone());
        percentile(&s, p).map(|x| x.value)
    }

    /// Mean of `name`'s samples.
    pub fn mean(&self, name: &str) -> Option<f64> {
        let s = self.samples.get(name)?;
        (!s.is_empty()).then(|| s.iter().sum::<f64>() / s.len() as f64)
    }
}

/// The IRS query of a replayed read.
fn query_of(req: &Request) -> Option<&str> {
    match req {
        Request::IrsQuery { query, .. } | Request::GetIrsValue { query, .. } => Some(query),
        Request::MixedQuery { irs_query, .. } => Some(irs_query),
        _ => None,
    }
}

/// The handler's `getIRSResult` (buffer lookup, `evaluate_uncached` on
/// a miss, buffer insert) with a span per stage; on a miss, the IRS
/// parse and search are then timed on their own. Returns the µs of the
/// `getIRSResult` span and of those extra measurements, which a caller's
/// enclosing span must not count as its own.
fn mirror_result(t: &mut Tracer, l: &mut Layers, coll: &Collection, query: &str) -> (f64, f64) {
    let (eval_us, result_us) = t.span("coupling.result", |t| {
        let (hit, _) = t.span("buffer.get", |_| coll.buffer().get(query));
        if hit.is_some() {
            return None;
        }
        let (map, eval_us) = t.span("coupling.eval", |_| coll.evaluate_uncached(query));
        let map = map.expect("healthy IRS evaluates");
        t.span("buffer.insert", |_| coll.buffer().insert(query, map));
        Some(eval_us)
    });
    l.push("coupling.result_us", result_us);
    if let Some(eval_us) = eval_us {
        let (_, search_us) = t.span("irs.search", |_| match coll.result_limit() {
            Some(k) => coll.irs().search_top_k(query, k),
            None => coll.irs().search(query),
        });
        let (_, parse_us) = t.span("irs.parse", |_| parse_query(query));
        l.push("irs.search_us", search_us);
        l.push("irs.parse_us", parse_us);
        l.push("coupling.fold_us", eval_us - search_us);
        return (result_us, search_us + parse_us);
    }
    (result_us, 0.0)
}

/// The handler's coupling work for `req` with per-layer spans. Returns
/// the µs the coupling layer took (extra measurements excluded).
fn mirror_read(t: &mut Tracer, l: &mut Layers, sys: &DocumentSystem, req: &Request) -> f64 {
    let coll = sys.collection(COLL).expect("collection exists");
    let query = query_of(req).expect("replayed request is a read");
    // The buffer miss an enclosing evaluation would take first, mirrored
    // so the IRS is timed on it: `(getIRSResult µs, extra µs)`.
    let child = |t: &mut Tracer, l: &mut Layers| {
        if coll.buffer().contains(query) {
            (0.0, 0.0)
        } else {
            mirror_result(t, l, &coll, query)
        }
    };
    match req {
        Request::IrsQuery { .. } => mirror_result(t, l, &coll, query).0,
        Request::MixedQuery {
            class,
            threshold,
            strategy,
            ..
        } => {
            let ((outcome, (inner, extra)), us) = t.span("mixed.eval", |t| {
                let inner = child(t, l);
                let outcome = evaluate_mixed(
                    coll.db(),
                    &coll,
                    class,
                    &|_, _| true,
                    query,
                    *threshold,
                    *strategy,
                )
                .expect("mixed query evaluates");
                (outcome, inner)
            });
            l.push("mixed.eval_us", us - inner - extra);
            l.push("mixed.structural_checks", outcome.structural_checks as f64);
            if *strategy == coupling::MixedStrategy::Independent {
                let db = coll.db();
                let class_id = db.schema().class_id(class).expect("class exists");
                let (_, extent_us) = t.span("oodb.extent", |_| db.extent(class_id, true));
                l.push("oodb.extent_us", extent_us);
            }
            us - extra
        }
        Request::GetIrsValue { oid, .. } => {
            let ctx = coll.db().method_ctx();
            let represented = coll.is_represented(*oid);
            let ((inner, extra), us) = t.span("derive", |t| {
                let inner = child(t, l);
                coll.get_irs_value(&ctx, query, *oid)
                    .expect("IRS value evaluates");
                inner
            });
            if !represented {
                l.push("derive.us", us - inner - extra);
                let (n, _) = t.span("derive.components", |_| {
                    represented_components(&ctx, &*coll, *oid).len()
                });
                l.push("derive.components", n as f64);
            }
            us - extra
        }
        other => panic!("not a replayed read: {}", other.label()),
    }
}

/// The coupling API call the server makes for `req`, without spans.
fn coupling_call(sys: &DocumentSystem, req: &Request) {
    let coll = sys.collection(COLL).expect("collection exists");
    match req {
        Request::IrsQuery { query, .. } => {
            std::hint::black_box(coll.get_irs_result_with_origin(query).expect("evaluates"));
        }
        Request::MixedQuery {
            class,
            irs_query,
            threshold,
            strategy,
            ..
        } => {
            std::hint::black_box(
                evaluate_mixed(
                    coll.db(),
                    &coll,
                    class,
                    &|_, _| true,
                    irs_query,
                    *threshold,
                    *strategy,
                )
                .expect("evaluates"),
            );
        }
        Request::GetIrsValue { query, oid, .. } => {
            let ctx = coll.db().method_ctx();
            std::hint::black_box(coll.get_irs_value(&ctx, query, *oid).expect("evaluates"));
        }
        other => panic!("not a replayed read: {}", other.label()),
    }
}

/// Time the wire codec on one request/response pair.
fn wire(t: &mut Tracer, l: &mut Layers, req: &Request, resp: &Response) {
    let (bytes, enc_req) = t.span("wire.encode_request", |_| encode_request(req));
    let (_, dec_req) = t.span("wire.decode_request", |_| decode_request(&bytes));
    let (bytes, enc_resp) = t.span("wire.encode_response", |_| encode_response(resp));
    let (_, dec_resp) = t.span("wire.decode_response", |_| decode_response(&bytes));
    l.push("wire.encode_us", enc_req + enc_resp);
    l.push("wire.decode_us", dec_req + dec_resp);
    l.push("wire.response_bytes", bytes.len() as f64);
}

/// Replay one read through every layer. Returns the answer served over
/// TCP, or `None` when a call failed.
pub fn replay_read(
    t: &mut Tracer,
    l: &mut Layers,
    shared: &SharedSystem,
    server: &Server,
    client: &mut Client,
    req: &Request,
) -> Option<Response> {
    let (remote, _) = t.span("request", |t| {
        let coupling_us = shared.read(|sys| mirror_read(t, l, sys, req));
        let (_, warm_us) = t.span("coupling.warm", |_| {
            shared.read(|sys| coupling_call(sys, req))
        });
        // The ping goes first: the first hand-off to a worker after the
        // replay's own work pays for waking an idle core, which would
        // otherwise land on `serve.call` alone and can exceed a whole
        // loopback round trip (net.rtt read below zero).
        let (_, ping_us) = t.span("serve.ping", |_| server.call(Request::Ping));
        let (local, call_us) = t.span("serve.call", |_| server.call(req.clone()));
        let (remote, net_us) = t.span("net.call", |_| client.call(req));
        l.push("serve.call_us", call_us - warm_us);
        l.push("serve.queue_wait_us", ping_us);
        l.push("net.rtt_us", net_us - call_us);
        l.push("trace.latency_us", coupling_us + net_us - warm_us);
        if let Ok(local) = local {
            wire(t, l, req, &local);
        }
        remote.ok()
    });
    remote
}

/// Replay one write: enqueue on a journaled queue, then one executor
/// step.
pub fn replay_write(
    t: &mut Tracer,
    l: &mut Layers,
    queue: &TaskQueue,
    executor: &mut TaskExecutor,
    kind: TaskKind,
) -> bool {
    let (id, enqueue_us) = t.span("tasks.enqueue", |_| queue.enqueue(kind));
    let (_, exec_us) = t.span("tasks.exec", |_| executor.step());
    l.push("tasks.enqueue_us", enqueue_us);
    l.push("tasks.exec_us", exec_us);
    id.is_ok()
}

/// Replay one scatter/gather query: the routed call, then each
/// partition's statistics and search legs on their own. Returns the
/// routed answer.
pub fn replay_partitioned<T: ReplicaTransport>(
    t: &mut Tracer,
    l: &mut Layers,
    router: &PartitionedIrs<T>,
    query: &str,
) -> Option<(Vec<(Oid, f64)>, coupling::ResultOrigin)> {
    let (routed, route_us) = t.span("partition.route", |_| router.search_top_k(COLL, query, K));
    let mut stats = Vec::new();
    let mut stats_max = 0f64;
    for group in router.groups() {
        let (s, us) = t.span("partition.stats_leg", |_| group.term_stats(COLL, query));
        l.push("partition.stats_leg_us", us);
        stats_max = stats_max.max(us);
        stats.push(s.ok()?);
    }
    let globals = QueryGlobals::merge(stats.iter())?;
    let mut search_max = 0f64;
    for group in router.groups() {
        let (hits, us) = t.span("partition.search_leg", |_| {
            group.search_global(COLL, query, K, &globals)
        });
        l.push("partition.search_leg_us", us);
        search_max = search_max.max(us);
        hits.ok()?;
    }
    l.push("partition.route_us", route_us);
    l.push("partition.gather_us", route_us - stats_max - search_max);
    routed.ok()
}
