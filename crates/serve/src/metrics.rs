//! Per-request observability for the serving layer.
//!
//! Counters are lock-free atomics bumped on the request path; the
//! latency distribution is a fixed array of log-linear microsecond
//! buckets, so recording is one `fetch_add` and percentile estimates
//! need no sorting. [`Metrics::snapshot`] turns the live counters into
//! an immutable [`MetricsSnapshot`] for reporting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use coupling::ResultOrigin;

/// Log2 of the linear sub-buckets per power of two. Latencies (queue
/// wait + execution, whole µs) below `SUB` get one bucket each; above,
/// each `[2^p, 2^(p+1))` splits into `SUB` equal buckets, so a bucket
/// is at most 1/8 as wide as its lower bound and a percentile read off
/// its upper bound is at most 12.5% high.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Buckets cover latencies below 2^40 µs ≈ 12 days; slower requests
/// land in the last bucket.
const BUCKETS: usize = SUB + (40 - SUB_BITS as usize) * SUB;

/// Bucket holding a latency of `us` microseconds.
fn bucket_of(us: u64) -> usize {
    if us < SUB as u64 {
        return us as usize;
    }
    let shift = 63 - us.leading_zeros() - SUB_BITS;
    let sub = (us >> shift) as usize - SUB;
    (SUB + shift as usize * SUB + sub).min(BUCKETS - 1)
}

/// Exclusive upper bound (µs) of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i < SUB {
        return i as u64 + 1;
    }
    let (shift, sub) = ((i - SUB) / SUB, (i - SUB) % SUB);
    ((SUB + sub + 1) as u64) << shift
}

/// Live counters of one [`crate::Server`]. Shared by all worker
/// threads; every field is updated with relaxed atomics.
#[derive(Debug)]
pub struct Metrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_shutdown: AtomicU64,
    deadline_timeouts: AtomicU64,
    origin_fresh: AtomicU64,
    origin_buffered: AtomicU64,
    origin_stale: AtomicU64,
    origin_none: AtomicU64,
    latency_buckets: [AtomicU64; BUCKETS],
    latency_max_us: AtomicU64,
    latency_sum_us: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            deadline_timeouts: AtomicU64::new(0),
            origin_fresh: AtomicU64::new(0),
            origin_buffered: AtomicU64::new(0),
            origin_stale: AtomicU64::new(0),
            origin_none: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_max_us: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    pub(crate) fn request_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_rejected_overload(&self) {
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_rejected_shutdown(&self) {
        self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_timed_out(&self) {
        self.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_completed(&self, latency: Duration, origin: Option<ResultOrigin>) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        // Every completion bumps exactly one origin counter — requests
        // without a result origin (writes, value probes) are counted
        // explicitly so the origin columns always sum to `completed`.
        let origin_counter = match origin {
            Some(ResultOrigin::Fresh) => &self.origin_fresh,
            Some(ResultOrigin::Buffered) => &self.origin_buffered,
            Some(ResultOrigin::Stale) => &self.origin_stale,
            None => &self.origin_none,
        };
        origin_counter.fetch_add(1, Ordering::Relaxed);
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency_buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Immutable snapshot of everything counted so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let buckets: Vec<u64> = self
            .latency_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let completed = self.completed.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            deadline_timeouts: self.deadline_timeouts.load(Ordering::Relaxed),
            origin_fresh: self.origin_fresh.load(Ordering::Relaxed),
            origin_buffered: self.origin_buffered.load(Ordering::Relaxed),
            origin_stale: self.origin_stale.load(Ordering::Relaxed),
            origin_none: self.origin_none.load(Ordering::Relaxed),
            // Task counters live in the scheduler, not here; the server
            // overlays them via `with_tasks`.
            tasks_rejected: 0,
            tasks_failed: 0,
            tasks_succeeded: 0,
            task_batches: 0,
            tasks_merged: 0,
            task_queue_depth: 0,
            p50_us: percentile(&buckets, completed, 0.50),
            p90_us: percentile(&buckets, completed, 0.90),
            p99_us: percentile(&buckets, completed, 0.99),
            max_us: self.latency_max_us.load(Ordering::Relaxed),
            mean_us: if completed == 0 {
                0.0
            } else {
                self.latency_sum_us.load(Ordering::Relaxed) as f64 / completed as f64
            },
        }
    }
}

impl MetricsSnapshot {
    /// Overlay the task scheduler's counters (zero when the server has
    /// no scheduler, i.e. a read-only replica).
    pub(crate) fn with_tasks(mut self, stats: coupling::tasks::TaskQueueStats) -> MetricsSnapshot {
        self.tasks_rejected = stats.rejected;
        self.tasks_failed = stats.failed;
        self.tasks_succeeded = stats.succeeded;
        self.task_batches = stats.batches;
        self.tasks_merged = stats.merged;
        self.task_queue_depth = stats.depth;
        self
    }
}

/// Upper bound (µs) of the bucket containing quantile `q`, i.e. a
/// conservative percentile estimate at most 12.5% high.
fn percentile(buckets: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return bucket_upper(i);
        }
    }
    bucket_upper(BUCKETS - 1)
}

/// Point-in-time view of a server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests admitted to a queue.
    pub submitted: u64,
    /// Requests that finished with `Ok`.
    pub completed: u64,
    /// Requests that finished with `Err` (other than rejection/timeout).
    pub failed: u64,
    /// Requests refused at admission because the queue was full.
    pub rejected_overload: u64,
    /// Requests refused because the server was shutting down.
    pub rejected_shutdown: u64,
    /// Requests dropped because their deadline expired before a worker
    /// picked them up.
    pub deadline_timeouts: u64,
    /// Completed reads answered fresh from the IRS.
    pub origin_fresh: u64,
    /// Completed reads answered from the result buffer.
    pub origin_buffered: u64,
    /// Completed reads answered from the stale store (IRS down).
    pub origin_stale: u64,
    /// Completed requests with no result origin (writes and value
    /// probes). `origin_fresh + origin_buffered + origin_stale +
    /// origin_none == completed` always holds.
    pub origin_none: u64,
    /// Update tasks refused **at enqueue** (queue full or shutting
    /// down) — admission failures, before any work ran.
    pub tasks_rejected: u64,
    /// Update tasks that ran and **failed at execute** — distinct from
    /// `tasks_rejected` so overload and execution trouble are separable.
    pub tasks_failed: u64,
    /// Update tasks that ran and succeeded.
    pub tasks_succeeded: u64,
    /// Execution batches the scheduler claimed.
    pub task_batches: u64,
    /// Tasks that rode a batch beyond its head (executions saved by
    /// adjacent-task merging).
    pub tasks_merged: u64,
    /// Tasks currently enqueued or processing — the queue-depth gauge
    /// that makes overload visible *before* `Overloaded` fires.
    pub task_queue_depth: u64,
    /// Median latency upper bound, microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency upper bound, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency upper bound, microseconds.
    pub p99_us: u64,
    /// Largest observed latency, microseconds.
    pub max_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_percentiles() {
        let m = Metrics::new();
        m.request_submitted();
        m.request_submitted();
        m.request_completed(Duration::from_micros(3), Some(ResultOrigin::Fresh));
        m.request_completed(Duration::from_micros(1000), Some(ResultOrigin::Buffered));
        m.request_rejected_overload();
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 2);
        assert_eq!(s.rejected_overload, 1);
        assert_eq!(s.origin_fresh, 1);
        assert_eq!(s.origin_buffered, 1);
        // 3 µs has its own bucket [3,4) → upper bound 4; 1000 µs falls
        // in [960,1024) → 1024 (log2 buckets: [2,4) and [512,1024)).
        assert_eq!(s.p50_us, 4);
        assert_eq!(s.p99_us, 1024);
        assert_eq!(bucket_upper(bucket_of(3) - 1), 3);
        assert_eq!(bucket_upper(bucket_of(1000) - 1), 960);
        assert_eq!(s.max_us, 1000);
        assert!((s.mean_us - 501.5).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Metrics::new().snapshot();
        assert_eq!(s.completed, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.mean_us, 0.0);
    }

    #[test]
    fn sub_microsecond_latency_lands_in_first_bucket() {
        let m = Metrics::new();
        m.request_completed(Duration::from_nanos(10), None);
        let s = m.snapshot();
        assert_eq!(s.completed, 1);
        // Bucket [0,1): sub-microsecond requests read as under 1 µs.
        assert_eq!(s.p50_us, 1);
    }

    #[test]
    fn uniform_spread_p50_is_within_bucket_error() {
        let m = Metrics::new();
        for us in (1000..=5000).step_by(10) {
            m.request_completed(Duration::from_micros(us), None);
        }
        let s = m.snapshot();
        // Median 3000 µs falls in [2816,3072); log2 buckets read 4096.
        assert_eq!(s.p50_us, 3072);
        assert!(s.p50_us.abs_diff(3000) as f64 <= 3000.0 * 0.125);
        assert!(s.p99_us >= 4960 && s.p99_us as f64 <= 4960.0 * 1.125);
    }

    #[test]
    fn buckets_are_contiguous_and_at_most_an_eighth_wide() {
        let mut lower = 0;
        for i in 0..BUCKETS {
            let upper = bucket_upper(i);
            assert_eq!(bucket_of(lower), i);
            assert_eq!(bucket_of(upper - 1), i);
            assert!(lower < SUB as u64 || (upper - lower) * 8 <= lower);
            lower = upper;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn origin_counters_reconcile_with_completed() {
        let m = Metrics::new();
        m.request_completed(Duration::from_micros(1), Some(ResultOrigin::Fresh));
        m.request_completed(Duration::from_micros(1), Some(ResultOrigin::Stale));
        m.request_completed(Duration::from_micros(1), None); // a write
        m.request_completed(Duration::from_micros(1), None); // a value probe
        let s = m.snapshot();
        assert_eq!(s.origin_none, 2);
        assert_eq!(
            s.origin_fresh + s.origin_buffered + s.origin_stale + s.origin_none,
            s.completed
        );
    }
}
