//! Retry, backoff, and circuit breaking for IRS calls.
//!
//! The loose coupling (paper Figure 1, alternative 3) makes the IRS an
//! external component: every call from [`crate::Collection`] can fail
//! transiently and independently of the OODBMS. This module wraps those
//! calls with:
//!
//! * [`RetryPolicy`] — bounded retries with exponential backoff,
//!   **deterministic** jitter (seeded, so test runs reproduce exactly),
//!   and a per-call elapsed-time budget;
//! * [`CircuitBreaker`] — a Closed → Open → Half-Open breaker that stops
//!   hammering a down IRS and probes it again after a cooldown;
//! * [`call`] — the free-function wrapper collections apply at each IRS
//!   call site (a free function so the closure can borrow collection
//!   fields the policy/breaker references don't, via disjoint captures).
//!
//! Only transient errors ([`irs::IrsError::is_transient`]) are retried:
//! parse failures, unknown documents, and corrupt files fail fast.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use irs::fault::splitmix64;
use parking_lot::Mutex;

use crate::error::{CouplingError, Result};

/// Bounded-retry policy with exponential backoff and deterministic
/// jitter.
///
/// Defaults are deliberately tiny (milliseconds): in-process IRS calls
/// complete in microseconds, and tests exercising fault schedules must
/// stay fast. A deployment fronting a remote IRS would scale these up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure.
    pub max_retries: u32,
    /// Backoff before retry `n` starts from `base_backoff * 2^n`.
    pub base_backoff: Duration,
    /// Ceiling applied to the exponential backoff.
    pub max_backoff: Duration,
    /// Total elapsed-time budget for one logical call, checked between
    /// attempts (an in-flight attempt is never preempted — calls are
    /// in-process and cannot be cancelled).
    pub call_budget: Duration,
    /// Seed of the deterministic jitter sequence.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
            call_budget: Duration::from_millis(250),
            jitter_seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (baseline / fail-fast configuration).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Backoff to sleep before retry attempt `attempt` (1-based):
    /// exponential growth capped at `max_backoff`, scaled by a
    /// deterministic jitter factor in `[0.5, 1.0]` derived from
    /// `(jitter_seed, attempt)`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let capped = exp.min(self.max_backoff);
        // splitmix64 over seed ^ attempt → fraction in [0.5, 1.0].
        let x = splitmix64(self.jitter_seed ^ u64::from(attempt));
        let frac = 0.5 + (x >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        capped.mul_f64(frac)
    }
}

/// Counters of retry activity, shared by reference across call sites.
#[derive(Debug, Default)]
pub struct RetryStats {
    retries: AtomicU64,
    giveups: AtomicU64,
}

impl RetryStats {
    /// Retries performed (attempts beyond the first).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Logical calls that exhausted every retry (or the time budget) and
    /// surfaced a transient error.
    pub fn giveups(&self) -> u64 {
        self.giveups.load(Ordering::Relaxed)
    }
}

/// Breaker configuration carried in [`crate::CollectionSetup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transient failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(50),
        }
    }
}

/// Observable snapshot of a breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerStats {
    /// Times the breaker tripped open.
    pub opens: u64,
    /// Calls rejected while open.
    pub rejections: u64,
    /// True if the breaker is currently open (cooldown not yet elapsed).
    pub open_now: bool,
}

/// A Closed → Open → Half-Open circuit breaker over `&self`.
///
/// While closed, calls pass through and consecutive transient failures
/// are counted. At the threshold the breaker opens: calls are rejected
/// with [`irs::IrsError::Unavailable`] (without touching the IRS) until
/// the cooldown elapses, at which point a single probe is allowed —
/// success closes the breaker, failure re-opens it for another cooldown.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    consecutive_failures: AtomicU32,
    /// `Some(when)` while open: calls rejected until `when`.
    open_until: Mutex<Option<Instant>>,
    opens: AtomicU64,
    rejections: AtomicU64,
}

impl CircuitBreaker {
    /// A breaker in the closed state.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            consecutive_failures: AtomicU32::new(0),
            open_until: Mutex::new(None),
            opens: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        }
    }

    /// The configuration the breaker was created with.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Counters and current state.
    pub fn stats(&self) -> BreakerStats {
        BreakerStats {
            opens: self.opens.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
            open_now: self
                .open_until
                .lock()
                .map(|until| Instant::now() < until)
                .unwrap_or(false),
        }
    }

    /// Gate one call attempt. `Err` means the breaker is open and the
    /// call must not reach the IRS. Crate-visible so the remote-replica
    /// fan-out ([`crate::remote`]) can gate per-replica launches with the
    /// same breaker state machine.
    pub(crate) fn try_acquire(&self) -> Result<()> {
        let mut open_until = self.open_until.lock();
        match *open_until {
            Some(until) if Instant::now() < until => {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                Err(CouplingError::Irs(irs::IrsError::Unavailable(
                    "circuit breaker open".into(),
                )))
            }
            Some(_) => {
                // Cooldown elapsed: half-open. Allow this probe; a failure
                // re-opens via on_failure, a success closes via on_success.
                *open_until = None;
                Ok(())
            }
            None => Ok(()),
        }
    }

    pub(crate) fn on_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    pub(crate) fn on_failure(&self) {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= self.config.failure_threshold {
            let mut open_until = self.open_until.lock();
            if open_until.is_none() {
                *open_until = Some(Instant::now() + self.config.cooldown);
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
            self.consecutive_failures.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(BreakerConfig::default())
    }
}

/// Run `op` under `policy` and `breaker`, retrying transient failures
/// with backoff until success, a permanent error, retry exhaustion, or
/// the elapsed-time budget. A free function (not a method) so call sites
/// like `call(&self.retry, &self.breaker, &self.retry_stats, || self.irs
/// .search(q))` borrow-split the collection.
pub fn call<T>(
    policy: &RetryPolicy,
    breaker: &CircuitBreaker,
    stats: &RetryStats,
    mut op: impl FnMut() -> irs::Result<T>,
) -> Result<T> {
    let started = Instant::now();
    let mut attempt = 0u32;
    loop {
        breaker.try_acquire()?;
        match op() {
            Ok(v) => {
                breaker.on_success();
                return Ok(v);
            }
            Err(e) if e.is_transient() => {
                breaker.on_failure();
                if attempt >= policy.max_retries {
                    stats.giveups.fetch_add(1, Ordering::Relaxed);
                    return Err(CouplingError::Irs(e));
                }
                attempt += 1;
                let backoff = policy.backoff_for(attempt);
                if started.elapsed() + backoff > policy.call_budget {
                    stats.giveups.fetch_add(1, Ordering::Relaxed);
                    return Err(CouplingError::Irs(e));
                }
                stats.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
            }
            Err(e) => {
                // Permanent errors neither trip the breaker nor retry.
                return Err(CouplingError::Irs(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs::IrsError;

    fn fail_n_times(n: u32) -> impl FnMut() -> irs::Result<u32> {
        let mut left = n;
        move || {
            if left > 0 {
                left -= 1;
                Err(IrsError::Unavailable("injected".into()))
            } else {
                Ok(42)
            }
        }
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let policy = RetryPolicy::default();
        let breaker = CircuitBreaker::default();
        let stats = RetryStats::default();
        let v = call(&policy, &breaker, &stats, fail_n_times(2)).unwrap();
        assert_eq!(v, 42);
        assert_eq!(stats.retries(), 2);
        assert_eq!(stats.giveups(), 0);
    }

    #[test]
    fn retries_are_bounded() {
        let policy = RetryPolicy::default(); // 2 retries → 3 attempts
        let breaker = CircuitBreaker::default();
        let stats = RetryStats::default();
        let err = call(&policy, &breaker, &stats, fail_n_times(10)).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(stats.retries(), 2);
        assert_eq!(stats.giveups(), 1);
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let policy = RetryPolicy::default();
        let breaker = CircuitBreaker::default();
        let stats = RetryStats::default();
        let mut calls = 0;
        let err = call(&policy, &breaker, &stats, || {
            calls += 1;
            Err::<(), _>(IrsError::UnknownDocument("k".into()))
        })
        .unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(calls, 1, "no retry on permanent errors");
        assert_eq!(stats.retries(), 0);
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_for(1), policy.backoff_for(1));
        assert!(policy.backoff_for(3) >= policy.backoff_for(1));
        assert!(policy.backoff_for(30) <= policy.max_backoff);
        // Jitter keeps it within [0.5, 1.0] of the nominal value.
        let b1 = policy.backoff_for(1);
        assert!(b1 >= policy.base_backoff / 2 && b1 <= policy.base_backoff);
        // A different seed yields a different (but still bounded) jitter.
        let other = RetryPolicy {
            jitter_seed: 999,
            ..RetryPolicy::default()
        };
        assert!(other.backoff_for(1) >= other.base_backoff / 2);
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers() {
        let policy = RetryPolicy::no_retries();
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(20),
        });
        let stats = RetryStats::default();
        for _ in 0..3 {
            let _ = call(&policy, &breaker, &stats, || {
                Err::<(), _>(IrsError::Unavailable("down".into()))
            });
        }
        let s = breaker.stats();
        assert_eq!(s.opens, 1);
        assert!(s.open_now);
        // While open, calls are rejected without reaching the IRS.
        let mut reached = false;
        let err = call(&policy, &breaker, &stats, || {
            reached = true;
            Ok::<_, IrsError>(1)
        })
        .unwrap_err();
        assert!(err.is_transient());
        assert!(!reached, "breaker short-circuits the IRS call");
        assert!(breaker.stats().rejections >= 1);
        // After the cooldown a probe passes and closes the breaker.
        std::thread::sleep(Duration::from_millis(25));
        let v = call(&policy, &breaker, &stats, || Ok::<_, IrsError>(7)).unwrap();
        assert_eq!(v, 7);
        assert!(!breaker.stats().open_now);
    }

    #[test]
    fn half_open_failure_reopens() {
        let policy = RetryPolicy::no_retries();
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(10),
        });
        let stats = RetryStats::default();
        let _ = call(&policy, &breaker, &stats, || {
            Err::<(), _>(IrsError::Unavailable("down".into()))
        });
        assert_eq!(breaker.stats().opens, 1);
        std::thread::sleep(Duration::from_millis(15));
        // Probe fails → breaker re-opens.
        let _ = call(&policy, &breaker, &stats, || {
            Err::<(), _>(IrsError::Unavailable("still down".into()))
        });
        assert_eq!(breaker.stats().opens, 2);
        assert!(breaker.stats().open_now);
    }

    #[test]
    fn call_budget_stops_long_retry_chains() {
        let policy = RetryPolicy {
            max_retries: 1_000,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(4),
            call_budget: Duration::from_millis(20),
            jitter_seed: 1,
        };
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: u32::MAX,
            cooldown: Duration::from_millis(1),
        });
        let stats = RetryStats::default();
        let started = Instant::now();
        let err = call(&policy, &breaker, &stats, || {
            Err::<(), _>(IrsError::Unavailable("down".into()))
        })
        .unwrap_err();
        assert!(err.is_transient());
        assert!(
            started.elapsed() < Duration::from_millis(200),
            "budget bounded the chain"
        );
        assert!(stats.retries() < 20);
        assert_eq!(stats.giveups(), 1);
    }
}
