//! Query hot-path benchmark gate: runs the E14 three-engine sweep
//! (block-max pruned vs. collection-bound pruned vs. exhaustive) and
//! writes machine-readable results to `BENCH_query.json` for CI
//! tracking.
//!
//! Usage:
//!
//! ```text
//! cargo run -p coupling-bench --release --bin bench_query            # full
//! cargo run -p coupling-bench --release --bin bench_query -- --smoke
//! ```
//!
//! The full run ends at the 10^5-document tier where the block-max
//! scaling claim is made; `--smoke` shrinks the corpus so the run
//! finishes in seconds while still checking every gate on its smaller
//! tiers. The process exits nonzero and prints a line containing
//! `REGRESSION` if:
//!
//! * either pruned ranking differs bitwise from the exhaustive ranking
//!   anywhere in the sweep, or
//! * block-max is slower than the collection-bound engine at any tier
//!   beyond a noise allowance (block metadata must pay for itself —
//!   strictest at the largest tier, where skipping matters most).
//!
//! CI greps for the `REGRESSION` marker.

use std::process::ExitCode;

use coupling_bench::exp::e14_topk;
use coupling_bench::harness::{Gates, Json, Mode};
use coupling_bench::workload::WorkloadConfig;

fn main() -> ExitCode {
    let mode = Mode::from_args();
    let mut config = mode.pick(WorkloadConfig::small(), WorkloadConfig::standard());
    if mode == Mode::Smoke {
        config.corpus.docs = 10;
    }

    let report = e14_topk::run(&config, mode == Mode::Full);
    println!("{report}");

    let sweep = report.sweep.iter().map(|p| {
        Json::object([
            ("docs", p.docs.into()),
            ("k", p.k.into()),
            ("blockmax_us", p.blockmax_us.into()),
            ("collbound_us", p.collbound_us.into()),
            ("exhaustive_us", p.exhaustive_us.into()),
            ("speedup", Json::Fixed(p.speedup, 3)),
            (
                "blockmax_vs_collbound",
                Json::Fixed(p.blockmax_vs_collbound, 3),
            ),
        ])
    });
    mode.write(
        "query",
        &Json::object([
            ("bench", "query_topk_vs_exhaustive".into()),
            ("mode", mode.name().into()),
            ("query_set", report.query_set.into()),
            ("rankings_match", report.rankings_match.into()),
            ("sweep", Json::Array(sweep.collect())),
        ]),
    );

    let mut gates = Gates::new();
    gates.check(
        !report.rankings_match,
        "pruned top-k ranking differs from exhaustive ranking",
    );
    // Block-max must not lose to the collection-bound engine it extends.
    // Timing noise dominates sub-millisecond cells, so small tiers get a
    // flat-plus-relative allowance; the 10^5-document tier — where block
    // skips actually matter, full runs only — is held to a tight
    // relative bound.
    for p in &report.sweep {
        let slack = if p.docs == e14_topk::LARGE_TIER_DOCS {
            p.collbound_us / 10
        } else {
            (p.collbound_us / 4).max(300)
        };
        gates.check(
            p.blockmax_us > p.collbound_us + slack,
            format!(
                "block-max slower than collection-bound at docs={} k={}: {}us vs {}us (slack {}us)",
                p.docs, p.k, p.blockmax_us, p.collbound_us, slack
            ),
        );
    }
    ExitCode::from(gates.code())
}
