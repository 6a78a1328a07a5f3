//! Metric names, the environment record, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::stats::{median, percentile, sorted};

/// End-to-end metrics (untraced run): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p95_us", "us"),
    ("read_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name, unit, and the end-to-end metric
/// and workload each should move. A metric whose layer is not on a
/// workload's path reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("net.rtt_us.p50", "us", "read_p50_us on hot_mixed"),
    (
        "wire.encode_us.p50",
        "us",
        "read_p50_us on hot_mixed (about 0 on cold_topk)",
    ),
    (
        "wire.decode_us.p50",
        "us",
        "read_p50_us on hot_mixed (about 0 on cold_topk)",
    ),
    (
        "wire.response_bytes.p50",
        "bytes",
        "read_p50_us on hot_mixed",
    ),
    (
        "serve.call_us.p50",
        "us",
        "read_p95_us on hot_mixed and update_mix",
    ),
    (
        "serve.call_us.p99",
        "us",
        "read_p95_us on hot_mixed and update_mix",
    ),
    (
        "serve.queue_wait_us.p99",
        "us",
        "read_p95_us on hot_mixed and update_mix",
    ),
    ("buffer.hit_ratio", "ratio", "read_rps on hot_mixed"),
    (
        "buffer.invalidations_per_write",
        "ratio",
        "read_p95_us on update_mix (work under the write lock)",
    ),
    ("coupling.result_us.p50", "us", "read_p50_us on cold_topk"),
    ("coupling.result_us.p99", "us", "read_p95_us on cold_topk"),
    ("coupling.fold_us.p50", "us", "read_p50_us on cold_topk"),
    ("mixed.eval_us.p50", "us", "read_p95_us on hot_mixed"),
    ("mixed.eval_us.p99", "us", "read_p95_us on hot_mixed"),
    (
        "mixed.structural_checks_per_query",
        "count",
        "read_p95_us on hot_mixed",
    ),
    ("oodb.extent_us.p50", "us", "read_p95_us on hot_mixed"),
    ("derive.us.p50", "us", "read_p50_us on hot_mixed"),
    (
        "derive.components_per_value",
        "count",
        "read_p50_us on hot_mixed",
    ),
    (
        "irs.parse_us.p50",
        "us",
        "read_p50_us and read_rps on cold_topk",
    ),
    (
        "irs.search_us.p50",
        "us",
        "read_p50_us and read_rps on cold_topk",
    ),
    ("irs.search_us.p99", "us", "read_p95_us on cold_topk"),
    (
        "irs.postings_bytes",
        "bytes",
        "peak_rss_mb on every workload",
    ),
    ("setup.load_s", "s", "setup_s on every workload"),
    ("setup.spec_query_s", "s", "setup_s on every workload"),
    ("setup.index_s", "s", "setup_s on every workload"),
    (
        "tasks.enqueue_us.p50",
        "us",
        "write_ack_p50_us on update_mix",
    ),
    (
        "tasks.enqueue_us.p99",
        "us",
        "write_ack_p99_us on update_mix",
    ),
    (
        "tasks.exec_us.p50",
        "us",
        "write_visible_p50_us on update_mix",
    ),
    (
        "tasks.exec_us.p99",
        "us",
        "write_visible_p99_us on update_mix",
    ),
    (
        "tasks.batch_size",
        "count",
        "write_visible_p99_us on update_mix",
    ),
    (
        "tasks.depth_max",
        "count",
        "write_visible_p99_us on update_mix",
    ),
    (
        "durable.bytes_per_write",
        "bytes",
        "write_ack_p50_us and write_visible_p50_us on update_mix",
    ),
    (
        "write_ack_p50_us",
        "us",
        "end-to-end write latency on update_mix, the only workload that writes",
    ),
    (
        "write_ack_p99_us",
        "us",
        "end-to-end write latency on update_mix, the only workload that writes",
    ),
    (
        "write_visible_p50_us",
        "us",
        "end-to-end write latency on update_mix, the only workload that writes",
    ),
    (
        "write_visible_p99_us",
        "us",
        "end-to-end write latency on update_mix, the only workload that writes",
    ),
    (
        "partition.stats_leg_us.p50",
        "us",
        "diagnostic: hot_mixed queries routed over two partitions",
    ),
    (
        "partition.search_leg_us.p50",
        "us",
        "diagnostic: hot_mixed queries routed over two partitions",
    ),
    (
        "partition.route_us.p50",
        "us",
        "diagnostic: hot_mixed queries routed over two partitions",
    ),
    (
        "partition.route_us.p99",
        "us",
        "diagnostic: hot_mixed queries routed over two partitions",
    ),
    (
        "partition.gather_us.p50",
        "us",
        "diagnostic: hot_mixed queries routed over two partitions",
    ),
    (
        "read_p99_us",
        "us",
        "diagnostic: untraced read tail; preemption on a shared host moves it run to run, so read_p95_us carries the bound",
    ),
    (
        "loadgen.late_p99_us",
        "us",
        "diagnostic: open-loop send lateness",
    ),
    (
        "trace.overhead",
        "ratio",
        "diagnostic: traced / untraced read_p50_us",
    ),
];

/// The samples behind a reported percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evidence {
    /// Samples in the smallest slice (in the whole set when unsliced).
    pub samples: usize,
    /// Fewest samples beyond the percentile in any slice.
    pub beyond: usize,
    /// Slices the percentile is the median over (1 when unsliced).
    pub slices: usize,
}

/// Named values plus the evidence behind each percentile.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    evidence: BTreeMap<&'static str, Evidence>,
}

impl Metrics {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Set a metric to percentile `p` of `samples`, keeping its sample
    /// count and the number of samples beyond it.
    pub fn set_pct(&mut self, name: &'static str, samples: &[f64], p: f64) {
        self.set_pct_median(name, &[samples], p);
    }

    /// Set a metric to the median over `slices` of percentile `p` of
    /// each slice's samples.
    pub fn set_pct_median(&mut self, name: &'static str, slices: &[&[f64]], p: f64) {
        let pcts: Vec<_> = slices
            .iter()
            .filter_map(|s| percentile(&sorted(s.to_vec()), p))
            .collect();
        if pcts.is_empty() {
            return;
        }
        let values: Vec<f64> = pcts.iter().map(|x| x.value).collect();
        self.values.insert(name, median(&values));
        self.evidence.insert(
            name,
            Evidence {
                samples: pcts.iter().map(|x| x.samples).min().unwrap_or(0),
                beyond: pcts.iter().map(|x| x.beyond).min().unwrap_or(0),
                slices: pcts.len(),
            },
        );
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Percentiles with fewer than ten samples beyond them.
    pub fn thin(&self) -> impl Iterator<Item = &str> + '_ {
        self.evidence
            .iter()
            .filter(|(_, p)| p.beyond < 10)
            .map(|(name, _)| *name)
    }

    /// `{"name": {"samples": n, "beyond": b, "slices": s}, ...}` for
    /// every percentile.
    pub fn evidence_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, p)) in self.evidence.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"samples\": {}, \"beyond\": {}, \"slices\": {}}}",
                p.samples, p.beyond, p.slices
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (a failed request at a percentile)
/// become a huge finite number, which still misses every limit.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".into()
    }
}

/// The result line: `metrics` holds every name of `names` (0 where the
/// run did not measure it), with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: impl Iterator<Item = (&'static str, &'static str)>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit)) in names.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = metrics.get(name).unwrap_or(0.0);
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(v)
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the checkout, read from `.git` without running
/// git; `"unknown"` outside a repository.
pub fn git_revision() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(&Path::new(".git").join(r))
            .or_else(|| {
                let packed = read(Path::new(".git/packed-refs"))?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    /// `BENCHMARK.json` names exactly the metrics and workloads this
    /// program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entries = |names: Vec<(&str, &str)>| {
            for (name, unit) in names {
                let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
                assert!(
                    json.contains(&entry),
                    "BENCHMARK.json lacks {name} ({unit})"
                );
            }
        };
        entries(END_TO_END.to_vec());
        entries(PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect());
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in crate::workload::Workload::ALL {
            assert!(json.contains(&format!(
                "\"name\": \"{}\",\n      \"why\": \"{}\"",
                w.name(),
                w.why()
            )));
        }
    }

    #[test]
    fn result_line_lists_every_name() {
        let mut m = Metrics::default();
        m.set_pct("read_p50_us", &[3.0, 1.0, 2.0], 0.5);
        let line = result_line(true, 3, 0, &m, END_TO_END.iter().copied());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"read_p50_us\": {\"value\": 2, \"unit\": \"us\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(m.evidence_json().contains("\"samples\": 3"));
    }

    #[test]
    fn sliced_percentile_is_the_median_over_slices() {
        let mut m = Metrics::default();
        let slices: [&[f64]; 3] = [
            &[1.0, 2.0, 3.0],
            &[10.0, 20.0, 30.0, 40.0],
            &[5.0, 6.0, 7.0],
        ];
        m.set_pct_median("read_p50_us", &slices, 0.5);
        assert_eq!(m.get("read_p50_us"), Some(6.0));
        assert!(m
            .evidence_json()
            .contains("\"read_p50_us\": {\"samples\": 3, \"beyond\": 1, \"slices\": 3}"));
    }
}
