//! The one measurement harness under the CI-gated bench binaries
//! (`bench_query`, `bench_serve`, `bench_net`, `bench_replica`,
//! `bench_shard`, `bench_tasks`): the run [`Mode`], latency
//! [`Samples`], a [`closed_loop`] client driver, a dependency-free
//! [`Json`] writer and the [`Gates`] collector that prints every
//! `REGRESSION` line CI greps for.

use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::time::Instant;

/// How much work a bench binary does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--smoke`: a shrunken workload that still checks every gate.
    Smoke,
    /// The full run whose results are committed.
    Full,
}

impl Mode {
    /// [`Mode::Smoke`] when the process arguments contain `--smoke`.
    pub fn from_args() -> Mode {
        if std::env::args().skip(1).any(|a| a == "--smoke") {
            Mode::Smoke
        } else {
            Mode::Full
        }
    }

    /// `"smoke"` or `"full"`, the value of every report's `mode` key.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Smoke => "smoke",
            Mode::Full => "full",
        }
    }

    /// `smoke` in smoke mode, `full` otherwise.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Mode::Smoke => smoke,
            Mode::Full => full,
        }
    }

    /// `BENCH_<bench>_smoke.json` or `BENCH_<bench>.json`. Only the
    /// full-run files are committed, so a smoke run never overwrites
    /// a tracked result.
    fn output_path(self, bench: &str) -> PathBuf {
        PathBuf::from(format!("BENCH_{bench}{}.json", self.pick("_smoke", "")))
    }

    /// Print `report` and write it to [`Mode::output_path`]: the one
    /// rendering of a bench's numbers.
    pub fn write(self, bench: &str, report: &Json) {
        let path = self.output_path(bench);
        let text = report.to_string();
        print!("{text}");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// Latency samples in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// No samples.
    pub fn new() -> Self {
        Samples::default()
    }

    fn push(&mut self, us: u64) {
        self.0.push(us);
    }

    /// Record the time elapsed since `t0`.
    pub fn record_since(&mut self, t0: Instant) {
        self.push(t0.elapsed().as_micros() as u64);
    }

    /// Nearest-rank quantile `sorted[round((n-1)·q)]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> u64 {
        self.0.iter().copied().max().unwrap_or(0)
    }
}

/// What one [`closed_loop`] run did.
#[derive(Debug, Clone, Copy)]
pub struct LoopRun {
    /// Concurrent clients.
    pub clients: usize,
    /// Requests issued: `ops / clients` per client.
    pub ops: usize,
    /// Wall clock of the whole loop, connects included.
    pub wall_us: u128,
    /// `ops` per second of wall clock.
    pub throughput_rps: f64,
    /// Requests answered with a response of the wrong shape.
    pub bad: u64,
    /// Requests that returned an error.
    pub failed: u64,
}

/// Closed loop: `clients` threads each open a caller with `connect(c)`
/// and issue `ops / clients` requests back to back through it. A
/// caller returns `Ok(true)` for a well-shaped response, `Ok(false)`
/// for a wrong shape and `Err` for a failed request.
pub fn closed_loop<C, F, E>(clients: usize, ops: usize, connect: C) -> LoopRun
where
    C: Fn(usize) -> F + Sync,
    F: FnMut(usize) -> Result<bool, E>,
{
    let per_client = ops / clients;
    let t0 = Instant::now();
    let (bad, failed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let connect = &connect;
                scope.spawn(move || {
                    let mut call = connect(c);
                    let (mut bad, mut failed) = (0u64, 0u64);
                    for i in 0..per_client {
                        match call(i) {
                            Ok(true) => {}
                            Ok(false) => bad += 1,
                            Err(_) => failed += 1,
                        }
                    }
                    (bad, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0, 0), |(b, f), (db, df)| (b + db, f + df))
    });
    let wall_us = t0.elapsed().as_micros();
    let ops = per_client * clients;
    LoopRun {
        clients,
        ops,
        wall_us,
        throughput_rps: ops as f64 / (wall_us as f64 / 1e6),
        bad,
        failed,
    }
}

/// A JSON value. The workspace carries no serde; this covers what the
/// bench reports need. [`fmt::Display`] puts the top-level object's
/// entries and the rows of its arrays one per line and everything
/// deeper inline.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    Uint(u128),
    /// A number printed with a fixed count of decimals; `null` when not
    /// finite.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(n) => out.push_str(&n.to_string()),
            Json::Fixed(x, _) if !x.is_finite() => out.push_str("null"),
            Json::Fixed(x, places) => out.push_str(&format!("{x:.places$}")),
            Json::Str(s) => write_str(out, s),
            // The top-level object and its arrays go one entry per line.
            Json::Array(rows) => write_seq(out, depth, depth == 1, ['[', ']'], rows, |out, row| {
                row.write(out, depth + 1)
            }),
            Json::Object(fields) => {
                write_seq(out, depth, depth == 0, ['{', '}'], fields, |out, (k, v)| {
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                })
            }
        }
    }
}

/// `entries` between `brackets`, comma-separated; one per line at
/// `depth + 1` indentation when `multiline`.
fn write_seq<T>(
    out: &mut String,
    depth: usize,
    multiline: bool,
    brackets: [char; 2],
    entries: &[T],
    mut entry: impl FnMut(&mut String, &T),
) {
    let multiline = multiline && !entries.is_empty();
    out.push(brackets[0]);
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if multiline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push(' ');
        }
        entry(out, e);
    }
    if multiline {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(brackets[1]);
}

/// `s` as a JSON string literal: quotes, backslashes and every control
/// character escaped.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        writeln!(f, "{out}")
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Uint(n as u128)
            }
        }
    )*};
}
json_int!(u64, usize, u128);

/// Collects a bench's regression gates. Each failed gate prints one
/// `REGRESSION: …` line on stderr; [`Gates::code`] is the process exit
/// code.
#[derive(Debug, Default)]
pub struct Gates {
    failed: usize,
}

impl Gates {
    /// No gates checked yet.
    pub fn new() -> Self {
        Gates::default()
    }

    /// Record one gate: when `regressed`, print `REGRESSION: {what}`.
    pub fn check(&mut self, regressed: bool, what: impl fmt::Display) {
        if regressed {
            eprintln!("REGRESSION: {what}");
            self.failed += 1;
        }
    }

    /// 1 when any gate regressed, 0 otherwise.
    pub fn code(&self) -> u8 {
        u8::from(self.failed > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::new();
        values.into_iter().for_each(|v| s.push(v));
        s
    }

    #[test]
    fn smoke_runs_never_write_the_committed_file() {
        assert_eq!(
            Mode::Full.output_path("tasks"),
            PathBuf::from("BENCH_tasks.json")
        );
        assert_eq!(
            Mode::Smoke.output_path("tasks"),
            PathBuf::from("BENCH_tasks_smoke.json")
        );
    }

    #[test]
    fn quantile_of_empty_and_single_samples() {
        assert_eq!(Samples::new().quantile(0.5), 0);
        assert_eq!(Samples::new().max(), 0);
        let one = samples([7]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 7);
        }
        assert_eq!(one.max(), 7);
    }

    #[test]
    fn quantile_is_nearest_rank_on_known_vectors() {
        // Unsorted input: the quantile sorts a copy.
        let s = samples([50, 10, 40, 20, 30]);
        assert_eq!(s.quantile(0.0), 10);
        assert_eq!(s.quantile(0.5), 30); // index round(4 · 0.5) = 2
        assert_eq!(s.quantile(0.6), 30); // index round(2.4) = 2
        assert_eq!(s.quantile(0.65), 40); // index round(2.6) = 3
        assert_eq!(s.quantile(1.0), 50);
        assert_eq!(s.max(), 50);
        // bench_replica's tail gate reads p99 of one phase: 40 reads in
        // smoke mode hit index round(39 · 0.99) = 39 (the maximum), 200
        // reads in a full run hit index round(199 · 0.99) = 197.
        assert_eq!(samples(1..=40).quantile(0.99), 40);
        assert_eq!(samples(1..=200).quantile(0.99), 198);
    }

    #[test]
    fn json_escapes_quotes_backslashes_and_control_characters() {
        let s = Json::from("a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é");
        assert_eq!(
            s.to_string(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\u{7f}é\"\n"
        );
        // Keys are escaped too.
        let o = Json::object([("k\"", Json::from(1u64))]);
        assert_eq!(o.to_string(), "{\n  \"k\\\"\": 1\n}\n");
    }

    #[test]
    fn json_layout_matches_committed_reports() {
        let report = Json::object([
            ("bench", "demo".into()),
            ("ok", true.into()),
            (
                "runs",
                Json::Array(vec![
                    Json::object([("n", 1u64.into()), ("x", Json::Fixed(0.5, 3))]),
                    Json::object([("n", 2usize.into()), ("x", Json::Fixed(f64::NAN, 3))]),
                ]),
            ),
            ("empty", Json::Array(vec![])),
            (
                "nested",
                Json::object([("a", 3u128.into()), ("b", "z".into())]),
            ),
            ("speedup", Json::Fixed(7.31449, 3)),
        ]);
        assert_eq!(
            report.to_string(),
            "{\n  \"bench\": \"demo\",\n  \"ok\": true,\n  \"runs\": [\n    \
             {\"n\": 1, \"x\": 0.500},\n    {\"n\": 2, \"x\": null}\n  ],\n  \
             \"empty\": [],\n  \"nested\": {\"a\": 3, \"b\": \"z\"},\n  \
             \"speedup\": 7.314\n}\n"
        );
    }

    #[test]
    fn gates_fail_after_any_regression() {
        let mut gates = Gates::new();
        assert_eq!(gates.code(), 0);
        gates.check(false, "fine");
        assert_eq!(gates.code(), 0);
        gates.check(true, "broken");
        gates.check(false, "fine again");
        assert_eq!(gates.code(), 1);
    }

    #[test]
    fn closed_loop_tallies_every_client() {
        // 14 ops over 3 clients: 4 each, the remainder is dropped.
        let run = closed_loop(3, 14, |c| {
            move |i| match (c + i) % 3 {
                0 => Ok(true),
                1 => Ok(false),
                _ => Err(()),
            }
        });
        assert_eq!((run.clients, run.ops), (3, 12));
        assert_eq!((run.bad, run.failed), (4, 4));
    }
}
