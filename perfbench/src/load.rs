//! The untraced load generators: closed-loop readers and the open-loop
//! writer. Nothing here records spans; these runs give the end-to-end
//! metrics.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use coupling::tasks::{TaskEvent, TaskId, TaskKind, TaskQueue, TaskSubscriber};
use serve::{Client, Request, Response};

use crate::oracle::Verdict;
use crate::workload::Write;

/// What a closed-loop reader saw.
#[derive(Debug, Default)]
pub struct Reads {
    /// Client-observed latency of every read, in µs, in completion
    /// order; failed and wrong reads are `+inf`, so they miss every limit.
    pub lat_us: Vec<f64>,
    /// Completion time of each read in `lat_us`, in seconds since the
    /// loop started.
    pub done_s: Vec<f64>,
    /// Reads sent.
    pub attempted: u64,
    /// Reads answered correctly.
    pub ok: u64,
    /// Reads that returned an error.
    pub failed: u64,
    /// Reads answered wrongly.
    pub wrong: u64,
    /// Reads answered from the stale store.
    pub stale: u64,
    /// Seconds from the start of the loop to the last completion.
    pub window_s: f64,
}

impl Reads {
    /// Reads that count as errors.
    pub fn errors(&self) -> u64 {
        self.failed + self.wrong + self.stale
    }

    /// Cut the reads into consecutive slices of at least `min_samples`
    /// reads each, at most `max_slices` of them. A burst of host noise
    /// then moves a few slices, not the median over slices.
    pub fn slices(&self, min_samples: usize, max_slices: usize) -> Vec<Slice> {
        let len = self.lat_us.len();
        let n = (len / min_samples.max(1)).clamp(1, max_slices.max(1));
        let mut out = Vec::with_capacity(n);
        let mut begin_s = 0.0;
        for j in 0..n {
            let range = j * len / n..(j + 1) * len / n;
            let end_s = self.done_s[range.clone()]
                .last()
                .copied()
                .unwrap_or(begin_s);
            let lat_us = self.lat_us[range].to_vec();
            out.push(Slice {
                ok: lat_us.iter().filter(|x| x.is_finite()).count() as u64,
                lat_us,
                span_s: end_s - begin_s,
            });
            begin_s = end_s;
        }
        out
    }
}

/// A run of consecutive reads (see [`Reads::slices`]).
#[derive(Debug, Default)]
pub struct Slice {
    /// Latencies, µs; failed and wrong reads are `+inf`.
    pub lat_us: Vec<f64>,
    /// Reads answered correctly.
    pub ok: u64,
    /// Seconds from the previous slice's last completion (or the loop's
    /// start) to this slice's last completion.
    pub span_s: f64,
}

impl Slice {
    /// Correct reads per second.
    pub fn rps(&self) -> f64 {
        self.ok as f64 / self.span_s.max(1e-9)
    }
}

/// One closed-loop caller on `conn` until `deadline`: it takes the next
/// stream position from `next` and runs `op` on it, again and again;
/// `op` returns `None` when the call failed.
///
/// One connection per workload: the client and the server thread
/// answering it fit a 2-vCPU VM's two cores. With two, each read also
/// waited for a core, and on a shared host the figures followed
/// whatever else ran (quartile spread up to 0.3 of the median over ten
/// seeds).
pub fn closed_loop<S>(
    conn: &mut S,
    next: &mut usize,
    deadline: Instant,
    op: impl Fn(&mut S, usize) -> Option<Verdict>,
) -> Reads {
    let start = Instant::now();
    let mut reads = Reads::default();
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let verdict = op(conn, *next);
        *next += 1;
        let us = t0.elapsed().as_nanos() as f64 / 1_000.0;
        reads.done_s.push(start.elapsed().as_secs_f64());
        reads.attempted += 1;
        reads.lat_us.push(match verdict {
            Some(Verdict::Ok) => {
                reads.ok += 1;
                us
            }
            Some(Verdict::Wrong) => {
                reads.wrong += 1;
                f64::INFINITY
            }
            Some(Verdict::Stale) => {
                reads.stale += 1;
                f64::INFINITY
            }
            None => {
                reads.failed += 1;
                f64::INFINITY
            }
        });
    }
    reads.window_s = start.elapsed().as_secs_f64();
    reads
}

/// What the open-loop writer saw.
#[derive(Debug, Default)]
pub struct Writes {
    /// Due time → `TaskAccepted`, µs, per accepted write.
    pub ack_us: Vec<f64>,
    /// Due time → `TaskEvent::Finished`, µs, per finished write.
    pub visible_us: Vec<f64>,
    /// Send time − due time, µs, per write sent.
    pub late_us: Vec<f64>,
    /// Writes sent.
    pub attempted: u64,
    /// Writes accepted (`TaskAccepted`).
    pub acked: u64,
    /// Writes refused or failed on the wire.
    pub refused: u64,
    /// Accepted writes that finished as failed.
    pub failed: u64,
    /// Accepted writes never seen finishing before the drain timed out.
    pub unfinished: u64,
    /// Largest task-queue depth seen right after an enqueue.
    pub depth_max: u64,
    /// Plan index of every accepted write, in acceptance order.
    pub accepted: Vec<usize>,
}

/// Send the writes of `plan` due before `window` has passed since
/// `start`, each at its due time (open loop), over one connection to
/// `addr`. The same thread times `Finished` events from `events` and,
/// after the window, waits up to `drain` for every accepted write.
pub fn open_loop_writes(
    client: &mut Client,
    queue: &TaskQueue,
    events: &TaskSubscriber,
    start: Instant,
    plan: &[Write],
    kind: impl Fn(&Write) -> TaskKind,
    drain: Duration,
) -> Writes {
    let mut out = Writes::default();
    let mut pending: HashMap<TaskId, Instant> = HashMap::new();
    let finish = |event: TaskEvent, pending: &mut HashMap<TaskId, Instant>, out: &mut Writes| {
        if let TaskEvent::Finished { id, ok } = event {
            if let Some(due) = pending.remove(&id) {
                out.visible_us
                    .push(due.elapsed().as_nanos() as f64 / 1_000.0);
                if !ok {
                    out.failed += 1;
                }
            }
        }
    };
    for (i, write) in plan.iter().enumerate() {
        let due = start + Duration::from_secs_f64(write.due_s);
        // Wait for the due time on the event stream, not a sleep.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if let Some(event) = events.recv_timeout(due - now) {
                finish(event, &mut pending, &mut out);
            }
        }
        out.late_us.push(due.elapsed().as_nanos() as f64 / 1_000.0);
        out.attempted += 1;
        let request = Request::EnqueueTask { kind: kind(write) };
        match client.call(&request) {
            Ok(Response::TaskAccepted(id)) => {
                out.ack_us.push(due.elapsed().as_nanos() as f64 / 1_000.0);
                out.acked += 1;
                out.accepted.push(i);
                pending.insert(id, due);
                out.depth_max = out.depth_max.max(queue.depth() as u64);
            }
            _ => out.refused += 1,
        }
        // Drain what arrived meanwhile, so a writer running behind its
        // schedule cannot overflow the bounded event buffer.
        while let Some(event) = events.try_recv() {
            finish(event, &mut pending, &mut out);
        }
    }
    let drain_deadline = Instant::now() + drain;
    while !pending.is_empty() {
        let now = Instant::now();
        if now >= drain_deadline {
            break;
        }
        if let Some(event) = events.recv_timeout(drain_deadline - now) {
            finish(event, &mut pending, &mut out);
        }
    }
    out.unfinished = pending.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cut_in_completion_order() {
        let reads = Reads {
            lat_us: vec![1.0, 2.0, f64::INFINITY, 3.0, 4.0, 6.0, 5.0],
            done_s: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            ..Reads::default()
        };
        let slices = reads.slices(3, 20);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].lat_us, vec![1.0, 2.0, f64::INFINITY]);
        assert_eq!(slices[1].lat_us, vec![3.0, 4.0, 6.0, 5.0]);
        assert_eq!((slices[0].ok, slices[0].span_s), (2, 3.0));
        assert_eq!((slices[1].ok, slices[1].span_s), (4, 4.0));
        assert_eq!(slices[1].rps(), 1.0);
        assert_eq!(reads.slices(1, 3).len(), 3);
        assert_eq!(reads.slices(100, 20).len(), 1);
        assert_eq!(Reads::default().slices(3, 20).len(), 1);
    }
}
