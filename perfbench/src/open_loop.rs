//! Open-loop readers: single queries submitted through
//! `QueryService::try_submit` on a Poisson schedule, each timed from the
//! moment it was due. One thread submits on schedule; a second waits on
//! the tickets in submission order (the batch former answers in that
//! order), so a stall delays every later read and shows in its latency.
//! A closed-loop phase with the same two threads measures how many reads
//! per second the service answers when it is never idle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use dsr_core::SetQuery;
use dsr_service::{CachedPairs, QueryService, QueryTicket, ServiceError};
use rand::rngs::SmallRng;

use crate::inputs::{poisson_offsets, rng, Zipf};
use crate::report::{median, ms, quantile, sorted, tail_quantile};

/// One answered read.
pub struct Read {
    /// From due time to answer, in milliseconds.
    pub latency_ms: f64,
    /// Answered from the cache at submission.
    pub hit: bool,
    pub pool_id: usize,
    /// Update batches the writer had completed when the read was submitted.
    pub version: u64,
    /// The answer, kept only for reads chosen for checking.
    pub answer: Option<CachedPairs>,
}

/// Windows of a phase's reads whose latency quantiles are reported by
/// their median (five windows of about 140 reads in serve's 35 s phase).
const WINDOWS: usize = 5;
/// The read tail. A window's p99 is set by its one or two slowest reads,
/// and so by whether the shared machine stalled during that window; its
/// p90 is set by about fourteen.
const TAIL_QUANTILE: f64 = 0.9;

#[derive(Default)]
pub struct ReadLog {
    /// Answered reads in due order.
    pub reads: Vec<Read>,
    /// How late the generator submitted, per arrival, in milliseconds.
    pub late_ms: Vec<f64>,
    /// `Overloaded` refusals.
    pub refused: u64,
    /// Service or transport errors.
    pub errors: u64,
}

/// What a reader phase draws from.
pub struct ReadMix<'a> {
    pub pool: &'a [SetQuery],
    pub zipf: &'a Zipf,
    pub rate: f64,
    pub duration: Duration,
    pub seed: u64,
    pub stream: u64,
}

struct Pending {
    due: Duration,
    ticket: QueryTicket,
    /// Answered at submission (a cache hit); its latency is final.
    ready_ms: Option<f64>,
    pool_id: usize,
    version: u64,
}

/// Runs one open-loop phase and returns every read once all are
/// answered. `keep(pool_id)` selects the reads whose answers are kept;
/// `version` is the writer's progress counter, if a writer runs beside.
pub fn run(
    service: &QueryService,
    mix: &ReadMix,
    keep: &(dyn Fn(usize) -> bool + Sync),
    version: Option<&AtomicU64>,
) -> ReadLog {
    let mut r = rng(mix.seed, mix.stream);
    let offsets = poisson_offsets(&mut r, mix.rate, mix.duration);
    let picks: Vec<usize> = offsets.iter().map(|_| mix.zipf.sample(&mut r)).collect();
    let mut log = ReadLog::default();
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now();
    thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut reads = Vec::new();
            let mut errors = 0u64;
            for p in rx {
                let keep_answer = keep(p.pool_id);
                let (latency_ms, answer) = match p.ready_ms {
                    Some(latency) => (latency, p.ticket.wait().ok()),
                    None => match p.ticket.wait() {
                        Ok(answer) => (ms(start.elapsed().saturating_sub(p.due)), Some(answer)),
                        Err(_) => {
                            errors += 1;
                            continue;
                        }
                    },
                };
                reads.push(Read {
                    latency_ms,
                    hit: p.ready_ms.is_some(),
                    pool_id: p.pool_id,
                    version: p.version,
                    answer: if keep_answer { answer } else { None },
                });
            }
            (reads, errors)
        });
        for (&due, &pool_id) in offsets.iter().zip(&picks) {
            let now = start.elapsed();
            if due > now {
                thread::sleep(due - now);
            }
            log.late_ms.push(ms(start.elapsed().saturating_sub(due)));
            let version = version.map_or(0, |v| v.load(Ordering::SeqCst));
            let q = &mix.pool[pool_id];
            match service.try_submit(&q.sources, &q.targets) {
                Ok(ticket) => {
                    let ready_ms = ticket
                        .is_ready()
                        .then(|| ms(start.elapsed().saturating_sub(due)));
                    tx.send(Pending {
                        due,
                        ticket,
                        ready_ms,
                        pool_id,
                        version,
                    })
                    .expect("collector is alive");
                }
                Err(ServiceError::Overloaded { .. }) => log.refused += 1,
                Err(_) => log.errors += 1,
            }
        }
        drop(tx);
        let (reads, errors) = collector.join().expect("collector thread panicked");
        log.reads = reads;
        log.errors += errors;
    });
    log
}

/// What a closed-loop phase answered.
#[derive(Default)]
pub struct Saturation {
    pub answered: u64,
    /// `Overloaded` refusals.
    pub refused: u64,
    /// Service or transport errors.
    pub errors: u64,
    /// From the first submission to the last answer.
    pub secs: f64,
}

/// Runs one closed-loop phase: Zipf draws from `pool` are submitted back
/// to back for `duration` while at most `window` (plus the one being
/// waited on) are unanswered, then every submitted read is awaited.
pub fn saturate(
    service: &QueryService,
    pool: &[SetQuery],
    zipf: &Zipf,
    duration: Duration,
    rng: &mut SmallRng,
    window: usize,
) -> Saturation {
    let mut out = Saturation::default();
    let (tx, rx) = mpsc::sync_channel::<QueryTicket>(window);
    let start = Instant::now();
    thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let (mut answered, mut errors) = (0u64, 0u64);
            for ticket in rx {
                match ticket.wait() {
                    Ok(_) => answered += 1,
                    Err(_) => errors += 1,
                }
            }
            (answered, errors)
        });
        while start.elapsed() < duration {
            let q = &pool[zipf.sample(rng)];
            match service.try_submit(&q.sources, &q.targets) {
                Ok(ticket) => tx.send(ticket).expect("collector is alive"),
                Err(ServiceError::Overloaded { .. }) => out.refused += 1,
                Err(_) => out.errors += 1,
            }
        }
        drop(tx);
        let (answered, errors) = collector.join().expect("collector thread panicked");
        out.answered = answered;
        out.errors += errors;
    });
    out.secs = start.elapsed().as_secs_f64();
    out
}

impl ReadLog {
    /// Median over windows of each window's median latency.
    pub fn p50_ms(&self) -> f64 {
        self.over_windows(0.5)
    }

    /// Median over windows of each window's 90th percentile.
    pub fn tail_ms(&self) -> f64 {
        self.over_windows(TAIL_QUANTILE)
    }

    /// Splits the reads, in due order, into `WINDOWS` windows of equal
    /// count and returns the median over windows of each window's
    /// `q`-quantile. A slow spell of a shared machine that
    /// hits one window moves this median less than it moves a quantile
    /// over all reads.
    fn over_windows(&self, q: f64) -> f64 {
        let len = (self.reads.len() / WINDOWS).max(1);
        let per_window: Vec<f64> = self
            .reads
            .chunks(len)
            .take(WINDOWS)
            .map(|w| {
                let latencies = sorted(w.iter().map(|r| r.latency_ms).collect());
                quantile(&latencies, q)
            })
            .collect();
        median(&per_window)
    }

    /// Median latency of cache hits (`hit`) or of misses.
    pub fn split_p50_ms(&self, hit: bool) -> f64 {
        let split: Vec<f64> = self
            .reads
            .iter()
            .filter(|r| r.hit == hit)
            .map(|r| r.latency_ms)
            .collect();
        quantile(&sorted(split), 0.5)
    }

    pub fn hit_share(&self) -> f64 {
        self.reads.iter().filter(|r| r.hit).count() as f64 / self.reads.len().max(1) as f64
    }

    pub fn late_tail_ms(&self) -> f64 {
        quantile(
            &sorted(self.late_ms.clone()),
            tail_quantile(self.late_ms.len()),
        )
    }
}
