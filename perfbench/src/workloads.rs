//! The three workloads. Each untraced run sets up several times, runs its
//! measured phase, checks a deterministic sample of answers and reports
//! the end-to-end metrics; each traced run recomposes the build layer by
//! layer, reruns the workload's own traffic and reports per-layer metrics.

use std::collections::{BTreeMap, HashMap};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dsr_core::{DsrEngine, DsrIndex, SetQuery, UpdateOp};
use dsr_graph::DiGraph;
use dsr_partition::{MultilevelPartitioner, Partitioner};
use dsr_reach::LocalIndexKind;
use dsr_service::{QueryService, UpdateMode};

use crate::inputs::{self, query_pool, random_query, rng, Zipf};
use crate::open_loop::{self, ReadLog, ReadMix};
use crate::oracle::{checksum, same, Checker, Mirror, Pairs};
use crate::report::{median, peak_rss_mb, quantile, sorted, tail_quantile, Metrics, Tally};
use crate::trace::{self, BuildTrace};

const PARTITIONS: usize = 5;
const LOCAL_INDEX: LocalIndexKind = LocalIndexKind::MsBfs;
const QUERY_SIZE: usize = 10;
const BATCH: usize = 64;
/// Set-ups per run: at least `MIN_SETUPS`, and more, up to `MAX_SETUPS`,
/// until they add up to `SETUP_BUDGET_S`, so a set-up of a fraction of a
/// second is not judged on three samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 5.0;
const UPDATE_BATCH: usize = 16;
/// Seconds between the starts of two `mix` update batches: at scale 12
/// the writer is busy about 40% of the time.
const WRITE_PERIOD_S: f64 = 0.3;
/// Seconds of serve's closed-loop phase.
const SATURATION_S: f64 = 15.0;
/// Unanswered reads the closed-loop phase keeps in flight: two full
/// batches of the service's batch former (`max_batch` 64), so a formed
/// batch is full and the next one is already queued.
const SATURATION_WINDOW: usize = 128;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Analytic,
    Serve,
    Mix,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub scale: u32,
    /// R-MAT scale of the self-test.
    pub tiny_scale: u32,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "analytic-rmat15",
        kind: Kind::Analytic,
        scale: 15,
        tiny_scale: 10,
    },
    Spec {
        name: "serve-zipf-rmat14",
        kind: Kind::Serve,
        scale: 14,
        tiny_scale: 9,
    },
    // Not listed in BENCHMARK.json: its read latencies swing too far from
    // run to run to gate a change. The self-test still runs it.
    Spec {
        name: "mix-rmat12",
        kind: Kind::Mix,
        scale: 12,
        tiny_scale: 9,
    },
];

/// One run's settings and accumulated results.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub tiny: bool,
    pub checker: Checker,
    pub tally: Tally,
    pub metrics: Metrics,
}

impl Run {
    /// A duration that shrinks to a tenth in the self-test.
    fn span(&self, secs: f64) -> Duration {
        Duration::from_secs_f64(if self.tiny { secs / 10.0 } else { secs })
    }

    fn size(&self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }

    fn check(&mut self, what: &str, got: &[(u32, u32)], want: &[(u32, u32)]) {
        self.checker.check(&mut self.tally, what, got, want);
    }
}

pub fn run(spec: &Spec, run: &mut Run) {
    let scale = if run.tiny {
        spec.tiny_scale
    } else {
        spec.scale
    };
    let graph = inputs::graph(scale);
    eprintln!(
        "{}: R-MAT scale {scale}, {} vertices, {} edges, seed {}",
        spec.name,
        graph.num_vertices(),
        graph.num_edges(),
        run.seed
    );
    match (spec.kind, run.trace) {
        (Kind::Analytic, false) => analytic(run, &graph),
        (Kind::Analytic, true) => analytic_traced(run, &graph),
        (kind, false) => serving(run, &graph, kind),
        (kind, true) => serving_traced(run, &graph, kind),
    }
}

fn build(graph: &DiGraph) -> DsrIndex {
    let partitioning = MultilevelPartitioner::default().partition(graph, PARTITIONS);
    DsrIndex::build(graph, partitioning, LOCAL_INDEX)
}

fn timed_build(graph: &DiGraph) -> (DsrIndex, f64) {
    let start = Instant::now();
    let index = build(graph);
    (index, start.elapsed().as_secs_f64())
}

fn analytic_batches(seed: u64, n: usize, count: usize) -> Vec<Vec<SetQuery>> {
    let mut r = rng(seed, 2);
    (0..count)
        .map(|_| {
            (0..BATCH)
                .map(|_| random_query(&mut r, n, QUERY_SIZE))
                .collect()
        })
        .collect()
}

/// Digest of the first three batches' answers, which every analytic run
/// of a seed executes, traced or not.
fn digest(checksums: &[u64]) -> u64 {
    checksums
        .iter()
        .take(3)
        .fold(0, |acc, c| acc.rotate_left(21) ^ c)
}

/// Batch positions checked against the oracle: two per batch.
fn sampled(batch: usize) -> [usize; 2] {
    [batch % BATCH, (batch * 31 + 17) % BATCH]
}

fn analytic(run: &mut Run, graph: &DiGraph) {
    let mut setups = extra_setups(run);
    let (index, secs) = timed_build(graph);
    setups.push(secs);
    let engine = DsrEngine::new(&index);
    let mut mirror = Mirror::new(graph);
    let batches = analytic_batches(run.seed, graph.num_vertices(), run.size(400, 40));
    let mut times = Vec::new();
    let mut checksums = Vec::new();
    let start = Instant::now();
    for (b, batch) in batches.iter().enumerate() {
        if b >= 3 && start.elapsed() >= run.seconds {
            break;
        }
        run.tally.attempted += BATCH as u64;
        let t = Instant::now();
        let outcome = engine.set_reachability_batch(batch);
        let elapsed = t.elapsed().as_secs_f64();
        match outcome {
            Ok(outcome) => {
                times.push(elapsed);
                checksums.push(checksum(&outcome.results));
                for q in sampled(b) {
                    let want = mirror.answer(&batch[q]);
                    run.check("analytic batch answer", &outcome.results[q], &want);
                }
            }
            Err(e) => {
                eprintln!("batch failed: {e}");
                run.tally.failed += BATCH as u64;
                break;
            }
        }
    }
    let sorted_times = sorted(times.clone());
    eprintln!(
        "analytic: {} batches, answer digest {:016x}, batch p50 {:.4} s, {} answers checked",
        times.len(),
        digest(&checksums),
        quantile(&sorted_times, 0.5),
        run.tally.checked
    );
    let m = &mut run.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("p50_ms", quantile(&sorted_times, 0.5) * 1e3, "ms");
    m.put(
        "tail_ms",
        quantile(&sorted_times, tail_quantile(times.len())) * 1e3,
        "ms",
    );
    m.put(
        "throughput_per_s",
        (times.len() * BATCH) as f64 / times.iter().sum::<f64>(),
        "1/s",
    );
}

/// Recomposed build, reference `DsrIndex::build`, and the consistency
/// check between the two; reports the build-side layer metrics.
fn traced_build(run: &mut Run, graph: &DiGraph) -> (BuildTrace, DsrIndex) {
    let traced = trace::recomposed_build(graph, PARTITIONS, LOCAL_INDEX);
    let (reference, reference_s) = timed_build(graph);
    for field in trace::build_mismatches(&traced.index.stats, &reference.stats) {
        run.tally.mismatch(&format!(
            "recomposed build differs from DsrIndex::build in {field}"
        ));
    }
    traced.report(&mut run.metrics);
    run.metrics
        .put("trace.build_layers_s", traced.layers_s(), "s");
    run.metrics.put("trace.build_ref_s", reference_s, "s");
    eprintln!(
        "build: layers sum to {:.3} s, DsrIndex::build took {:.3} s ({:+.1}%)",
        traced.layers_s(),
        reference_s,
        (traced.layers_s() / reference_s - 1.0) * 100.0
    );
    (traced, reference)
}

/// Engine batches run untraced on `plain` and traced on `traced`, two
/// indexes of the same graph; the answers must agree batch by batch.
fn traced_engine(
    run: &mut Run,
    plain: &DsrIndex,
    traced: &mut DsrIndex,
    batches: &[Vec<SetQuery>],
    budget: Duration,
    oracle: Option<&mut Mirror>,
) {
    let tr = match trace::engine_trace(plain, traced, batches, budget) {
        Ok(tr) => tr,
        Err(e) => return run.tally.mismatch(&format!("engine trace failed: {e}")),
    };
    let queries: usize = batches[..tr.times_s.len()].iter().map(Vec::len).sum();
    run.tally.attempted += 2 * queries as u64;
    if tr.disagreements > 0 {
        run.tally.mismatch(&format!(
            "{} batches answered differently traced and untraced",
            tr.disagreements
        ));
    }
    if let Some(mirror) = oracle {
        for (b, results) in tr.plain_results.iter().enumerate() {
            for q in sampled(b) {
                let want = mirror.answer(&batches[b][q]);
                run.check("analytic batch answer", &results[q], &want);
            }
        }
    }
    let checksums: Vec<u64> = tr.plain_results.iter().map(|r| checksum(r)).collect();
    eprintln!(
        "engine: {} batches each way, answer digest {:016x}, untraced p50 {:.4} s, traced p50 {:.4} s",
        tr.times_s.len(),
        digest(&checksums),
        median(&tr.plain_times_s),
        median(&tr.times_s)
    );
    tr.report(&mut run.metrics);
}

/// Replays `batches` on a fork of `base` and checks the fork's graph
/// against the mirror after the same batches.
fn traced_updates(run: &mut Run, graph: &DiGraph, base: &DsrIndex, batches: &[Vec<UpdateOp>]) {
    match trace::update_replay(base, batches) {
        Ok((tr, fork)) => {
            check_graph(run, graph, batches, &fork, "update replay");
            tr.report(&mut run.metrics);
        }
        Err(e) => run.tally.mismatch(&format!("update replay failed: {e}")),
    }
}

/// The index's graph must equal the input graph after `batches`.
fn check_graph(
    run: &mut Run,
    graph: &DiGraph,
    batches: &[Vec<UpdateOp>],
    index: &DsrIndex,
    what: &str,
) {
    let mut mirror = Mirror::new(graph);
    for ops in batches {
        mirror.apply(ops);
    }
    // Reachability depends on the edge set: the input graph keeps
    // duplicate R-MAT edges, so both sides are compared as sets.
    let mut edges = index.reconstruct_graph().edge_vec();
    edges.sort_unstable();
    edges.dedup();
    run.tally.checked += 1;
    if edges != mirror.edges() {
        run.tally.mismatch(&format!(
            "{what}: index graph differs from the mirror graph"
        ));
    }
}

fn analytic_traced(run: &mut Run, graph: &DiGraph) {
    let (mut traced, reference) = traced_build(run, graph);
    let n = graph.num_vertices();
    let batches = analytic_batches(run.seed, n, run.size(400, 40));
    let mut mirror = Mirror::new(graph);
    traced_engine(
        run,
        &reference,
        &mut traced.index,
        &batches,
        run.seconds,
        Some(&mut mirror),
    );
    // Service probe: a short open-loop burst through the service layer,
    // which the analytic traffic itself bypasses.
    let service = QueryService::new(Arc::new(reference));
    let pool = query_pool(&mut rng(run.seed, 3), n, 256, QUERY_SIZE);
    let zipf = Zipf::new(pool.len(), 0.99);
    let probe = ReadMix {
        pool: &pool,
        zipf: &zipf,
        rate: 20.0,
        duration: run.span(2.0),
        seed: run.seed,
        stream: 12,
    };
    let log = open_loop::run(&service, &probe, &|_| false, None);
    count_reads(run, &log);
    report_service(&service, &log, &mut run.metrics);
    drop(service);
    let updates = inputs::update_batches(graph, 3, UPDATE_BATCH, run.seed);
    traced_updates(run, graph, &traced.index, &updates);
}

/// Partition, build and start the service: the serving set-up.
fn start_service(graph: &DiGraph) -> (QueryService, f64) {
    let start = Instant::now();
    let service = QueryService::new(Arc::new(build(graph)));
    (service, start.elapsed().as_secs_f64())
}

/// Times the workload's set-up in fresh processes of this binary, so
/// repeated set-ups neither share allocator state with the measured one
/// nor raise its peak memory. With the run's own set-up these make at
/// least `MIN_SETUPS`, and more while they sum to under `SETUP_BUDGET_S`.
fn extra_setups(run: &Run) -> Vec<f64> {
    let mut times: Vec<f64> = Vec::new();
    while times.len() + 1 < MAX_SETUPS
        && (times.len() + 1 < MIN_SETUPS
            || times.iter().sum::<f64>() < run.span(SETUP_BUDGET_S).as_secs_f64())
    {
        times.push(setup_process(run));
    }
    times
}

fn setup_process(run: &Run) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        run.workload,
        "--seed",
        &run.seed.to_string(),
        "--setup-only",
    ]);
    if run.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().expect("start a set-up process");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .unwrap_or_else(|_| {
            panic!(
                "set-up process failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

/// One timed set-up of `spec`; what a `--setup-only` process prints.
pub fn setup_only(spec: &Spec, tiny: bool) -> f64 {
    let graph = inputs::graph(if tiny { spec.tiny_scale } else { spec.scale });
    match spec.kind {
        Kind::Analytic => timed_build(&graph).1,
        _ => start_service(&graph).1,
    }
}

/// Read traffic of the two serving workloads.
struct Traffic {
    pool: Vec<SetQuery>,
    zipf: Zipf,
    rate: f64,
    /// Zipf draws answered in closed-loop batches before the open-loop
    /// warm-up, so the cache starts the measured phase in steady state.
    prime: usize,
    warmup: Duration,
}

fn traffic(run: &Run, kind: Kind, n: usize) -> Traffic {
    let mut r = rng(run.seed, 3);
    let (pool_size, s, rate, prime, warmup) = match kind {
        Kind::Serve => (
            run.size(16_384, 512),
            0.8,
            20.0,
            run.size(1024, 64),
            run.span(2.0),
        ),
        _ => (run.size(1024, 64), 0.99, 100.0, 0, run.span(2.0)),
    };
    Traffic {
        pool: query_pool(&mut r, n, pool_size, QUERY_SIZE),
        zipf: Zipf::new(pool_size, s),
        rate,
        prime,
        warmup,
    }
}

/// Brings the cache to steady state: `t.prime` Zipf draws answered
/// through `QueryService::query_batch` in batches of `BATCH`, then an
/// open-loop warm-up at the measured rate. Neither is measured.
///
/// Serve's working set is far larger than the cache: open-loop reads at
/// the measured rate alone would take most of the measured phase to fill
/// it, and the hit share, and with it `p50_ms`, would still be climbing.
/// After 1,024 draws an LRU cache of 1,024 entries under Zipf(0.8) over
/// 16,384 queries is at its steady hit share of about 0.37.
fn warm_up(run: &mut Run, service: &QueryService, t: &Traffic) {
    let mut r = rng(run.seed, 12);
    let draws: Vec<SetQuery> = (0..t.prime)
        .map(|_| t.pool[t.zipf.sample(&mut r)].clone())
        .collect();
    for batch in draws.chunks(BATCH) {
        run.tally.attempted += batch.len() as u64;
        if service.query_batch(batch).is_err() {
            run.tally.failed += batch.len() as u64;
        }
    }
    let warm = open_loop::run(
        service,
        &reads(t, t.rate, t.warmup, run.seed, 10),
        &|_| false,
        None,
    );
    count_reads(run, &warm);
}

fn reads(t: &Traffic, rate: f64, duration: Duration, seed: u64, stream: u64) -> ReadMix<'_> {
    ReadMix {
        pool: &t.pool,
        zipf: &t.zipf,
        rate,
        duration,
        seed,
        stream,
    }
}

fn count_reads(run: &mut Run, log: &ReadLog) {
    run.tally.attempted += log.reads.len() as u64 + log.refused + log.errors;
    run.tally.failed += log.refused + log.errors;
}

/// Reads whose answers are checked: every sixteenth pool entry.
fn keep(pool_id: usize) -> bool {
    pool_id.is_multiple_of(16)
}

/// Checks kept answers of a phase without a writer.
fn check_static_reads(run: &mut Run, graph: &DiGraph, pool: &[SetQuery], log: &ReadLog) {
    let mut mirror = Mirror::new(graph);
    let mut oracle: HashMap<usize, Pairs> = HashMap::new();
    let checked = run.tally.checked;
    for read in &log.reads {
        if let Some(answer) = &read.answer {
            let want = oracle
                .entry(read.pool_id)
                .or_insert_with(|| mirror.answer(&pool[read.pool_id]));
            run.check("served answer", answer, want);
        }
    }
    if run.tally.checked == checked {
        run.tally.mismatch("no served answer was checked");
    }
}

/// Checks kept answers of a phase beside the writer: a read submitted
/// after `v` batches were applied is answered on version `v` or `v + 1`.
fn check_versioned_reads(
    run: &mut Run,
    graph: &DiGraph,
    pool: &[SetQuery],
    log: &ReadLog,
    applied: &[Vec<UpdateOp>],
) {
    let mut by_version: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, read) in log.reads.iter().enumerate() {
        if read.answer.is_some() {
            by_version.entry(read.version).or_default().push(i);
        }
    }
    let mut mirror = Mirror::new(graph);
    let mut deferred: Vec<usize> = Vec::new();
    for v in 0..=applied.len() {
        for i in std::mem::take(&mut deferred) {
            let read = &log.reads[i];
            let want = mirror.answer(&pool[read.pool_id]);
            run.check(
                "read beside writer",
                read.answer.as_ref().expect("kept"),
                &want,
            );
        }
        for &i in by_version.get(&(v as u64)).into_iter().flatten() {
            let read = &log.reads[i];
            let got = read.answer.as_ref().expect("kept");
            let want = mirror.answer(&pool[read.pool_id]);
            if same(got, &want) || v == applied.len() {
                run.check("read beside writer", got, &want);
            } else {
                deferred.push(i);
            }
        }
        if let Some(ops) = applied.get(v) {
            mirror.apply(ops);
        }
    }
}

fn report_service(service: &QueryService, log: &ReadLog, m: &mut Metrics) {
    let cache = service.cache_stats();
    let batch = service.batch_stats();
    let generations = service.generation_stats();
    m.put("service.hit_rate", cache.hit_rate(), "ratio");
    m.put("service.evictions", cache.evictions() as f64, "count");
    m.put(
        "service.invalidations",
        cache.invalidations() as f64,
        "count",
    );
    m.put("service.batches", batch.batches() as f64, "count");
    m.put("service.mean_batch", batch.mean_batch_size(), "count");
    m.put("service.mean_wait_us", batch.mean_wait_us(), "us");
    m.put("service.max_wait_us", batch.max_wait_us() as f64, "us");
    m.put("service.late_hits", batch.late_hits() as f64, "count");
    m.put("service.refused", log.refused as f64, "count");
    m.put(
        "service.generations_created",
        generations.created as f64,
        "count",
    );
    m.put(
        "service.generations_reclaimed",
        generations.reclaimed as f64,
        "count",
    );
    m.put("service.hit_p50_us", log.split_p50_ms(true) * 1e3, "us");
    m.put("service.miss_p50_ms", log.split_p50_ms(false), "ms");
    m.put("load.late_p99_ms", log.late_tail_ms(), "ms");
}

fn describe_reads(what: &str, log: &ReadLog) {
    eprintln!(
        "{what}: {} reads (p50 {:.2} ms, tail {:.2} ms), hit share {:.3} \
         (hit p50 {:.3} ms, miss p50 {:.2} ms), generator late p99 {:.3} ms, {} refused, {} errors",
        log.reads.len(),
        log.p50_ms(),
        log.tail_ms(),
        log.hit_share(),
        log.split_p50_ms(true),
        log.split_p50_ms(false),
        log.late_tail_ms(),
        log.refused,
        log.errors
    );
}

/// What the writer did beside the readers.
#[derive(Default)]
struct Written {
    applied: usize,
    call_ms: Vec<f64>,
    failed: u64,
}

/// The measured phase of `mix`: open-loop reads with one writer applying
/// `updates` one batch per `period` (or back to back once it runs late)
/// until the reads end. A fixed write rate keeps the generation swaps per
/// second, and so the readers' cache misses, a property of the workload:
/// a back-to-back writer would swap faster as updates get faster and
/// charge the readers for it.
fn reads_beside_writer(
    service: &QueryService,
    mix: &ReadMix,
    updates: &[Vec<UpdateOp>],
    period: Duration,
) -> (ReadLog, Written) {
    let version = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut w = Written::default();
            let phase = Instant::now();
            for (b, ops) in updates.iter().enumerate() {
                let due = period.mul_f64(b as f64);
                if due >= mix.duration || stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Some(wait) = due.checked_sub(phase.elapsed()) {
                    thread::sleep(wait);
                }
                let start = Instant::now();
                match service.update(ops, UpdateMode::ForkAndSwap) {
                    Ok(_) => {
                        w.call_ms.push(start.elapsed().as_secs_f64() * 1e3);
                        w.applied += 1;
                        version.store(w.applied as u64, Ordering::SeqCst);
                    }
                    Err(e) => {
                        eprintln!("update failed: {e}");
                        w.failed += 1;
                        break;
                    }
                }
            }
            w
        });
        let log = open_loop::run(service, mix, &keep_mix, Some(&version));
        stop.store(true, Ordering::SeqCst);
        (log, writer.join().expect("writer thread panicked"))
    })
}

/// Reads whose answers are checked on `mix`: every fourth pool entry.
fn keep_mix(pool_id: usize) -> bool {
    pool_id.is_multiple_of(4)
}

fn serving(run: &mut Run, graph: &DiGraph, kind: Kind) {
    let mut setups = extra_setups(run);
    let (service, secs) = start_service(graph);
    setups.push(secs);
    let t = traffic(run, kind, graph.num_vertices());
    warm_up(run, &service, &t);
    let measured = reads(&t, t.rate, run.seconds, run.seed, 11);
    let throughput;
    let log = if kind == Kind::Serve {
        let log = open_loop::run(&service, &measured, &keep, None);
        count_reads(run, &log);
        check_static_reads(run, graph, &t.pool, &log);
        describe_reads("serve", &log);
        let sat = open_loop::saturate(
            &service,
            &t.pool,
            &t.zipf,
            run.span(SATURATION_S),
            &mut rng(run.seed, 13),
            SATURATION_WINDOW,
        );
        run.tally.attempted += sat.answered + sat.refused + sat.errors;
        run.tally.failed += sat.refused + sat.errors;
        throughput = sat.answered as f64 / sat.secs;
        eprintln!(
            "serve: saturated {} reads in {:.2} s, {throughput:.1} reads/s, {} refused, {} errors",
            sat.answered, sat.secs, sat.refused, sat.errors
        );
        log
    } else {
        let updates = inputs::update_batches(graph, run.size(400, 40), UPDATE_BATCH, run.seed);
        let (log, written) =
            reads_beside_writer(&service, &measured, &updates, run.span(WRITE_PERIOD_S));
        count_reads(run, &log);
        run.tally.attempted += (written.applied as u64 + written.failed) * UPDATE_BATCH as u64;
        run.tally.failed += written.failed * UPDATE_BATCH as u64;
        if written.applied == updates.len() {
            eprintln!("warning: the writer ran out of update batches");
        }
        let applied = &updates[..written.applied];
        check_versioned_reads(run, graph, &t.pool, &log, applied);
        check_graph(run, graph, applied, &service.index(), "mix writer");
        describe_reads("mix", &log);
        let ops = (written.applied * UPDATE_BATCH) as f64;
        throughput = ops / (written.call_ms.iter().sum::<f64>() / 1e3);
        eprintln!(
            "mix writer: {} batches of {UPDATE_BATCH}, update p50 {:.1} ms, {:.1} ops/s",
            written.applied,
            median(&written.call_ms),
            throughput
        );
        log
    };
    eprintln!("{} answers checked", run.tally.checked);
    let m = &mut run.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("p50_ms", log.p50_ms(), "ms");
    m.put("tail_ms", log.tail_ms(), "ms");
    m.put("throughput_per_s", throughput, "1/s");
}

/// Batches of the queries the service missed on, in miss order, sized
/// like the batches the service formed.
fn miss_batches(log: &ReadLog, pool: &[SetQuery], batch_size: f64) -> Vec<Vec<SetQuery>> {
    let misses: Vec<SetQuery> = log
        .reads
        .iter()
        .filter(|r| !r.hit)
        .map(|r| pool[r.pool_id].clone())
        .collect();
    let size = (batch_size.round() as usize).max(1);
    misses.chunks(size).map(<[SetQuery]>::to_vec).collect()
}

fn serving_traced(run: &mut Run, graph: &DiGraph, kind: Kind) {
    let (mut traced, reference) = traced_build(run, graph);
    let plain = reference.fork();
    let service = QueryService::new(Arc::new(reference));
    let t = traffic(run, kind, graph.num_vertices());
    warm_up(run, &service, &t);
    // Service counters cover the measured phase only.
    service.cache_stats().reset();
    service.batch_stats().reset();
    let measured = reads(&t, t.rate, run.seconds, run.seed, 11);
    let updates = inputs::update_batches(graph, run.size(400, 40), UPDATE_BATCH, run.seed);
    let (log, replayed) = if kind == Kind::Serve {
        let log = open_loop::run(&service, &measured, &keep, None);
        check_static_reads(run, graph, &t.pool, &log);
        (log, &updates[..3])
    } else {
        let (log, written) =
            reads_beside_writer(&service, &measured, &updates, run.span(WRITE_PERIOD_S));
        run.tally.attempted += (written.applied as u64 + written.failed) * UPDATE_BATCH as u64;
        run.tally.failed += written.failed * UPDATE_BATCH as u64;
        check_versioned_reads(run, graph, &t.pool, &log, &updates[..written.applied]);
        (log, &updates[..written.applied.clamp(1, 8)])
    };
    count_reads(run, &log);
    describe_reads("measured", &log);
    report_service(&service, &log, &mut run.metrics);
    let batches = miss_batches(&log, &t.pool, service.batch_stats().mean_batch_size());
    drop(service);
    traced_engine(
        run,
        &plain,
        &mut traced.index,
        &batches,
        run.span(10.0),
        None,
    );
    traced_updates(run, graph, &traced.index, replayed);
}
