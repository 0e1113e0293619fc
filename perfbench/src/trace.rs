//! Tracing from outside the program: spans and counts taken at the layer
//! boundaries the crates already expose.
//!
//! * [`TimedTransport`] wraps the in-process transport and records every
//!   `scatter` / `all_to_all` / `gather` call, so the gaps between calls
//!   give the engine's split, step-1, step-3 and merge self times.
//! * [`CountingIndex`] replaces entries of `DsrIndex::local_indexes` and
//!   counts comparisons (|S|·|T|), returned pairs and busy time per step.
//! * [`recomposed_build`] rebuilds a `DsrIndex` from the same public
//!   functions `DsrIndex::build` calls, timing each layer.
//! * [`update_replay`] applies update batches to a fork through the timed
//!   transport.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsr_cluster::{
    run_on_slaves, CommStats, InProcess, MessageSize, Transport, TransportError, WireMessage,
};
use dsr_core::{
    CompoundGraph, DsrEngine, DsrIndex, IndexBuildStats, IndexGeneration, PartitionSummary,
    SetQuery, UpdateOp,
};
use dsr_graph::{DiGraph, InducedSubgraph, VertexId};
use dsr_partition::{Cut, MultilevelPartitioner, PartitionId, Partitioner};
use dsr_reach::{build_index, LocalIndexKind, LocalReachability};

use crate::oracle::{checksum, Pairs};
use crate::report::{ms, Metrics};

/// Which protocol step the engine is in, as seen by the transport.
const STEP_OTHER: u8 = 0;
const STEP_ONE: u8 = 1;
const STEP_THREE: u8 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    Scatter,
    Exchange,
    Gather,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub leg: Leg,
    pub start: Instant,
    pub end: Instant,
}

/// In-process transport that records a span per call and tells the
/// wrapped local indexes which step the engine is in.
#[derive(Default)]
pub struct TimedTransport {
    inner: InProcess,
    spans: Mutex<Vec<Span>>,
    step: Arc<AtomicU8>,
}

impl TimedTransport {
    pub fn step_flag(&self) -> Arc<AtomicU8> {
        Arc::clone(&self.step)
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }

    fn record<R>(&self, leg: Leg, next_step: u8, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        self.step.store(next_step, Ordering::SeqCst);
        self.spans
            .lock()
            .expect("span log poisoned")
            .push(Span { leg, start, end });
        result
    }
}

impl Transport for TimedTransport {
    fn name(&self) -> &'static str {
        "timed-in-process"
    }

    fn is_zero_copy(&self) -> bool {
        self.inner.is_zero_copy()
    }

    fn scatter<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        self.record(Leg::Scatter, STEP_ONE, || {
            self.inner.scatter(messages, stats)
        })
    }

    fn gather<M: WireMessage>(
        &self,
        messages: Vec<M>,
        stats: &CommStats,
    ) -> Result<Vec<M>, TransportError> {
        self.record(Leg::Gather, STEP_OTHER, || {
            self.inner.gather(messages, stats)
        })
    }

    fn all_to_all<M: WireMessage>(
        &self,
        num_nodes: usize,
        outgoing: Vec<Vec<(usize, M)>>,
        stats: &CommStats,
    ) -> Result<Vec<Vec<(usize, M)>>, TransportError> {
        self.record(Leg::Exchange, STEP_THREE, || {
            self.inner.all_to_all(num_nodes, outgoing, stats)
        })
    }
}

/// Work counters of one protocol step, summed over slaves.
#[derive(Default)]
pub struct StepCounters {
    pub comparisons: AtomicU64,
    pub pairs: AtomicU64,
    pub busy_ns: AtomicU64,
}

fn load(c: &AtomicU64) -> f64 {
    c.load(Ordering::Relaxed) as f64
}

/// A local index wrapper that counts `set_reachability` work per step.
pub struct CountingIndex {
    inner: Box<dyn LocalReachability>,
    step: Arc<AtomicU8>,
    counters: Arc<[StepCounters; 3]>,
}

impl LocalReachability for CountingIndex {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_reachable(&self, source: VertexId, target: VertexId) -> bool {
        self.inner.is_reachable(source, target)
    }

    fn set_reachability(
        &self,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Vec<(VertexId, VertexId)> {
        let start = Instant::now();
        let out = self.inner.set_reachability(sources, targets);
        let c = &self.counters[self.step.load(Ordering::SeqCst) as usize];
        c.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.comparisons
            .fetch_add((sources.len() * targets.len()) as u64, Ordering::Relaxed);
        c.pairs.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    fn index_bytes(&self) -> usize {
        self.inner.index_bytes()
    }
}

/// Swaps every local index of `index` for a [`CountingIndex`] wrapper.
pub fn install_counters(index: &mut DsrIndex, step: &Arc<AtomicU8>) -> Arc<[StepCounters; 3]> {
    let counters: Arc<[StepCounters; 3]> = Arc::new(Default::default());
    for slot in &mut index.local_indexes {
        let placeholder = build_index(LocalIndexKind::Dfs, Arc::new(DiGraph::empty(0)));
        let inner = std::mem::replace(slot, placeholder);
        *slot = Box::new(CountingIndex {
            inner,
            step: Arc::clone(step),
            counters: Arc::clone(&counters),
        });
    }
    counters
}

/// Layer timings and counts of a build recomposed from public functions.
pub struct BuildTrace {
    pub index: DsrIndex,
    pub partition_s: f64,
    pub cut_s: f64,
    pub induced_s: f64,
    pub summary_s: f64,
    pub compound_s: f64,
    pub local_index_s: f64,
}

impl BuildTrace {
    pub fn layers_s(&self) -> f64 {
        self.partition_s
            + self.cut_s
            + self.induced_s
            + self.summary_s
            + self.compound_s
            + self.local_index_s
    }

    pub fn report(&self, m: &mut Metrics) {
        let s = &self.index.stats;
        m.put("partition.partition_s", self.partition_s, "s");
        m.put("partition.cut_s", self.cut_s, "s");
        m.put(
            "partition.cut_edges",
            self.index.cut.num_edges() as f64,
            "count",
        );
        m.put(
            "partition.in_boundaries",
            s.total_in_boundaries as f64,
            "count",
        );
        m.put(
            "partition.out_boundaries",
            s.total_out_boundaries as f64,
            "count",
        );
        m.put("graph.induced_s", self.induced_s, "s");
        m.put("summary.compute_s", self.summary_s, "s");
        m.put(
            "summary.boundary_pairs",
            s.total_boundary_pairs as f64,
            "count",
        );
        m.put(
            "summary.forward_classes",
            s.total_forward_classes as f64,
            "count",
        );
        m.put(
            "summary.backward_classes",
            s.total_backward_classes as f64,
            "count",
        );
        m.put(
            "summary.transit_edges",
            s.total_transit_edges as f64,
            "count",
        );
        m.put("summary.exchange_bytes", s.summary_bytes as f64, "bytes");
        m.put(
            "summary.transit_per_boundary_pair",
            s.total_transit_edges as f64 / s.total_boundary_pairs.max(1) as f64,
            "ratio",
        );
        m.put("compound.build_s", self.compound_s, "s");
        m.put(
            "compound.edges",
            s.compound_edges.iter().sum::<usize>() as f64,
            "count",
        );
        m.put(
            "compound.dag_edges",
            s.dag_edges.iter().sum::<usize>() as f64,
            "count",
        );
        m.put("compound.bytes", s.total_bytes as f64, "bytes");
        m.put("reach.index_build_s", self.local_index_s, "s");
    }
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *slot = start.elapsed().as_secs_f64();
    r
}

/// `DsrIndex::build` with the in-process transport, recomposed from the
/// public functions it calls (multilevel partitioning included), each
/// layer timed on its own.
pub fn recomposed_build(graph: &DiGraph, k: usize, kind: LocalIndexKind) -> BuildTrace {
    let mut t = [0.0f64; 6];
    let start = Instant::now();
    let partitioning = timed(&mut t[0], || {
        MultilevelPartitioner::default().partition(graph, k)
    });
    let cut = timed(&mut t[1], || Cut::extract(graph, &partitioning));
    let members = partitioning.members();
    let locals: Vec<InducedSubgraph> = timed(&mut t[2], || {
        run_on_slaves(k, |i| InducedSubgraph::induced(graph, &members[i]))
    });
    let summaries: Vec<PartitionSummary> = timed(&mut t[3], || {
        run_on_slaves(k, |i| {
            PartitionSummary::compute_with_options(
                i as PartitionId,
                &locals[i],
                cut.partition(i as PartitionId),
                true,
            )
        })
    });
    let compounds: Vec<CompoundGraph> = timed(&mut t[4], || {
        run_on_slaves(k, |i| {
            CompoundGraph::build(&locals[i], &cut, &summaries, i as PartitionId)
        })
    });
    let local_indexes: Vec<Box<dyn LocalReachability>> = timed(&mut t[5], || {
        run_on_slaves(k, |i| {
            build_index(kind, Arc::new(compounds[i].graph.clone()))
        })
    });
    // The summary exchange: every slave ships its summary to each peer.
    let exchange_bytes: usize = if k > 1 {
        summaries.iter().map(|s| (k - 1) * s.byte_size()).sum()
    } else {
        0
    };
    let stats = IndexBuildStats {
        build_time: start.elapsed(),
        compound_edges: compounds.iter().map(|c| c.num_edges()).collect(),
        dag_edges: compounds.iter().map(|c| c.dag_edges()).collect(),
        total_bytes: compounds.iter().map(|c| c.byte_size()).sum(),
        total_in_boundaries: summaries.iter().map(|s| s.in_boundaries.len()).sum(),
        total_out_boundaries: summaries.iter().map(|s| s.out_boundaries.len()).sum(),
        total_forward_classes: summaries.iter().map(|s| s.num_forward_classes()).sum(),
        total_backward_classes: summaries.iter().map(|s| s.num_backward_classes()).sum(),
        total_boundary_pairs: summaries.iter().map(|s| s.boundary_pairs).sum(),
        total_transit_edges: summaries.iter().map(|s| s.transit.len()).sum(),
        summary_messages: if k > 1 { (k * (k - 1)) as u64 } else { 0 },
        summary_bytes: exchange_bytes as u64,
    };
    BuildTrace {
        index: DsrIndex {
            partitioning,
            cut,
            locals,
            summaries,
            compounds,
            local_indexes,
            kind,
            use_equivalence: true,
            stats,
            generation: IndexGeneration::default(),
        },
        partition_s: t[0],
        cut_s: t[1],
        induced_s: t[2],
        summary_s: t[3],
        compound_s: t[4],
        local_index_s: t[5],
    }
}

/// Fields on which a recomposed build disagrees with `DsrIndex::build`.
pub fn build_mismatches(t: &IndexBuildStats, r: &IndexBuildStats) -> Vec<&'static str> {
    [
        ("compound_edges", t.compound_edges == r.compound_edges),
        ("dag_edges", t.dag_edges == r.dag_edges),
        ("total_bytes", t.total_bytes == r.total_bytes),
        (
            "total_in_boundaries",
            t.total_in_boundaries == r.total_in_boundaries,
        ),
        (
            "total_out_boundaries",
            t.total_out_boundaries == r.total_out_boundaries,
        ),
        (
            "total_forward_classes",
            t.total_forward_classes == r.total_forward_classes,
        ),
        (
            "total_backward_classes",
            t.total_backward_classes == r.total_backward_classes,
        ),
        (
            "total_boundary_pairs",
            t.total_boundary_pairs == r.total_boundary_pairs,
        ),
        (
            "total_transit_edges",
            t.total_transit_edges == r.total_transit_edges,
        ),
        ("summary_messages", t.summary_messages == r.summary_messages),
        ("summary_bytes", t.summary_bytes == r.summary_bytes),
    ]
    .into_iter()
    .filter(|&(_, same)| !same)
    .map(|(field, _)| field)
    .collect()
}

/// Per-batch means of the traced engine batches, beside the wall times
/// and answers of the same batches run untraced.
#[derive(Default)]
pub struct EngineTrace {
    pub plain_times_s: Vec<f64>,
    pub plain_results: Vec<Vec<Pairs>>,
    pub times_s: Vec<f64>,
    /// Batches whose traced and untraced answers differ.
    pub disagreements: usize,
    pub split_s: f64,
    pub scatter_s: f64,
    pub step1_s: f64,
    pub exchange_s: f64,
    pub step3_s: f64,
    pub gather_s: f64,
    pub merge_s: f64,
    pub rounds: f64,
    pub messages: f64,
    pub bytes: f64,
    pub answers: f64,
    pub step1: StepWork,
    pub step3: StepWork,
}

/// Local-index work of one protocol step, per batch.
#[derive(Default, Clone, Copy)]
pub struct StepWork {
    pub comparisons: f64,
    pub pairs: f64,
    pub busy_s: f64,
}

/// Runs each batch untraced on `plain` and then traced on `traced` (an
/// identical index whose local indexes get [`CountingIndex`] wrappers,
/// over the timed transport), alternating until `budget` is spent, so a
/// slow spell of the machine hits both sides alike.
pub fn engine_trace(
    plain: &DsrIndex,
    traced: &mut DsrIndex,
    batches: &[Vec<SetQuery>],
    budget: Duration,
) -> Result<EngineTrace, TransportError> {
    let transport = TimedTransport::default();
    let counters = install_counters(traced, &transport.step_flag());
    let plain_engine = DsrEngine::new(plain);
    let engine = DsrEngine::with_transport(&*traced, &transport);
    let mut tr = EngineTrace::default();
    let start = Instant::now();
    for batch in batches {
        if !tr.times_s.is_empty() && start.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let plain_results = plain_engine.set_reachability_batch(batch)?.results;
        tr.plain_times_s.push(t.elapsed().as_secs_f64());

        let stats = CommStats::new();
        let begin = Instant::now();
        let results = engine.set_reachability_batch_with_stats(batch, &stats)?;
        let end = Instant::now();
        let spans = transport.take_spans();
        tr.times_s.push((end - begin).as_secs_f64());
        tr.disagreements += usize::from(checksum(&results) != checksum(&plain_results));
        tr.plain_results.push(plain_results);
        tr.answers += results.iter().map(Vec::len).sum::<usize>() as f64;
        let (rounds, messages, bytes) = stats.snapshot();
        tr.rounds += rounds as f64;
        tr.messages += messages as f64;
        tr.bytes += bytes as f64;
        // The three legs partition the batch: every gap is engine self time.
        let find = |leg| spans.iter().find(|s| s.leg == leg).copied();
        let (Some(sc), Some(ex), Some(ga)) =
            (find(Leg::Scatter), find(Leg::Exchange), find(Leg::Gather))
        else {
            // A batch without protocol rounds is all master-side work.
            tr.split_s += (end - begin).as_secs_f64();
            continue;
        };
        let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
        tr.split_s += secs(begin, sc.start);
        tr.scatter_s += secs(sc.start, sc.end);
        tr.step1_s += secs(sc.end, ex.start);
        tr.exchange_s += secs(ex.start, ex.end);
        tr.step3_s += secs(ex.end, ga.start);
        tr.gather_s += secs(ga.start, ga.end);
        tr.merge_s += secs(ga.end, end);
    }
    let n = tr.times_s.len().max(1) as f64;
    for (out, c) in [
        (&mut tr.step1, &counters[STEP_ONE as usize]),
        (&mut tr.step3, &counters[STEP_THREE as usize]),
    ] {
        *out = StepWork {
            comparisons: load(&c.comparisons) / n,
            pairs: load(&c.pairs) / n,
            busy_s: load(&c.busy_ns) * 1e-9 / n,
        };
    }
    for v in [
        &mut tr.split_s,
        &mut tr.scatter_s,
        &mut tr.step1_s,
        &mut tr.exchange_s,
        &mut tr.step3_s,
        &mut tr.gather_s,
        &mut tr.merge_s,
        &mut tr.rounds,
        &mut tr.messages,
        &mut tr.bytes,
        &mut tr.answers,
    ] {
        *v /= n;
    }
    Ok(tr)
}

impl EngineTrace {
    /// Reports the engine, cluster and query-side reach metrics; the
    /// overhead is the traced minus the untraced median batch time.
    pub fn report(&self, m: &mut Metrics) {
        use crate::report::median;
        m.put("reach.step1_busy_s", self.step1.busy_s, "s");
        m.put("reach.step1_comparisons", self.step1.comparisons, "count");
        m.put("reach.step1_pairs", self.step1.pairs, "count");
        m.put("reach.step3_busy_s", self.step3.busy_s, "s");
        m.put("reach.step3_comparisons", self.step3.comparisons, "count");
        m.put("reach.step3_pairs", self.step3.pairs, "count");
        m.put("engine.split_ms", self.split_s * 1e3, "ms");
        m.put("engine.step1_ms", self.step1_s * 1e3, "ms");
        m.put("engine.step3_ms", self.step3_s * 1e3, "ms");
        m.put("engine.merge_ms", self.merge_s * 1e3, "ms");
        m.put("engine.answers", self.answers, "count");
        m.put(
            "engine.step1_pairs_per_answer",
            self.step1.pairs / self.answers.max(1.0),
            "ratio",
        );
        m.put("cluster.scatter_ms", self.scatter_s * 1e3, "ms");
        m.put("cluster.exchange_ms", self.exchange_s * 1e3, "ms");
        m.put("cluster.gather_ms", self.gather_s * 1e3, "ms");
        m.put("cluster.rounds", self.rounds, "count");
        m.put("cluster.messages", self.messages, "count");
        m.put("cluster.bytes", self.bytes, "bytes");
        m.put("trace.batches", self.times_s.len() as f64, "count");
        m.put(
            "trace.overhead_ms",
            (median(&self.times_s) - median(&self.plain_times_s)) * 1e3,
            "ms",
        );
    }
}

/// Per-batch means of an update replay on a fork.
#[derive(Default)]
pub struct UpdateTrace {
    pub fork_ms: f64,
    pub call_ms: Vec<f64>,
    pub refresh_ms: f64,
    pub exchange_ms: f64,
    pub patch_ms: f64,
    pub refreshed: f64,
    pub patched: f64,
    pub messages: f64,
    pub bytes: f64,
}

/// Forks `base` and applies `batches` to the fork through the timed
/// transport: refresh is the time before the delta exchange, patch the
/// time after it. Returns the trace and the updated fork.
pub fn update_replay(
    base: &DsrIndex,
    batches: &[Vec<UpdateOp>],
) -> Result<(UpdateTrace, DsrIndex), TransportError> {
    let start = Instant::now();
    let mut fork = base.fork();
    let mut tr = UpdateTrace {
        fork_ms: ms(start.elapsed()),
        ..UpdateTrace::default()
    };
    let transport = TimedTransport::default();
    for ops in batches {
        let begin = Instant::now();
        let outcome = fork.apply_updates_with_transport(ops, &transport)?;
        let end = Instant::now();
        tr.call_ms.push(ms(end - begin));
        match transport.take_spans().first() {
            Some(ex) => {
                tr.refresh_ms += ms(ex.start - begin);
                tr.exchange_ms += ms(ex.end - ex.start);
                tr.patch_ms += ms(end - ex.end);
            }
            None => tr.refresh_ms += ms(end - begin),
        }
        tr.refreshed += outcome.refreshed_summaries.len() as f64;
        tr.patched += outcome.patched_compounds.len() as f64;
        tr.messages += outcome.stats.update_messages as f64;
        tr.bytes += outcome.stats.update_bytes as f64;
    }
    let n = batches.len().max(1) as f64;
    for v in [
        &mut tr.refresh_ms,
        &mut tr.exchange_ms,
        &mut tr.patch_ms,
        &mut tr.refreshed,
        &mut tr.patched,
        &mut tr.messages,
        &mut tr.bytes,
    ] {
        *v /= n;
    }
    Ok((tr, fork))
}

impl UpdateTrace {
    pub fn report(&self, m: &mut Metrics) {
        use crate::report::median;
        m.put("updates.refreshed_summaries", self.refreshed, "count");
        m.put("updates.patched_compounds", self.patched, "count");
        m.put("updates.delta_messages", self.messages, "count");
        m.put("updates.delta_bytes", self.bytes, "bytes");
        m.put("updates.fork_ms", self.fork_ms, "ms");
        m.put("updates.refresh_ms", self.refresh_ms, "ms");
        m.put("updates.exchange_ms", self.exchange_ms, "ms");
        m.put("updates.patch_ms", self.patch_ms, "ms");
        m.put("updates.call_p50_ms", median(&self.call_ms), "ms");
    }
}
