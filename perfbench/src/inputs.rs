//! Seeded input generation. Everything a run feeds the program — graph,
//! queries, arrival schedules, update batches — derives from the
//! `--seed` argument, so the same seed gives the same inputs.

use std::collections::HashSet;
use std::time::Duration;

use dsr_core::{SetQuery, UpdateOp};
use dsr_datagen::workload::{update_stream, EdgeOp, UpdateStreamConfig};
use dsr_graph::{DiGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Independent sub-stream `stream` of the run seed (SplitMix64 finaliser).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(sub_seed(seed, stream))
}

/// Generator seed of the workload graphs. The graph is fixed per scale,
/// like a dataset; the run seed drives queries, arrivals and updates, so
/// runs with different seeds differ in traffic, not in graph structure.
const GRAPH_SEED: u64 = 1;

/// R-MAT social graph with `2^scale` vertices and average out-degree 8.
pub fn graph(scale: u32) -> DiGraph {
    dsr_datagen::rmat::rmat_social(scale, 8 << scale, GRAPH_SEED)
}

fn distinct(rng: &mut SmallRng, n: usize, count: usize) -> Vec<VertexId> {
    let mut out: Vec<VertexId> = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.gen_range(0..n as VertexId);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// A uniformly random query of `size` distinct sources and `size`
/// distinct targets (the two sets may overlap).
pub fn random_query(rng: &mut SmallRng, n: usize, size: usize) -> SetQuery {
    SetQuery::new(distinct(rng, n, size), distinct(rng, n, size))
}

/// `count` pairwise distinct random queries.
pub fn query_pool(rng: &mut SmallRng, n: usize, count: usize, size: usize) -> Vec<SetQuery> {
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let q = random_query(rng, n, size);
        if seen.insert(q.signature()) {
            pool.push(q);
        }
    }
    pool
}

/// Zipf(`s`) over ranks `0..n`: rank `i` has weight `1 / (i + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Poisson arrivals at `rate` per second over `duration`: the offset of
/// each arrival from the start of the phase.
pub fn poisson_offsets(rng: &mut SmallRng, rate: f64, duration: Duration) -> Vec<Duration> {
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// `batches` consecutive batches of `size` edge updates from
/// `dsr_datagen`'s consistent update stream (half insertions, half
/// deletions of live edges), in application order.
pub fn update_batches(
    graph: &DiGraph,
    batches: usize,
    size: usize,
    seed: u64,
) -> Vec<Vec<UpdateOp>> {
    let config = UpdateStreamConfig {
        num_ops: batches * size,
        insert_fraction: 0.5,
        seed: sub_seed(seed, 7),
    };
    let ops: Vec<UpdateOp> = update_stream(graph, &config)
        .into_iter()
        .map(|op| match op {
            EdgeOp::Insert(u, v) => UpdateOp::Insert(u, v),
            EdgeOp::Delete(u, v) => UpdateOp::Delete(u, v),
        })
        .collect();
    ops.chunks(size).map(<[UpdateOp]>::to_vec).collect()
}
