//! Answer checking: breadth-first search on the global graph, kept as a
//! mutable mirror so update workloads can check reads against the graph
//! version they were answered on.

use dsr_core::{SetQuery, UpdateOp};
use dsr_graph::{DiGraph, VertexId};

use crate::report::Tally;

pub type Pairs = Vec<(VertexId, VertexId)>;

/// Adjacency-list mirror of the indexed graph.
pub struct Mirror {
    adj: Vec<Vec<VertexId>>,
    stamp: Vec<u32>,
    epoch: u32,
    queue: Vec<VertexId>,
}

impl Mirror {
    pub fn new(graph: &DiGraph) -> Self {
        let n = graph.num_vertices();
        let adj = (0..n as VertexId)
            .map(|v| graph.out_neighbors(v).to_vec())
            .collect();
        Mirror {
            adj,
            stamp: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
        }
    }

    /// Applies one update batch, as the program is asked to.
    pub fn apply(&mut self, ops: &[UpdateOp]) {
        for &op in ops {
            match op {
                UpdateOp::Insert(u, v) => {
                    let out = &mut self.adj[u as usize];
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
                UpdateOp::Delete(u, v) => self.adj[u as usize].retain(|&w| w != v),
            }
        }
    }

    /// Sorted, duplicate-free edge list, for comparison with an index's
    /// reconstructed graph.
    pub fn edges(&self) -> Pairs {
        let mut edges: Pairs = self
            .adj
            .iter()
            .enumerate()
            .flat_map(|(u, out)| out.iter().map(move |&v| (u as VertexId, v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Every reachable `(s, t)` with `s ∈ S`, `t ∈ T`, sorted; reflexive.
    pub fn answer(&mut self, query: &SetQuery) -> Pairs {
        let mut pairs = Pairs::new();
        for &s in &query.sources {
            self.epoch += 1;
            let epoch = self.epoch;
            self.stamp[s as usize] = epoch;
            self.queue.clear();
            self.queue.push(s);
            let mut head = 0;
            while head < self.queue.len() {
                let u = self.queue[head];
                head += 1;
                for &v in &self.adj[u as usize] {
                    if self.stamp[v as usize] != epoch {
                        self.stamp[v as usize] = epoch;
                        self.queue.push(v);
                    }
                }
            }
            for &t in &query.targets {
                if self.stamp[t as usize] == epoch {
                    pairs.push((s, t));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

/// Compares program answers with oracle answers and records the outcome.
/// With `plant` set, the first compared answer gets a pair it cannot
/// contain, to prove that a wrong answer fails the run.
pub struct Checker {
    pub plant: bool,
}

impl Checker {
    pub fn check(
        &mut self,
        tally: &mut Tally,
        what: &str,
        got: &[(VertexId, VertexId)],
        want: &[(VertexId, VertexId)],
    ) {
        tally.checked += 1;
        let planted;
        let got = if std::mem::take(&mut self.plant) {
            planted = [got, &[(VertexId::MAX, VertexId::MAX)]].concat();
            &planted[..]
        } else {
            got
        };
        if !same(got, want) {
            tally.mismatch(&format!(
                "{what}: program gave {} pairs, oracle {}",
                got.len(),
                want.len()
            ));
        }
    }
}

/// Order-insensitive equality of two pair lists.
pub fn same(a: &[(VertexId, VertexId)], b: &[(VertexId, VertexId)]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// FNV-1a digest of a batch's answers (the engine returns each answer
/// sorted, so equal answers give equal digests).
pub fn checksum(results: &[Pairs]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, pairs) in results.iter().enumerate() {
        for &(s, t) in pairs {
            for x in [i as u64, s as u64, t as u64] {
                h ^= x;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}
