//! Construction of the retrieval flow network (paper Figures 3 and 4).
//!
//! For a query `Q` over a system of `N` disks, the network has
//! `|Q| + N + 2` vertices:
//!
//! ```text
//! vertex 0            source s
//! vertices 1..=|Q|    one per requested bucket
//! vertices |Q|+1..=|Q|+N   one per disk
//! vertex |Q|+N+1      sink t
//! ```
//!
//! Edges: `s → bucket_i` with capacity 1; `bucket_i → disk_j` with
//! capacity 1 for every disk `j` holding a replica of bucket `i`; and
//! `disk_j → t` whose capacity encodes the response-time budget — the only
//! capacities the retrieval algorithms mutate.

use crate::fault::HealthMap;
use rds_decluster::allocation::ReplicaSource;
use rds_decluster::query::Bucket;
use rds_flow::graph::{ArenaIndex, EdgeId, FlowGraph, VertexId};
use rds_storage::model::{Disk, SystemConfig};
use rds_storage::time::Micros;

/// A bucket with no replica to read: every replica sits on a failed disk
/// (retrieval is impossible until a disk recovers), or the bucket lies
/// off the allocation's grid and has no replica at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnavailableBucket {
    /// The unreachable bucket.
    pub bucket: Bucket,
}

impl UnavailableBucket {
    /// The solve-level form of this failure: a query of `required`
    /// buckets is infeasible at this bucket.
    pub(crate) fn infeasible(self, required: usize) -> crate::error::SolveError {
        crate::error::SolveError::Infeasible {
            bucket: Some(self.bucket),
            delivered: 0,
            required: required as i64,
        }
    }
}

/// Rejects the first of `buckets` whose row or column is at least
/// `alloc.grid_size()`. Such a bucket has no replica, and a table-backed
/// allocation must never be indexed with it.
pub(crate) fn check_on_grid<A: ReplicaSource + ?Sized>(
    alloc: &A,
    buckets: &[Bucket],
) -> Result<(), UnavailableBucket> {
    let n = alloc.grid_size();
    match buckets
        .iter()
        .find(|b| b.row as usize >= n || b.col as usize >= n)
    {
        Some(&bucket) => Err(UnavailableBucket { bucket }),
        None => Ok(()),
    }
}

impl std::fmt::Display for UnavailableBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bucket {} has no surviving replica", self.bucket)
    }
}

impl std::error::Error for UnavailableBucket {}

/// An immutable template of one retrieval problem: the flow network plus
/// the disk parameters needed to translate time budgets into capacities.
///
/// Solvers clone the embedded graph and mutate the clone, so one instance
/// can be solved by many algorithms (and the results compared).
#[derive(Clone, Debug)]
pub struct RetrievalInstance {
    /// The flow network with all disk-edge capacities set to 0.
    pub graph: FlowGraph,
    /// The requested buckets, in bucket-vertex order.
    pub buckets: Vec<Bucket>,
    /// Per-disk parameters (global disk index order).
    pub disks: Vec<Disk>,
    /// `disk_edges[j]` is the `disk_j → t` edge.
    pub disk_edges: Vec<EdgeId>,
    /// `bucket_edges[i]` is the `s → bucket_i` edge.
    pub bucket_edges: Vec<EdgeId>,
    /// Number of query buckets with a replica on each disk — the
    /// `in_degree` consulted by `IncrementMinCost` (Algorithm 3).
    pub replicas_per_disk: Vec<u64>,
    /// Maximum replica count of any bucket (the `c` of the complexity
    /// bounds).
    pub max_copies: usize,
    /// Replica arcs deactivated (capacity zeroed) by
    /// [`RetrievalInstance::patch_buckets`] since the last full rebuild.
    /// Dead arcs cost a little on every adjacency walk, so once they
    /// outnumber the live arcs ([`RetrievalInstance::needs_compaction`])
    /// callers should rebuild instead of patching further.
    pub dead_arcs: usize,
}

impl RetrievalInstance {
    /// Builds the retrieval network for `buckets` under `alloc` on
    /// `system`.
    ///
    /// # Panics
    ///
    /// Panics if the allocation addresses more disks than the system has,
    /// or any bucket has no replica or lies off the allocation's grid.
    pub fn build<A: ReplicaSource + ?Sized>(
        system: &SystemConfig,
        alloc: &A,
        buckets: &[Bucket],
    ) -> RetrievalInstance {
        Self::build_with_failed_disks(system, alloc, buckets, &[])
            .expect("no disks failed, every bucket has a replica")
    }

    /// Like [`RetrievalInstance::build`], but treats the disks in `failed`
    /// as unavailable: no replica edge is created to them and their sink
    /// edge never receives capacity, so the schedule routes around them —
    /// the fault-tolerance benefit of replication the paper's introduction
    /// highlights.
    ///
    /// Returns `Err` with the first bucket whose replicas are *all* on
    /// failed disks (retrieval impossible).
    pub fn build_with_failed_disks<A: ReplicaSource + ?Sized>(
        system: &SystemConfig,
        alloc: &A,
        buckets: &[Bucket],
        failed: &[usize],
    ) -> Result<RetrievalInstance, UnavailableBucket> {
        Self::build_with_health(system, alloc, buckets, &HealthMap::with_offline(failed))
    }

    /// Builds the retrieval network under a full [`HealthMap`]: offline
    /// disks are pruned exactly like `failed` disks in
    /// [`RetrievalInstance::build_with_failed_disks`], and degraded disks
    /// enter the instance with their cost `C_j` and initial load `X_j`
    /// inflated by their load factor — every solver then transparently
    /// plans around the faults.
    ///
    /// Returns `Err` with the first bucket whose replicas are *all*
    /// offline or that lies off the allocation's grid (retrieval
    /// impossible).
    pub fn build_with_health<A: ReplicaSource + ?Sized>(
        system: &SystemConfig,
        alloc: &A,
        buckets: &[Bucket],
        health: &HealthMap,
    ) -> Result<RetrievalInstance, UnavailableBucket> {
        let q = buckets.len();
        let n = system.num_disks();
        let mut inst = RetrievalInstance {
            graph: FlowGraph::with_capacity(q + n + 2, q * 3 + n),
            buckets: Vec::new(),
            disks: Vec::new(),
            disk_edges: Vec::new(),
            bucket_edges: Vec::new(),
            replicas_per_disk: Vec::new(),
            max_copies: 0,
            dead_arcs: 0,
        };
        inst.rebuild_with_health(system, alloc, buckets, health)?;
        Ok(inst)
    }

    /// Rebuilds this instance **in place** for a new query over the same
    /// (or a different) system, reusing every buffer — the graph's
    /// adjacency lists, the bucket/edge index vectors — instead of
    /// allocating a fresh instance. This is what lets a
    /// [`crate::session::RetrievalSession`] submit thousands of queries
    /// without per-query allocation.
    ///
    /// Semantically identical to [`RetrievalInstance::build`]: afterwards
    /// the instance is indistinguishable from a freshly built one. A
    /// bucket with no replica, or off the allocation's grid, is `Err`.
    ///
    /// # Panics
    ///
    /// Panics if the allocation addresses more disks than the system has.
    pub fn rebuild_in<A: ReplicaSource + ?Sized>(
        &mut self,
        system: &SystemConfig,
        alloc: &A,
        buckets: &[Bucket],
    ) -> Result<(), UnavailableBucket> {
        self.rebuild_with_health(system, alloc, buckets, &HealthMap::all_healthy())
    }

    /// In-place variant of [`RetrievalInstance::build_with_failed_disks`];
    /// see [`RetrievalInstance::rebuild_in`]. On `Err` the instance is left
    /// in an unspecified (but safe) state and must be rebuilt before use.
    pub fn rebuild_with_failed_disks<A: ReplicaSource + ?Sized>(
        &mut self,
        system: &SystemConfig,
        alloc: &A,
        buckets: &[Bucket],
        failed: &[usize],
    ) -> Result<(), UnavailableBucket> {
        self.rebuild_with_health(system, alloc, buckets, &HealthMap::with_offline(failed))
    }

    /// In-place variant of [`RetrievalInstance::build_with_health`]; see
    /// [`RetrievalInstance::rebuild_in`]. On `Err` the instance is left in
    /// an unspecified (but safe) state and must be rebuilt before use.
    pub fn rebuild_with_health<A: ReplicaSource + ?Sized>(
        &mut self,
        system: &SystemConfig,
        alloc: &A,
        buckets: &[Bucket],
        health: &HealthMap,
    ) -> Result<(), UnavailableBucket> {
        assert!(
            alloc.num_disks() <= system.num_disks(),
            "allocation addresses {} disks but the system has {}",
            alloc.num_disks(),
            system.num_disks()
        );
        check_on_grid(alloc, buckets)?;
        let q = buckets.len();
        let n = system.num_disks();
        // Vertex ids are implicit: 0 = source, 1..=q buckets, q+1..=q+n
        // disks, q+n+1 sink.
        let source = 0;
        let sink = q + n + 1;
        self.graph.reset(q + n + 2);
        // Upper bound on the arc count: one source arc plus at most
        // MAX_COPIES replica arcs per bucket, one sink arc per disk. A cold
        // build then allocates each arena array once instead of doubling.
        self.graph
            .reserve_edges(q * (1 + rds_decluster::allocation::MAX_COPIES) + n);
        self.buckets.clear();
        self.buckets.extend_from_slice(buckets);
        self.disks.clear();
        if health.all_up() {
            self.disks.extend_from_slice(system.disks());
        } else {
            // Degraded disks enter the instance with scaled parameters, so
            // every downstream capacity/completion computation sees the
            // slowdown without any solver changes.
            self.disks.extend(
                system
                    .disks()
                    .iter()
                    .enumerate()
                    .map(|(j, d)| health.apply(j, d)),
            );
        }
        self.bucket_edges.clear();
        self.disk_edges.clear();
        self.replicas_per_disk.clear();
        self.replicas_per_disk.resize(n, 0);
        self.max_copies = 0;
        self.dead_arcs = 0;

        // One copy-on-write check of the topology plane for the whole
        // build instead of one per edge.
        let mut graph = self.graph.appender();
        for (i, &b) in buckets.iter().enumerate() {
            self.bucket_edges.push(graph.add_edge(source, 1 + i, 1));
            let reps = alloc.replicas(b);
            if reps.is_empty() {
                return Err(UnavailableBucket { bucket: b });
            }
            self.max_copies = self.max_copies.max(reps.len());
            // Deduplicate replica disks (a bucket stored twice on one disk
            // still needs only one retrieval path).
            let mut seen = [usize::MAX; rds_decluster::allocation::MAX_COPIES];
            let mut seen_len = 0;
            let mut available = 0;
            for d in reps.iter() {
                assert!(d < n, "replica disk {d} out of range for {n} disks");
                if health.is_offline(d) {
                    continue;
                }
                available += 1;
                if !seen[..seen_len].contains(&d) {
                    seen[seen_len] = d;
                    seen_len += 1;
                    graph.add_edge(1 + i, q + 1 + d, 1);
                    self.replicas_per_disk[d] += 1;
                }
            }
            if available == 0 {
                return Err(UnavailableBucket { bucket: b });
            }
        }
        self.disk_edges
            .extend((0..n).map(|j| graph.add_edge(q + 1 + j, sink, 0)));
        self.graph.finalize();
        Ok(())
    }

    /// Patches this instance **in place** from its current bucket set to
    /// `buckets`, preserving the vertex layout and every existing edge id —
    /// the delta counterpart of [`RetrievalInstance::rebuild_in`] that
    /// keeps a warm flow loadable.
    ///
    /// Requirements (checked): `buckets` has the same length as the
    /// current query, so bucket/disk vertex ids are unchanged. The health
    /// map must be the one the instance was built under (replica pruning
    /// is reproduced for the new buckets only).
    ///
    /// Slots are aligned by bucket *identity*, not position: a bucket
    /// present in both queries keeps its old slot (and its warm flow),
    /// regardless of where it appears in `buckets` — so afterwards
    /// `self.buckets` is a permutation of the request. For every slot
    /// whose bucket changed, the old replica arcs are deactivated
    /// (capacity zeroed, counted in [`RetrievalInstance::dead_arcs`]) and
    /// fresh arcs for the new bucket's surviving replicas are appended.
    /// `changed` receives the patched slot indices. Returns `Err` if a
    /// new bucket has no surviving replica or lies off the allocation's
    /// grid; the instance is then in an unspecified (but safe) state and
    /// must be rebuilt before use — same contract as
    /// [`RetrievalInstance::rebuild_with_health`].
    pub fn patch_buckets<A: ReplicaSource + ?Sized>(
        &mut self,
        alloc: &A,
        buckets: &[Bucket],
        health: &HealthMap,
        changed: &mut Vec<usize>,
    ) -> Result<(), UnavailableBucket> {
        assert_eq!(
            buckets.len(),
            self.query_size(),
            "patch_buckets requires an equal-size query (vertex layout is |Q|-dependent)"
        );
        check_on_grid(alloc, buckets)?;
        let q = self.query_size();
        let n = self.num_disks();
        changed.clear();
        // Match surviving buckets to their old slots (multiset matching —
        // duplicate buckets each claim one slot).
        let mut claimed = vec![false; q];
        let mut incoming = Vec::new();
        for &b in buckets {
            match (0..q).find(|&j| !claimed[j] && self.buckets[j] == b) {
                Some(j) => claimed[j] = true,
                None => incoming.push(b),
            }
        }
        // Pass 1: deactivate the old arcs of every changed slot. Reads the
        // adjacency index, which stays valid because no arc is appended
        // until pass 2 (appending marks the CSR index stale).
        for (i, kept) in claimed.into_iter().enumerate() {
            if kept {
                continue;
            }
            changed.push(i);
            let v = self.bucket_vertex(i);
            for idx in 0..self.graph.out_edges(v).len() {
                let e = self.graph.out_edges(v)[idx] as EdgeId;
                if e.is_multiple_of(2) && self.graph.cap(e) > 0 {
                    let d = self.disk_of_vertex(self.graph.target(e));
                    self.graph.set_cap(e, 0);
                    self.replicas_per_disk[d] -= 1;
                    self.dead_arcs += 1;
                }
            }
        }
        // Pass 2: attach the new buckets' surviving replicas. Slots are
        // processed in the same ascending order incoming buckets were
        // drained in before, so edge-id assignment is unchanged.
        let mut incoming = incoming.into_iter();
        for &i in changed.iter() {
            let b = incoming
                .next()
                .expect("equal sizes: one bucket per free slot");
            let v = self.bucket_vertex(i);
            let reps = alloc.replicas(b);
            if reps.is_empty() {
                return Err(UnavailableBucket { bucket: b });
            }
            self.max_copies = self.max_copies.max(reps.len());
            let mut seen = [usize::MAX; rds_decluster::allocation::MAX_COPIES];
            let mut seen_len = 0;
            let mut available = 0;
            for d in reps.iter() {
                assert!(d < n, "replica disk {d} out of range for {n} disks");
                if health.is_offline(d) {
                    continue;
                }
                available += 1;
                if !seen[..seen_len].contains(&d) {
                    seen[seen_len] = d;
                    seen_len += 1;
                    self.graph.add_edge(v, q + 1 + d, 1);
                    self.replicas_per_disk[d] += 1;
                }
            }
            if available == 0 {
                return Err(UnavailableBucket { bucket: b });
            }
            self.buckets[i] = b;
        }
        self.graph.finalize();
        Ok(())
    }

    /// Whether deactivated arcs have accumulated past the live arc count,
    /// at which point a full rebuild beats further patching.
    pub fn needs_compaction(&self) -> bool {
        let live: u64 = self.replicas_per_disk.iter().sum();
        self.dead_arcs as u64 > live.max(1)
    }

    /// Query size `|Q|`.
    #[inline]
    pub fn query_size(&self) -> usize {
        self.buckets.len()
    }

    /// Number of disks `N`.
    #[inline]
    pub fn num_disks(&self) -> usize {
        self.disks.len()
    }

    /// Source vertex id.
    #[inline]
    pub fn source(&self) -> VertexId {
        0
    }

    /// Sink vertex id.
    #[inline]
    pub fn sink(&self) -> VertexId {
        self.query_size() + self.num_disks() + 1
    }

    /// Vertex id of bucket `i`.
    #[inline]
    pub fn bucket_vertex(&self, i: usize) -> VertexId {
        1 + i
    }

    /// Vertex id of disk `j`.
    #[inline]
    pub fn disk_vertex(&self, j: usize) -> VertexId {
        1 + self.query_size() + j
    }

    /// Disk index of a disk vertex.
    #[inline]
    pub fn disk_of_vertex(&self, v: VertexId) -> usize {
        debug_assert!(v > self.query_size() && v <= self.query_size() + self.num_disks());
        v - 1 - self.query_size()
    }

    /// Sets every disk-edge capacity to the number of buckets the disk can
    /// serve within budget `t` (Algorithm 6, lines 14-15 and 40-41).
    pub fn set_caps_for_budget<W: ArenaIndex>(&self, g: &mut FlowGraph<W>, t: Micros) {
        for (j, &e) in self.disk_edges.iter().enumerate() {
            g.set_cap(e, self.disks[j].capacity_within(t) as i64);
        }
    }

    /// The response time implied by the flow currently in `g`: the maximum
    /// completion time over disks retrieving at least one bucket.
    pub fn response_time_of_flow<W: ArenaIndex>(&self, g: &FlowGraph<W>) -> Micros {
        self.disk_edges
            .iter()
            .enumerate()
            .filter_map(|(j, &e)| {
                let k = g.flow(e);
                (k > 0).then(|| self.disks[j].completion_time(k as u64))
            })
            .max()
            .unwrap_or(Micros::ZERO)
    }

    /// The initial binary-search bounds of Algorithm 6 (lines 1-11):
    /// returns `(t_min, t_max, min_speed)` with `t_max` feasible and
    /// `t_min` strictly below the optimum.
    pub fn budget_bounds(&self) -> (Micros, Micros, Micros) {
        let q = self.query_size() as u64;
        let n = self.num_disks() as u64;
        let mut t_max = Micros::ZERO;
        let mut t_min = Micros::MAX;
        let mut min_speed = Micros::MAX;
        for d in &self.disks {
            let all_here = d.completion_time(q);
            if all_here > t_max {
                t_max = all_here;
            }
            // floor(q*C/N) keeps the bound a true lower bound in integer
            // arithmetic (Algorithm 6 line 7-8 uses |Q|/N * C).
            let fair_share = d.overhead() + Micros(d.cost().as_micros() * q / n.max(1));
            if fair_share < t_min {
                t_min = fair_share;
            }
            if d.cost() < min_speed {
                min_speed = d.cost();
            }
        }
        // Ensure t_min is infeasible (Algorithm 6 line 11).
        t_min = t_min.saturating_sub(min_speed);
        (t_min, t_max, min_speed)
    }

    /// Warm-started binary-search bounds: sharpens
    /// [`RetrievalInstance::budget_bounds`] on both ends while keeping its
    /// contract (`t_min` strictly below the optimum, `t_max` at or above
    /// it), so the binary phase starts with a much narrower bracket.
    ///
    /// * Lower bound: every bucket must be fetched from one of its
    ///   replicas, so the optimum is at least the largest, over buckets,
    ///   of the cheapest single-bucket completion among that bucket's
    ///   replicas.
    /// * Upper bound: a greedy pass assigns each bucket to the replica
    ///   with the cheapest next completion time; the resulting makespan
    ///   is the response time of a feasible schedule, hence a true upper
    ///   bound — usually far below `budget_bounds`' "slowest disk serves
    ///   everything" fallback.
    ///
    /// `scratch` holds the greedy per-disk counters; its contents are
    /// overwritten, only the allocation is reused.
    pub fn tightened_bounds(&self, scratch: &mut Vec<i64>) -> (Micros, Micros, Micros) {
        let (mut t_min, mut t_max, min_speed) = self.budget_bounds();
        if self.query_size() == 0 {
            return (t_min, t_max, min_speed);
        }
        scratch.clear();
        scratch.resize(self.num_disks(), 0);
        let mut greedy_makespan = Micros::ZERO;
        let mut per_bucket = Micros::ZERO;
        for i in 0..self.query_size() {
            let v = self.bucket_vertex(i);
            let mut best_next = Micros::MAX;
            let mut best_disk = usize::MAX;
            let mut best_single = Micros::MAX;
            for &e in self.graph.out_edges(v) {
                if e % 2 != 0 || self.graph.cap(e as usize) == 0 {
                    continue; // reverse slot of the source edge, or a
                              // replica arc deactivated by `patch_buckets`
                }
                let j = self.disk_of_vertex(self.graph.target(e as usize));
                let next = self.disks[j].completion_time(scratch[j] as u64 + 1);
                if next < best_next {
                    best_next = next;
                    best_disk = j;
                }
                let single = self.disks[j].completion_time(1);
                if single < best_single {
                    best_single = single;
                }
            }
            if best_disk != usize::MAX {
                scratch[best_disk] += 1;
                greedy_makespan = greedy_makespan.max(best_next);
                per_bucket = per_bucket.max(best_single);
            }
        }
        if greedy_makespan > Micros::ZERO && greedy_makespan < t_max {
            t_max = greedy_makespan;
        }
        t_min = t_min.max(per_bucket.saturating_sub(min_speed));
        (t_min, t_max, min_speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_storage::experiments::paper_example;
    use rds_storage::specs::CHEETAH;

    fn paper_instance() -> RetrievalInstance {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let q1 = RangeQuery::new(0, 0, 3, 2);
        RetrievalInstance::build(&system, &alloc, &q1.buckets(7))
    }

    #[test]
    fn structure_matches_figure_4() {
        let inst = paper_instance();
        // |Q| + N + 2 vertices: 6 + 14 + 2 = 22.
        assert_eq!(inst.graph.num_vertices(), 22);
        assert_eq!(inst.query_size(), 6);
        assert_eq!(inst.num_disks(), 14);
        assert_eq!(inst.sink(), 21);
        // 6 source edges + 12 replica edges (2 copies each) + 14 disk edges.
        assert_eq!(inst.graph.num_edges(), 6 + 12 + 14);
        // Source edges have capacity 1, disk edges start at 0.
        for &e in &inst.bucket_edges {
            assert_eq!(inst.graph.cap(e), 1);
        }
        for &e in &inst.disk_edges {
            assert_eq!(inst.graph.cap(e), 0);
        }
    }

    #[test]
    fn replica_counts_cover_query() {
        let inst = paper_instance();
        let total: u64 = inst.replicas_per_disk.iter().sum();
        assert_eq!(total, 12, "6 buckets × 2 copies");
        assert_eq!(inst.max_copies, 2);
    }

    #[test]
    fn set_caps_for_budget_uses_cost_model() {
        let inst = paper_instance();
        let mut g = inst.graph.clone();
        // Budget 11.3 ms: site-1 disks (8.3ms cost, 3ms overhead) fit 1;
        // fast site-2 disks (6.1ms, 1ms) also 1; slow (13.2ms, 1ms) fit 0.
        inst.set_caps_for_budget(&mut g, Micros::from_tenths_ms(113));
        assert_eq!(g.cap(inst.disk_edges[0]), 1);
        assert_eq!(g.cap(inst.disk_edges[7]), 1);
        assert_eq!(g.cap(inst.disk_edges[9]), 0);
    }

    #[test]
    fn budget_bounds_bracket_optimum() {
        let inst = paper_instance();
        let (t_min, t_max, min_speed) = inst.budget_bounds();
        assert!(t_min < t_max);
        assert_eq!(min_speed, Micros::from_tenths_ms(61));
        // t_max: slowest disk retrieving everything: 1 + 0 + 6*13.2 = 80.2ms.
        assert_eq!(t_max, Micros::from_tenths_ms(802));
        // At t_max every disk can hold all 6 buckets.
        let mut g = inst.graph.clone();
        inst.set_caps_for_budget(&mut g, t_max);
        for (j, &e) in inst.disk_edges.iter().enumerate() {
            assert!(g.cap(e) >= 6, "disk {j} cap {}", g.cap(e));
        }
    }

    #[test]
    fn tightened_bounds_bracket_optimum_and_shrink_the_range() {
        use crate::pr::PushRelabelBinary;
        use crate::solver::RetrievalSolver;

        let inst = paper_instance();
        let optimum = PushRelabelBinary.solve(&inst).unwrap().response_time;
        let (t_min, t_max, min_speed) = inst.budget_bounds();
        let mut scratch = Vec::new();
        let (s_min, s_max, s_speed) = inst.tightened_bounds(&mut scratch);
        assert_eq!(s_speed, min_speed);
        // Still a valid bracket: strictly below the optimum from below,
        // at-or-above it from above.
        assert!(s_min < optimum, "{s_min:?} !< {optimum:?}");
        assert!(s_max >= optimum, "{s_max:?} < {optimum:?}");
        // And never looser than the plain Algorithm 6 bounds.
        assert!(s_min >= t_min && s_max <= t_max);
        // The greedy upper bound is far below "slowest disk serves all".
        assert!(s_max < t_max, "{s_max:?} vs {t_max:?}");
    }

    #[test]
    fn tightened_bounds_handle_empty_query() {
        let system = rds_storage::model::SystemConfig::homogeneous(CHEETAH, 4);
        let alloc = OrthogonalAllocation::new(4, rds_decluster::allocation::Placement::SingleSite);
        let inst = RetrievalInstance::build(&system, &alloc, &[]);
        let mut scratch = Vec::new();
        assert_eq!(inst.tightened_bounds(&mut scratch), inst.budget_bounds());
    }

    #[test]
    fn response_time_of_flow_takes_slowest_used_disk() {
        let inst = paper_instance();
        let mut g = inst.graph.clone();
        inst.set_caps_for_budget(&mut g, Micros::from_millis(100));
        // Push 2 buckets to disk 0 (completion 3 + 2*8.3 = 19.6ms) and one
        // to disk 7 (1 + 6.1 = 7.1ms) by hand.
        g.push(inst.disk_edges[0], 2);
        g.push(inst.disk_edges[7], 1);
        assert_eq!(inst.response_time_of_flow(&g), Micros::from_tenths_ms(196));
    }

    #[test]
    fn empty_query_builds() {
        let system = rds_storage::model::SystemConfig::homogeneous(CHEETAH, 4);
        let alloc = OrthogonalAllocation::new(4, rds_decluster::allocation::Placement::SingleSite);
        let inst = RetrievalInstance::build(&system, &alloc, &[]);
        assert_eq!(inst.query_size(), 0);
        assert_eq!(inst.response_time_of_flow(&inst.graph), Micros::ZERO);
    }

    #[test]
    #[should_panic(expected = "allocation addresses")]
    fn oversized_allocation_rejected() {
        let system = rds_storage::model::SystemConfig::homogeneous(CHEETAH, 4);
        let alloc = OrthogonalAllocation::paper_7x7(); // 14 disks
        RetrievalInstance::build(&system, &alloc, &[Bucket::new(0, 0)]);
    }

    #[test]
    fn failed_disks_are_routed_around() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let q = RangeQuery::new(0, 0, 3, 2);
        let buckets = q.buckets(7);
        // Fail the entire fast half of site 2.
        let failed = [7usize, 8, 10, 13];
        let inst = RetrievalInstance::build_with_failed_disks(&system, &alloc, &buckets, &failed)
            .expect("site 1 still holds every bucket");
        for &d in &failed {
            assert_eq!(inst.replicas_per_disk[d], 0, "failed disk {d} unused");
        }
        use crate::pr::PushRelabelBinary;
        use crate::solver::RetrievalSolver;
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 6);
        for &(_, d) in outcome.schedule.assignments() {
            assert!(!failed.contains(&d), "schedule used failed disk {d}");
        }
    }

    #[test]
    fn losing_both_replicas_is_detected() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let b = Bucket::new(0, 0);
        // Both replicas of (0,0).
        let reps: Vec<usize> = rds_decluster::allocation::ReplicaSource::replicas(&alloc, b)
            .iter()
            .collect();
        let err =
            RetrievalInstance::build_with_failed_disks(&system, &alloc, &[b], &reps).unwrap_err();
        assert_eq!(err.bucket, b);
        assert!(err.to_string().contains("no surviving replica"));
    }

    #[test]
    fn rebuild_in_matches_fresh_build() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        // Start from one query, rebuild to several others (growing and
        // shrinking), checking full structural equality with a fresh build
        // each time.
        let q0 = RangeQuery::new(0, 0, 3, 2);
        let mut inst = RetrievalInstance::build(&system, &alloc, &q0.buckets(7));
        for (r, c) in [(7usize, 7usize), (1, 1), (4, 2), (2, 6)] {
            let q = RangeQuery::new(1, 1, r, c);
            let buckets = q.buckets(7);
            inst.rebuild_in(&system, &alloc, &buckets).unwrap();
            let fresh = RetrievalInstance::build(&system, &alloc, &buckets);
            assert_eq!(inst.buckets, fresh.buckets);
            assert_eq!(inst.disks, fresh.disks);
            assert_eq!(inst.disk_edges, fresh.disk_edges);
            assert_eq!(inst.bucket_edges, fresh.bucket_edges);
            assert_eq!(inst.replicas_per_disk, fresh.replicas_per_disk);
            assert_eq!(inst.max_copies, fresh.max_copies);
            assert_eq!(inst.graph.num_vertices(), fresh.graph.num_vertices());
            assert_eq!(inst.graph.num_edges(), fresh.graph.num_edges());
            for e in 0..inst.graph.num_edges() {
                assert_eq!(inst.graph.cap(e), fresh.graph.cap(e));
                assert_eq!(inst.graph.target(e), fresh.graph.target(e));
            }
        }
    }

    #[test]
    fn rebuild_after_unavailable_bucket_recovers() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let b = Bucket::new(0, 0);
        let reps: Vec<usize> = rds_decluster::allocation::ReplicaSource::replicas(&alloc, b)
            .iter()
            .collect();
        let q0 = RangeQuery::new(0, 0, 2, 2);
        let mut inst = RetrievalInstance::build(&system, &alloc, &q0.buckets(7));
        // A failed rebuild leaves the instance unusable but safe...
        assert!(inst
            .rebuild_with_failed_disks(&system, &alloc, &[b], &reps)
            .is_err());
        // ...and a subsequent successful rebuild fully restores it.
        let buckets = q0.buckets(7);
        inst.rebuild_in(&system, &alloc, &buckets).unwrap();
        let fresh = RetrievalInstance::build(&system, &alloc, &buckets);
        assert_eq!(inst.graph.num_edges(), fresh.graph.num_edges());
        assert_eq!(inst.buckets, fresh.buckets);
    }

    #[test]
    fn patch_buckets_matches_fresh_build_results() {
        use crate::pr::PushRelabelBinary;
        use crate::solver::RetrievalSolver;

        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let health = HealthMap::all_healthy();
        let q0 = RangeQuery::new(0, 0, 2, 3);
        let mut inst = RetrievalInstance::build(&system, &alloc, &q0.buckets(7));
        let mut changed = Vec::new();
        // Slide the range one column at a time; each step overlaps the
        // previous query in 4 of 6 buckets.
        for col in 1..5usize {
            let q = RangeQuery::new(0, col, 2, 3);
            let buckets = q.buckets(7);
            inst.patch_buckets(&alloc, &buckets, &health, &mut changed)
                .unwrap();
            assert_eq!(changed.len(), 2, "one column of two rows changed");
            let fresh = RetrievalInstance::build(&system, &alloc, &buckets);
            // Slot alignment keeps surviving buckets in place, so the
            // patched order is a permutation of the fresh one.
            let mut got: Vec<String> = inst.buckets.iter().map(|b| b.to_string()).collect();
            let mut want: Vec<String> = fresh.buckets.iter().map(|b| b.to_string()).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want);
            assert_eq!(inst.replicas_per_disk, fresh.replicas_per_disk);
            let patched = PushRelabelBinary.solve(&inst).unwrap();
            let cold = PushRelabelBinary.solve(&fresh).unwrap();
            assert_eq!(patched.response_time, cold.response_time, "col {col}");
        }
        assert_eq!(inst.dead_arcs, 4 * 2 * 2, "2 buckets × 2 copies per step");
    }

    #[test]
    fn patch_buckets_noop_on_identical_query() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let buckets = RangeQuery::new(0, 0, 2, 2).buckets(7);
        let mut inst = RetrievalInstance::build(&system, &alloc, &buckets);
        let edges_before = inst.graph.num_edges();
        let mut changed = vec![99];
        inst.patch_buckets(&alloc, &buckets, &HealthMap::all_healthy(), &mut changed)
            .unwrap();
        assert!(changed.is_empty());
        assert_eq!(inst.graph.num_edges(), edges_before);
        assert_eq!(inst.dead_arcs, 0);
    }

    #[test]
    #[should_panic(expected = "equal-size")]
    fn patch_buckets_rejects_size_change() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let mut inst =
            RetrievalInstance::build(&system, &alloc, &RangeQuery::new(0, 0, 2, 2).buckets(7));
        let bigger = RangeQuery::new(0, 0, 3, 3).buckets(7);
        let mut changed = Vec::new();
        let _ = inst.patch_buckets(&alloc, &bigger, &HealthMap::all_healthy(), &mut changed);
    }

    #[test]
    fn repeated_patching_eventually_needs_compaction() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let health = HealthMap::all_healthy();
        let mut inst =
            RetrievalInstance::build(&system, &alloc, &RangeQuery::new(0, 0, 1, 2).buckets(7));
        assert!(!inst.needs_compaction());
        let mut changed = Vec::new();
        for step in 1..20usize {
            let buckets = RangeQuery::new(step % 6, step % 6, 1, 2).buckets(7);
            inst.patch_buckets(&alloc, &buckets, &health, &mut changed)
                .unwrap();
            if inst.needs_compaction() {
                return;
            }
        }
        panic!("dead arcs never outnumbered live arcs");
    }

    #[test]
    fn duplicate_replicas_deduplicated() {
        use rds_decluster::allocation::{ReplicaSource, Replicas};

        struct SameDisk;
        impl ReplicaSource for SameDisk {
            fn grid_size(&self) -> usize {
                2
            }
            fn num_disks(&self) -> usize {
                2
            }
            fn replicas(&self, _b: Bucket) -> Replicas {
                Replicas::from_slice(&[1, 1])
            }
        }

        let system = rds_storage::model::SystemConfig::homogeneous(CHEETAH, 2);
        let inst = RetrievalInstance::build(&system, &SameDisk, &[Bucket::new(0, 0)]);
        // 1 source edge + 1 (deduped) replica edge + 2 disk edges.
        assert_eq!(inst.graph.num_edges(), 4);
        assert_eq!(inst.replicas_per_disk, vec![0, 1]);
    }
}
