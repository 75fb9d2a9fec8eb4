//! Workload construction and solver timing.
//!
//! A *workload point* is one x-axis value of a paper figure: a grid
//! dimension `n`, an experiment (Table IV), an allocation scheme, a query
//! type and a load. The harness materializes the system, the allocation
//! and a batch of query instances, then times each solver over the batch —
//! mirroring the paper's methodology ("for each value of N, 1000 queries
//! are performed", §VI-F) with a configurable query count.

use rds_core::network::RetrievalInstance;
use rds_core::pr::PushRelabelBinary;
use rds_core::solver::RetrievalSolver;
use rds_decluster::allocation::{Placement, ReplicaMap};
use rds_decluster::load::{Load, QueryGenerator, QueryKind};
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::periodic::DependentPeriodicAllocation;
use rds_decluster::query::Query;
use rds_decluster::query::{Bucket, RangeQuery};
use rds_decluster::rda::RandomDuplicateAllocation;
use rds_storage::experiments::{experiment, ExperimentId};
use rds_storage::model::{Disk, Site, SystemConfig};
use rds_storage::time::Micros;
use std::time::Instant;

/// The three allocation schemes of §VI-A.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Random Duplicate Allocation.
    Rda,
    /// Dependent periodic allocation.
    Dependent,
    /// Orthogonal allocation.
    Orthogonal,
}

impl Scheme {
    /// All schemes in the paper's plotting order.
    pub const ALL: [Scheme; 3] = [Scheme::Rda, Scheme::Dependent, Scheme::Orthogonal];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Rda => "RDA",
            Scheme::Dependent => "Dependent",
            Scheme::Orthogonal => "Orthogonal",
        }
    }

    /// Materializes the scheme's replica map for grid dimension `n` with
    /// one copy per site (the generalized two-site setting used by every
    /// experiment in Table IV).
    pub fn build(self, n: usize, seed: u64) -> ReplicaMap {
        match self {
            Scheme::Rda => ReplicaMap::build(&RandomDuplicateAllocation::two_site(n, seed)),
            Scheme::Dependent => {
                ReplicaMap::build(&DependentPeriodicAllocation::new(n, Placement::PerSite))
            }
            Scheme::Orthogonal => {
                ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite))
            }
        }
    }
}

/// One fully materialized workload point.
pub struct Workload {
    /// Grid dimension (disks per site; the system has `2n` disks).
    pub n: usize,
    /// Prebuilt retrieval instances, one per query.
    pub instances: Vec<RetrievalInstance>,
}

impl Workload {
    /// Builds `queries` retrieval instances for the given configuration.
    /// Deterministic in `seed`.
    pub fn build(
        exp: ExperimentId,
        scheme: Scheme,
        kind: QueryKind,
        load: Load,
        n: usize,
        queries: usize,
        seed: u64,
    ) -> Workload {
        let system = experiment(exp, n, seed);
        let alloc = scheme.build(n, seed.wrapping_add(1));
        let mut gen = QueryGenerator::new(n, kind, load, seed.wrapping_add(2));
        let instances = (0..queries)
            .map(|_| {
                let q = gen.next_query();
                RetrievalInstance::build(&system, &alloc, &q.buckets(n))
            })
            .collect();
        Workload { n, instances }
    }

    /// Mean query size of the batch.
    pub fn mean_query_size(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        let total: usize = self.instances.iter().map(|i| i.query_size()).sum();
        total as f64 / self.instances.len() as f64
    }
}

/// The timing result of one solver over one workload.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Mean wall-clock solve time per query, in milliseconds.
    pub avg_runtime_ms: f64,
    /// Sum of optimal response times over the batch (the paper's
    /// cross-algorithm validation quantity).
    pub total_response: Micros,
}

/// Times `solver` over every instance of `workload`.
pub fn measure(solver: &dyn RetrievalSolver, workload: &Workload) -> Measurement {
    let mut total_response = Micros::ZERO;
    let start = Instant::now();
    for inst in &workload.instances {
        let outcome = solver
            .solve(inst)
            .expect("benchmark instances are feasible");
        total_response += outcome.response_time;
    }
    let elapsed = start.elapsed();
    Measurement {
        avg_runtime_ms: elapsed.as_secs_f64() * 1e3 / workload.instances.len().max(1) as f64,
        total_response,
    }
}

/// Query `k` of a sliding-window mix over the Table II 7x7 grid: windows
/// of `min` to `min + 2` rows and columns, so every solve does work of
/// the size the Table II experiments stress.
pub fn sliding_window(k: usize, min: usize) -> Vec<Bucket> {
    let r = min + k % 3;
    let c = min + (k / 3) % 3;
    RangeQuery::new(k % (7 - r + 1), (k / 7) % (7 - c + 1), r, c).buckets(7)
}

/// `system` as one site whose disk `j` starts `backlog(j)` busier.
pub fn with_backlog(system: &SystemConfig, backlog: impl Fn(usize) -> Micros) -> SystemConfig {
    let disks = system
        .disks()
        .iter()
        .enumerate()
        .map(|(j, d)| Disk {
            initial_load: d.initial_load + backlog(j),
            ..*d
        })
        .collect();
    SystemConfig::new(vec![Site {
        name: "loaded".to_string(),
        disks,
    }])
}

/// One stream served the way the engine served it before workspaces:
/// per query, clone the system into a copy carrying this stream's disk
/// backlog, build a fresh retrieval network and solve it with
/// [`PushRelabelBinary`] in a fresh workspace. The baseline arm of
/// `engine_speedup` and `batch_fuse`; it returns the engine's response
/// times, so either bench can assert them equal.
pub struct ClonePerSolve<'a> {
    system: &'a SystemConfig,
    alloc: &'a OrthogonalAllocation,
    busy_until: Vec<Micros>,
}

impl<'a> ClonePerSolve<'a> {
    /// A stream with idle disks.
    pub fn new(system: &'a SystemConfig, alloc: &'a OrthogonalAllocation) -> Self {
        ClonePerSolve {
            busy_until: vec![Micros::ZERO; system.num_disks()],
            system,
            alloc,
        }
    }

    /// Serves `buckets` arriving at `arrival` (non-decreasing per
    /// stream) and returns the optimal response time.
    pub fn submit(&mut self, arrival: Micros, buckets: &[Bucket]) -> Micros {
        let loaded = with_backlog(self.system, |j| self.busy_until[j].saturating_sub(arrival));
        let inst = RetrievalInstance::build(&loaded, self.alloc, buckets);
        let outcome = PushRelabelBinary.solve(&inst).expect("feasible query");
        let counts = outcome.schedule.per_disk_counts(loaded.num_disks());
        for (j, &k) in counts.iter().enumerate() {
            if k > 0 {
                let completion = arrival + loaded.disk(j).completion_time(k);
                self.busy_until[j] = self.busy_until[j].max(completion);
            }
        }
        outcome.response_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_core::engine::{BatchQuery, Engine};
    use rds_storage::experiments::paper_example;

    #[test]
    fn workload_builds_requested_queries() {
        let w = Workload::build(
            ExperimentId::Exp1,
            Scheme::Orthogonal,
            QueryKind::Range,
            Load::Load3,
            8,
            5,
            42,
        );
        assert_eq!(w.instances.len(), 5);
        assert!(w.mean_query_size() >= 1.0);
        assert!(w.instances.iter().all(|i| i.num_disks() == 16));
    }

    #[test]
    fn workload_is_deterministic() {
        let a = Workload::build(
            ExperimentId::Exp5,
            Scheme::Rda,
            QueryKind::Arbitrary,
            Load::Load2,
            6,
            3,
            7,
        );
        let b = Workload::build(
            ExperimentId::Exp5,
            Scheme::Rda,
            QueryKind::Arbitrary,
            Load::Load2,
            6,
            3,
            7,
        );
        for (x, y) in a.instances.iter().zip(&b.instances) {
            assert_eq!(x.buckets, y.buckets);
            assert_eq!(x.disks, y.disks);
        }
    }

    #[test]
    fn measure_returns_positive_time_and_consistent_response() {
        let w = Workload::build(
            ExperimentId::Exp3,
            Scheme::Dependent,
            QueryKind::Range,
            Load::Load3,
            6,
            4,
            11,
        );
        let m1 = measure(&PushRelabelBinary, &w);
        let m2 = measure(&PushRelabelBinary, &w);
        assert!(m1.avg_runtime_ms > 0.0);
        assert_eq!(m1.total_response, m2.total_response);
    }

    #[test]
    fn clone_per_solve_returns_the_engines_response_times() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        // Two streams of overlapping windows, 1 ms apart, so backlogs
        // carry from query to query.
        let queries: Vec<BatchQuery> = (0..24)
            .map(|k| BatchQuery {
                stream: k % 2,
                arrival: Micros::from_millis(k as u64 / 2),
                buckets: RangeQuery::new(k % 5, (k / 2) % 4, 2 + k % 3, 3).buckets(7),
            })
            .collect();
        let mut streams = [
            ClonePerSolve::new(&system, &alloc),
            ClonePerSolve::new(&system, &alloc),
        ];
        let baseline: Vec<Micros> = queries
            .iter()
            .map(|q| streams[q.stream].submit(q.arrival, &q.buckets))
            .collect();
        let engine: Vec<Micros> = Engine::new(&system, &alloc, PushRelabelBinary, 1)
            .submit_batch(&queries)
            .into_iter()
            .map(|r| r.expect("feasible").outcome.response_time)
            .collect();
        assert_eq!(baseline, engine);
        assert!(baseline.iter().any(|&t| t > baseline[0]), "backlog unused");
    }

    #[test]
    fn all_schemes_build() {
        for scheme in Scheme::ALL {
            let map = scheme.build(5, 1);
            assert_eq!(map.grid_size(), 5);
            assert_eq!(map.num_disks(), 10);
            assert!(!scheme.label().is_empty());
        }
    }
}
