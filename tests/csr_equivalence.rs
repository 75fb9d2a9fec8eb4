//! Layout-equivalence suite for the CSR residual arena.
//!
//! The flow graph's adjacency layout changed from per-vertex `Vec<Vec<u32>>`
//! lists to a compressed-sparse-row arena. Every solver's traversal order —
//! and therefore its exact push/relabel/augment counts — must be unchanged:
//! the CSR finalize step is a *stable* counting sort, so `out_edges(v)` must
//! enumerate exactly the edge slots the legacy layout appended, in the same
//! order (ascending slot id, since slots are allocated in insertion order).
//!
//! `GOLDEN` below is an FNV-1a digest of `(response_time, flow_value,
//! pushes, relabels, dfs_calls, probes, increments, resume_calls,
//! maxflow_calls)` for all seven `SolverKind`s over 200 seeded random
//! instances, captured on the pre-CSR adjacency-of-Vecs layout. A digest
//! mismatch means some solver visited edges in a different order than it
//! did on the legacy layout.

use rds_util::SplitMix64;
use replicated_retrieval::core::spec::{ArenaLayout, SolverKind, SolverSpec};
use replicated_retrieval::core::verify::oracle_optimal_response;
use replicated_retrieval::prelude::*;

/// Digest of per-instance outcomes on the legacy `Vec<Vec<u32>>` layout
/// (seed 0xC5A, 200 instances, all seven kinds, single-threaded parallel
/// solver). Captured before the CSR rewrite; must never drift.
const GOLDEN: u64 = 0x6ecdd97cd44fd538;

fn arb_system(n: usize, seed: u64) -> SystemConfig {
    experiment(ExperimentId::ALL[(seed % 5) as usize], n, seed)
}

fn arb_alloc(n: usize, seed: u64) -> ReplicaMap {
    match seed % 3 {
        0 => ReplicaMap::build(&RandomDuplicateAllocation::two_site(n, seed)),
        1 => ReplicaMap::build(&DependentPeriodicAllocation::new(n, Placement::PerSite)),
        _ => ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite)),
    }
}

fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The legacy layout stored, for each vertex, the edge slots it owns in
/// insertion order — which is ascending slot id, because slots are numbered
/// in the order `add_edge` allocates them. The CSR arena must present the
/// identical enumeration for traversal order (and thus operation counts)
/// to be preserved.
fn assert_legacy_adjacency_order(g: &replicated_retrieval::flow::FlowGraph) {
    let mut legacy: Vec<Vec<u32>> = vec![Vec::new(); g.num_vertices()];
    for e in 0..g.num_edge_slots() {
        legacy[g.source(e)].push(e as u32);
    }
    for (v, slots) in legacy.iter().enumerate() {
        assert_eq!(
            g.out_edges(v),
            slots.as_slice(),
            "vertex {v}: CSR adjacency differs from legacy insertion order"
        );
    }
}

/// Runs the full 200-instance × 7-kind sweep with the arena width forced
/// to `layout`, returning the FNV-1a outcome digest and the solve count.
/// Both widths must reproduce [`GOLDEN`] bit-for-bit: the monomorphized
/// `i32` arena changes only the storage width of the capacity/flow
/// arrays, never the adjacency enumeration or the traversal order.
fn layout_digest(layout: ArenaLayout) -> (u64, usize) {
    let mut rng = SplitMix64::seed_from_u64(0xC5A);
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mut solved = 0usize;
    let mut instances = 0usize;
    while instances < 200 {
        let n = rng.gen_range(3..7usize);
        let seed = rng.gen_range(0..1000u64);
        let r = rng.gen_range(1..5usize).min(n);
        let c = rng.gen_range(1..5usize).min(n);
        let row = rng.gen_range(0..n);
        let col = rng.gen_range(0..n);
        let system = arb_system(n, seed);
        let alloc = arb_alloc(n, seed.wrapping_add(3));
        let q = RangeQuery::new(row.min(n - r), col.min(n - c), r, c);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
        // FF-basic supports only the pristine uniform problem; give it an
        // Exp1 system over the same allocation and query.
        let basic_inst = RetrievalInstance::build(
            &experiment(ExperimentId::Exp1, n, seed),
            &alloc,
            &q.buckets(n),
        );
        instances += 1;

        assert_legacy_adjacency_order(&inst.graph);
        let want = oracle_optimal_response(&inst);
        let want_basic = oracle_optimal_response(&basic_inst);

        for kind in SolverKind::ALL {
            let (inst, want) = if kind == SolverKind::FordFulkersonBasic {
                (&basic_inst, want_basic)
            } else {
                (&inst, want)
            };
            // Solving via the spec (not the built `AnySolver`) is what
            // carries the forced arena layout into the workspace.
            let spec = SolverSpec::new(kind).arena_layout(layout);
            let a = spec.solve(inst).expect("feasible instance");
            let b = spec.solve(inst).expect("feasible instance");
            assert_eq!(a.response_time, want, "{} lost optimality", kind.name());
            assert_eq!(a.response_time, b.response_time);
            assert_eq!(a.stats, b.stats, "{} solve not deterministic", kind.name());
            assert_eq!(
                a.stats.arena_layout,
                layout,
                "{} ran the wrong width",
                kind.name()
            );
            for word in [
                a.response_time.0,
                a.flow_value,
                a.stats.pushes,
                a.stats.relabels,
                a.stats.dfs_calls,
                a.stats.probes,
                a.stats.increments,
                a.stats.resume_calls,
                a.stats.maxflow_calls,
            ] {
                digest = fnv1a(digest, word);
            }
            solved += 1;
        }
    }
    (digest, solved)
}

/// Digest of paper-scale outcomes: Experiment 5 systems with Orthogonal
/// allocation at N = 60 and N = 100, Load 1 arbitrary queries (each
/// bucket with probability ½, 1,800 and 5,000 buckets), solved by the
/// four kinds whose work grows with adjacency length — Algorithm 6 on
/// both discharges, the black-box binary search and the incremental
/// Ford-Fulkerson — under both arena widths. Covers `(response_time,
/// pushes, relabels, probes, increments, resume_calls)` and the full
/// bucket → disk assignment of every solve. Captured on the id-major
/// arena, before the position-major rewrite; must never drift.
const PAPER_GOLDEN: u64 = 0x5edb733859840bbd;

/// Experiment 5 instances at the paper's scale, where adjacency lists run
/// to hundreds of slots (the GOLDEN grids above stop at a few): disks own
/// one slot per stored query bucket and the source one per bucket.
fn paper_scale_instances() -> Vec<RetrievalInstance> {
    let mut out = Vec::new();
    for (n, seed, queries) in [(60usize, 0x005E_ED60_u64, 2usize), (100, 0x05EE_D100, 1)] {
        let system = experiment(ExperimentId::Exp5, n, seed);
        let alloc = ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite));
        let mut gen = QueryGenerator::new(n, QueryKind::Arbitrary, Load::Load1, seed ^ 0xA11);
        for _ in 0..queries {
            let buckets = gen.next_query().buckets(n);
            out.push(RetrievalInstance::build(&system, &alloc, &buckets));
        }
    }
    out
}

/// Every decision of the paper-scale solves, digested: op counts,
/// response times and assignments for each (instance, kind, width).
#[test]
fn paper_scale_decisions_match_the_id_major_arena() {
    let kinds = [
        SolverKind::PushRelabelBinary,
        SolverKind::ParallelPushRelabelBinary,
        SolverKind::BlackBoxPushRelabel,
        SolverKind::FordFulkersonIncremental,
    ];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for inst in paper_scale_instances() {
        let mut response = None;
        for layout in [ArenaLayout::Wide, ArenaLayout::Compact] {
            for kind in kinds {
                let out = SolverSpec::new(kind)
                    .arena_layout(layout)
                    .solve(&inst)
                    .expect("paper-scale instances are feasible");
                assert_eq!(out.stats.arena_layout, layout);
                assert_eq!(
                    *response.get_or_insert(out.response_time),
                    out.response_time,
                    "{} disagrees on the optimum",
                    kind.name()
                );
                for word in [
                    out.response_time.0,
                    out.stats.pushes,
                    out.stats.relabels,
                    out.stats.probes,
                    out.stats.increments,
                    out.stats.resume_calls,
                ] {
                    digest = fnv1a(digest, word);
                }
                for &(b, disk) in out.schedule.assignments() {
                    digest = fnv1a(digest, (b.row as u64) << 32 | b.col as u64);
                    digest = fnv1a(digest, disk as u64);
                }
            }
        }
    }
    assert_eq!(
        digest, PAPER_GOLDEN,
        "paper-scale outcome digest drifted: got {digest:#x}"
    );
}

/// CSR and legacy traversal orders yield identical max-flow values and
/// identical `SolveStats` operation counts for all seven `SolverKind`s on
/// 200 random instances, on the wide (`i64`) arena.
#[test]
fn all_solver_kinds_match_legacy_layout_on_random_instances() {
    let (digest, solved) = layout_digest(ArenaLayout::Wide);
    assert_eq!(solved, 200 * SolverKind::ALL.len());
    assert_eq!(
        digest, GOLDEN,
        "wide-arena outcome digest drifted from the legacy layout: got {digest:#x}"
    );
}

/// The compact (`i32`) arena reproduces the identical golden digest: width
/// monomorphization must not perturb traversal order or operation counts.
#[test]
fn compact_arena_matches_legacy_layout_digest() {
    let (digest, solved) = layout_digest(ArenaLayout::Compact);
    assert_eq!(solved, 200 * SolverKind::ALL.len());
    assert_eq!(
        digest, GOLDEN,
        "compact-arena outcome digest drifted from the legacy layout: got {digest:#x}"
    );
}
