//! Layout-equivalence suite for the CSR residual arena.
//!
//! The flow graph's adjacency layout changed from per-vertex `Vec<Vec<u32>>`
//! lists to a compressed-sparse-row arena. Every solver's traversal order —
//! and therefore its exact push/relabel/augment counts — must be unchanged:
//! the CSR finalize step is a *stable* counting sort, so `out_edges(v)` must
//! enumerate exactly the edge slots the legacy layout appended, in the same
//! order (ascending slot id, since slots are allocated in insertion order).
//!
//! `GOLDEN_BY_KIND` below holds, per `SolverKind`, an FNV-1a digest of
//! `(response_time, flow_value, pushes, relabels, dfs_calls, probes,
//! increments, resume_calls, maxflow_calls)` over 200 seeded random
//! instances; the words are those of a combined digest captured on the
//! pre-CSR adjacency-of-Vecs layout. A digest mismatch means that solver
//! visited edges in a different order than it did on the legacy layout.
//!
//! `GOLDEN_BY_KIND` and `PAPER_GOLDEN_BY_KIND` hold one FNV-1a chain per
//! kind. Every solve runs in a fresh `Workspace` (`SolverSpec::solve`),
//! so no kind's digest depends on another kind's, and a kind can leave
//! the suite without disturbing the others' values.
//!
//! `SEARCH_GOLDEN_BY_KIND` pins what the two digests above leave out:
//! budget-expired and warm-resumed solves, the anytime bookkeeping, and
//! the order of every trace event a solve emits.

use rds_util::SplitMix64;
use replicated_retrieval::core::spec::{ArenaLayout, SolverKind, SolverSpec};
use replicated_retrieval::core::verify::oracle_optimal_response;
use replicated_retrieval::prelude::*;

/// Per-kind digests of the outcomes on the legacy `Vec<Vec<u32>>` layout
/// (seed 0xC5A, 200 instances), one FNV-1a chain per kind in
/// `SolverKind::ALL` order. Captured while a combined digest of the same
/// words, taken before the CSR rewrite, still passed; both widths must
/// match every entry, and none may ever drift.
const GOLDEN_BY_KIND: &[(&str, u64)] = &[
    ("FF-basic", 0x4024e3c1a5e1486f),
    ("FF-incremental", 0x6296e596df887a0c),
    ("PR-incremental", 0x2e2bf3e47c9cd0a9),
    ("PR-binary", 0xa9eb42b18c3e5d7c),
    ("BB-PR", 0xb17afda600da40b4),
    ("BB-FF", 0xc56bbf6bf57416cd),
];

/// Per-kind digests of every decision and trace event of small solves
/// (seed 0x5EA2C, 60 instances, both widths): cold solves unlimited and
/// under probe budgets of 0, 1, 2 and 4 steps, then a six-step sliding
/// window through a warm-start session, unlimited and at one step. Covers
/// response time, flow value, every `SolveStats` counter, the anytime gap,
/// every assignment, each session step's completion time and the
/// `TraceEvent`s of every solve in emission order. Captured before the
/// budget search of Algorithm 6 and the black-box baselines was written
/// once; must never drift.
const SEARCH_GOLDEN_BY_KIND: &[(&str, u64)] = &[
    ("FF-basic", 0x8d29edb81a24d393),
    ("FF-incremental", 0x1f0a34178d323b55),
    ("PR-incremental", 0x06a472aaf19cfbd5),
    ("PR-binary", 0x1047b663b4fb1311),
    ("BB-PR", 0x2f65c23c579ef47b),
    ("BB-FF", 0xdc60b6f5cac58111),
];

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

/// FNV-1a offset basis: the starting value of every digest chain.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Asserts one pinned digest per kind, in order, each equal to its entry
/// in `want`.
fn assert_per_kind(got: &[(&str, u64)], want: &[(&str, u64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: one pinned digest per kind");
    for (&(name, digest), &(want_name, want_digest)) in got.iter().zip(want) {
        assert_eq!(name, want_name, "{what}: kinds out of order");
        assert_eq!(
            digest, want_digest,
            "{what}: {name} digest drifted: got {digest:#x}"
        );
    }
}

/// Runs the full 200-instance sweep over every kind with the arena width
/// forced to `layout`, returning the per-kind FNV-1a outcome digests (in
/// `SolverKind::ALL` order) and the solve count. Both widths must
/// reproduce [`GOLDEN_BY_KIND`] bit-for-bit: the monomorphized `i32`
/// arena changes only the storage width of the capacity/flow arrays,
/// never the adjacency enumeration or the traversal order.
fn layout_digest(layout: ArenaLayout) -> (Vec<(&'static str, u64)>, usize) {
    let mut rng = SplitMix64::seed_from_u64(0xC5A);
    let mut per_kind: Vec<(&'static str, u64)> = SolverKind::ALL
        .iter()
        .map(|k| (k.name(), FNV_BASIS))
        .collect();
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

        for (k, kind) in SolverKind::ALL.into_iter().enumerate() {
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
                per_kind[k].1 = fnv1a(per_kind[k].1, word);
            }
            solved += 1;
        }
    }
    (per_kind, solved)
}

/// Per-kind digests of paper-scale outcomes: Experiment 5 systems with
/// Orthogonal allocation at N = 60 and N = 100, Load 1 arbitrary queries
/// (each bucket with probability ½, 1,800 and 5,000 buckets), solved by
/// the kinds whose work grows with adjacency length — Algorithm 6, the
/// black-box binary search and the incremental Ford-Fulkerson — under
/// both arena widths, in the order of [`PAPER_KINDS`]. Covers
/// `(response_time, pushes, relabels, probes, increments, resume_calls)`
/// and the full bucket → disk assignment of every solve. The words are
/// those of a combined digest captured on the id-major arena, before the
/// position-major rewrite; must never drift.
const PAPER_GOLDEN_BY_KIND: &[(&str, u64)] = &[
    ("PR-binary", 0xdb615169276363f5),
    ("BB-PR", 0x4af777705cc018a5),
    ("FF-incremental", 0xf43e49c7002e6681),
];

/// The kinds digested at paper scale.
const PAPER_KINDS: &[SolverKind] = &[
    SolverKind::PushRelabelBinary,
    SolverKind::BlackBoxPushRelabel,
    SolverKind::FordFulkersonIncremental,
];

/// Experiment 5 instances at the paper's scale, where adjacency lists run
/// to hundreds of slots (the random grids above stop at a few): disks own
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
    let mut per_kind: Vec<(&'static str, u64)> =
        PAPER_KINDS.iter().map(|k| (k.name(), FNV_BASIS)).collect();
    for inst in paper_scale_instances() {
        let mut response = None;
        for layout in [ArenaLayout::Wide, ArenaLayout::Compact] {
            for (k, &kind) in PAPER_KINDS.iter().enumerate() {
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
                    per_kind[k].1 = fnv1a(per_kind[k].1, word);
                }
                for &(b, disk) in out.schedule.assignments() {
                    for word in [(b.row as u64) << 32 | b.col as u64, disk as u64] {
                        per_kind[k].1 = fnv1a(per_kind[k].1, word);
                    }
                }
            }
        }
    }
    assert_per_kind(&per_kind, PAPER_GOLDEN_BY_KIND, "paper scale");
}

/// CSR and legacy traversal orders yield identical max-flow values and
/// identical `SolveStats` operation counts for every `SolverKind` on 200
/// random instances, on the wide (`i64`) arena.
#[test]
fn all_solver_kinds_match_legacy_layout_on_random_instances() {
    let (per_kind, solved) = layout_digest(ArenaLayout::Wide);
    assert_eq!(solved, 200 * SolverKind::ALL.len());
    assert_per_kind(&per_kind, GOLDEN_BY_KIND, "wide arena");
}

/// The compact (`i32`) arena reproduces the identical golden digests:
/// width monomorphization must not perturb traversal order or operation
/// counts.
#[test]
fn compact_arena_matches_legacy_layout_digest() {
    let (per_kind, solved) = layout_digest(ArenaLayout::Compact);
    assert_eq!(solved, 200 * SolverKind::ALL.len());
    assert_per_kind(&per_kind, GOLDEN_BY_KIND, "compact arena");
}

/// Folds one outcome into a digest chain: response time, flow value,
/// every `SolveStats` counter, the anytime gap and every assignment.
fn digest_outcome(mut h: u64, out: &RetrievalOutcome) -> u64 {
    let s = &out.stats;
    for word in [
        out.response_time.0,
        out.flow_value,
        s.maxflow_calls,
        s.resume_calls,
        s.probes,
        s.increments,
        s.dfs_calls,
        s.pushes,
        s.relabels,
        s.refine_passes,
        s.refine_cycles,
        s.refine_moved,
        s.refine_searches,
        s.budget_expirations,
        s.anytime_gap.0,
    ] {
        h = fnv1a(h, word);
    }
    for &(b, disk) in out.schedule.assignments() {
        for word in [(b.row as u64) << 32 | b.col as u64, disk as u64] {
            h = fnv1a(h, word);
        }
    }
    h
}

/// Folds every event the workspace's ring recorder retained since the
/// last call, in emission order (each by its `Debug` rendering, which
/// names the variant and every field), then clears the ring.
fn digest_events(mut h: u64, ws: &mut Workspace) -> u64 {
    let ring = ws.recorder_mut().expect("recorder installed");
    assert_eq!(ring.dropped(), 0, "event ring overflowed");
    for event in ring.events() {
        for byte in format!("{event:?}").bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    ring.clear();
    h
}

/// Every decision and event of cold solves under probe budgets and of
/// warm sliding-window sessions, per kind and width, digested: the
/// budget search, its bail-outs, the incremental phase, the warm resume
/// and the delta fallback all feed [`SEARCH_GOLDEN_BY_KIND`].
#[test]
fn budget_search_decisions_and_events_match_by_kind() {
    let budgets = [
        SolveBudget::UNLIMITED,
        SolveBudget::UNLIMITED.with_max_probes(0),
        SolveBudget::UNLIMITED.with_max_probes(1),
        SolveBudget::UNLIMITED.with_max_probes(2),
        SolveBudget::UNLIMITED.with_max_probes(4),
    ];
    let warm = ReusePolicy {
        warm_start: true,
        cache_capacity: 0,
    };
    let mut per_kind: Vec<(&'static str, u64)> = SolverKind::ALL
        .iter()
        .map(|k| (k.name(), FNV_BASIS))
        .collect();
    let mut rng = SplitMix64::seed_from_u64(0x5EA2C);
    for _ in 0..60 {
        let n = rng.gen_range(3..7usize);
        let seed = rng.gen_range(0..1000u64);
        let r = rng.gen_range(1..4usize).min(n);
        let c = rng.gen_range(1..4usize).min(n);
        let row = rng.gen_range(0..=n - r);
        let col = rng.gen_range(0..=n - c);
        let alloc = arb_alloc(n, seed.wrapping_add(3));
        // A same-size window sliding one row per session step.
        let window =
            |step: usize| RangeQuery::new((row + step) % (n - r + 1), col, r, c).buckets(n);
        for (k, kind) in SolverKind::ALL.into_iter().enumerate() {
            // FF-basic supports only the pristine uniform problem: an Exp1
            // system, with session arrivals far enough apart that every
            // disk has drained before the next query.
            let (system, gap) = if kind == SolverKind::FordFulkersonBasic {
                (
                    experiment(ExperimentId::Exp1, n, seed),
                    Micros::from_millis(60_000),
                )
            } else {
                (arb_system(n, seed), Micros::from_millis(2))
            };
            let inst = RetrievalInstance::build(&system, &alloc, &window(0));
            let solver = SolverSpec::new(kind).build();
            for layout in [ArenaLayout::Wide, ArenaLayout::Compact] {
                let mut ws = Workspace::new();
                ws.set_arena_layout(layout);
                ws.install_recorder(1 << 12);
                let h = &mut per_kind[k].1;
                for budget in budgets {
                    ws.arm_budget(budget);
                    let out = solver.solve_in(&inst, &mut ws).expect("feasible instance");
                    assert_eq!(out.stats.arena_layout, layout);
                    *h = digest_outcome(*h, &out);
                    *h = digest_events(*h, &mut ws);
                }
                for budget in [budgets[0], budgets[2]] {
                    ws.arm_budget(budget);
                    let spec = SolverSpec::new(kind).reuse(warm);
                    let mut state = SessionState::from_spec(system.num_disks(), &spec);
                    let mut arrival = Micros::ZERO;
                    for step in 0..6 {
                        let out = state
                            .submit_with(&system, &alloc, &solver, &mut ws, arrival, &window(step))
                            .expect("feasible window");
                        *h = digest_outcome(*h, &out.outcome);
                        *h = fnv1a(*h, out.completion.0);
                        *h = digest_events(*h, &mut ws);
                        arrival += gap;
                    }
                    // The push-relabel kinds resume from the delta-patched
                    // flow; the others fall back to cold solves.
                    let reuse = state.reuse_counters();
                    let (resumed, fell_back) = if kind.supports_delta() {
                        (reuse.delta_patches, reuse.delta_fallbacks)
                    } else {
                        (reuse.delta_fallbacks, reuse.delta_patches)
                    };
                    assert!(resumed > 0 && fell_back == 0, "{}", kind.name());
                }
            }
        }
    }
    assert_per_kind(&per_kind, SEARCH_GOLDEN_BY_KIND, "budget search");
}
