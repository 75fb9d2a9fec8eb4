//! Randomized property tests on the core invariants, driven by a seeded
//! SplitMix64 so every run checks the same deterministic case list.

use rds_util::SplitMix64;
use replicated_retrieval::core::pr::PushRelabelBinary;
use replicated_retrieval::core::verify::{assert_outcome_valid, oracle_optimal_response};
use replicated_retrieval::flow::validate::assert_valid_flow;
use replicated_retrieval::flow::FlowGraph;
use replicated_retrieval::prelude::*;

fn arb_system(n: usize, seed: u64) -> SystemConfig {
    let id = ExperimentId::ALL[(seed % 5) as usize];
    experiment(id, n, seed)
}

fn arb_alloc(n: usize, seed: u64) -> ReplicaMap {
    match seed % 3 {
        0 => ReplicaMap::build(&RandomDuplicateAllocation::two_site(n, seed)),
        1 => ReplicaMap::build(&DependentPeriodicAllocation::new(n, Placement::PerSite)),
        _ => ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite)),
    }
}

/// The solver's schedule is complete, uses only replica disks, and is
/// optimal per the independent oracle.
#[test]
fn solved_schedules_are_valid_and_optimal() {
    let mut rng = SplitMix64::seed_from_u64(0x9A1);
    for _ in 0..24 {
        let n = rng.gen_range(3..7usize);
        let seed = rng.gen_range(0..1000u64);
        let r = rng.gen_range(1..6usize).min(n);
        let c = rng.gen_range(1..6usize).min(n);
        let (i, j) = (rng.gen_range(0..6usize) % n, rng.gen_range(0..6usize) % n);
        let system = arb_system(n, seed);
        let alloc = arb_alloc(n, seed);
        let q = RangeQuery::new(i, j, r, c);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        assert_outcome_valid(&inst, &outcome);
        assert_eq!(outcome.response_time, oracle_optimal_response(&inst));
    }
}

/// Disk capacities are monotone non-decreasing in the budget — the
/// property that makes flow conservation across probes sound.
#[test]
fn capacities_monotone_in_budget() {
    let mut rng = SplitMix64::seed_from_u64(0x9A2);
    for _ in 0..24 {
        let n = rng.gen_range(2..10usize);
        let seed = rng.gen_range(0..1000u64);
        let t1 = rng.gen_range(0..1_000_000u64);
        let t2 = rng.gen_range(0..1_000_000u64);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let system = arb_system(n, seed);
        for d in system.disks() {
            assert!(d.capacity_within(Micros(lo)) <= d.capacity_within(Micros(hi)));
        }
    }
}

/// Completion time and capacity are inverse: a disk can always finish
/// `capacity_within(t)` buckets within `t`, and one more would exceed it.
#[test]
fn capacity_is_tight() {
    let mut rng = SplitMix64::seed_from_u64(0x9A3);
    for _ in 0..24 {
        let n = rng.gen_range(2..8usize);
        let seed = rng.gen_range(0..1000u64);
        let t = rng.gen_range(1..10_000_000u64);
        let system = arb_system(n, seed);
        for d in system.disks() {
            let k = d.capacity_within(Micros(t));
            if k > 0 {
                assert!(d.completion_time(k) <= Micros(t));
            }
            assert!(d.completion_time(k + 1) > Micros(t));
        }
    }
}

/// Orthogonal allocations cover every disk pair exactly once for any
/// grid size.
#[test]
fn orthogonality_for_any_n() {
    for n in 2usize..40 {
        let alloc = OrthogonalAllocation::new(n, Placement::SingleSite);
        let mut pairs = std::collections::HashSet::new();
        for row in 0..n as u32 {
            for col in 0..n as u32 {
                let b = Bucket::new(row, col);
                assert!(pairs.insert((alloc.f(b), alloc.g(b))));
            }
        }
        assert_eq!(pairs.len(), n * n);
    }
}

/// Periodic allocations are balanced: each disk holds exactly N buckets
/// per copy.
#[test]
fn periodic_allocations_balanced() {
    for n in 2usize..30 {
        let alloc = DependentPeriodicAllocation::new(n, Placement::PerSite);
        let map = ReplicaMap::build(&alloc);
        for d in 0..2 * n {
            assert_eq!(map.buckets_on_disk(d), n);
        }
    }
}

/// Query generators respect the size bounds of their load definition:
/// Load 2/3 arbitrary queries have exactly |Q| ∈ [(k−1)N+1, kN] for
/// some k ≤ N.
#[test]
fn load_sizes_in_bounds() {
    let mut rng = SplitMix64::seed_from_u64(0x9A4);
    for _ in 0..24 {
        let n = rng.gen_range(2..20usize);
        let seed = rng.gen_range(0..1000u64);
        for load in [Load::Load1, Load::Load2, Load::Load3] {
            let mut gen = QueryGenerator::new(n, QueryKind::Arbitrary, load, seed);
            for _ in 0..5 {
                let q = gen.next_query();
                let size = q.len(n);
                assert!(size >= 1 && size <= n * n, "size {size} out of range");
            }
        }
    }
}

/// The flow left in the graph after a solve is a valid flow whose value
/// equals the query size (checked through a fresh solve on the
/// instance's own graph copy).
#[test]
fn solver_flow_is_conserved() {
    let mut rng = SplitMix64::seed_from_u64(0x9A5);
    for _ in 0..24 {
        let n = rng.gen_range(3..7usize);
        let seed = rng.gen_range(0..500u64);
        let system = arb_system(n, seed);
        let alloc = arb_alloc(n, seed.wrapping_add(7));
        let q = RangeQuery::new(0, 0, n, n.div_ceil(2));
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
        // Reconstruct the flow from the schedule and validate.
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        let mut g: FlowGraph = inst.graph.clone();
        inst.set_caps_for_budget(&mut g, outcome.response_time);
        for (i, &(_, disk)) in outcome.schedule.assignments().iter().enumerate() {
            g.push(inst.bucket_edges[i], 1);
            let bv = inst.bucket_vertex(i);
            let dv = inst.disk_vertex(disk);
            let e = g
                .out_edges(bv)
                .iter()
                .map(|&e| e as usize)
                .find(|&e| e % 2 == 0 && g.target(e) == dv)
                .expect("replica edge exists");
            g.push(e, 1);
            g.push(inst.disk_edges[disk], 1);
        }
        assert_valid_flow(&g, inst.source(), inst.sink());
        assert_eq!(g.net_inflow(inst.sink()) as usize, inst.query_size());
    }
}

/// Optimality lower bound: no budget strictly below the returned one
/// admits a complete flow (checked at the immediate predecessor
/// candidate).
#[test]
fn no_cheaper_budget_is_feasible() {
    let mut rng = SplitMix64::seed_from_u64(0x9A6);
    for _ in 0..24 {
        let n = rng.gen_range(3..6usize);
        let seed = rng.gen_range(0..500u64);
        let r = rng.gen_range(1..5usize).min(n);
        let c = rng.gen_range(1..5usize).min(n);
        let system = arb_system(n, seed);
        let alloc = arb_alloc(n, seed);
        let q = RangeQuery::new(0, 0, r, c);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        let epsilon = Micros(1);
        let below = outcome.response_time.saturating_sub(epsilon);
        let mut g = inst.graph.clone();
        inst.set_caps_for_budget(&mut g, below);
        let flow = replicated_retrieval::flow::dinic::Dinic::new().max_flow(
            &mut g,
            inst.source(),
            inst.sink(),
        );
        assert!(
            (flow as usize) < inst.query_size(),
            "budget {} below optimum {} admits a full flow",
            below,
            outcome.response_time
        );
    }
}

/// Taking a disk offline can never *decrease* the optimal response time:
/// any schedule feasible without the disk is feasible with it.
#[test]
fn offline_disk_never_improves_the_optimum() {
    let mut rng = SplitMix64::seed_from_u64(0x9A7);
    let mut checked = 0;
    for _ in 0..24 {
        let n = rng.gen_range(3..6usize);
        let seed = rng.gen_range(0..500u64);
        let r = rng.gen_range(1..5usize).min(n);
        let c = rng.gen_range(1..5usize).min(n);
        let system = arb_system(n, seed);
        let alloc = arb_alloc(n, seed);
        let buckets = RangeQuery::new(0, 0, r, c).buckets(n);
        let full = RetrievalInstance::build(&system, &alloc, &buckets);
        let base = oracle_optimal_response(&full);

        let dead = rng.gen_range(0..system.num_disks());
        let health = HealthMap::with_offline(&[dead]);
        // If the outage makes some bucket unservable the comparison is
        // moot (infinite optimum — trivially not an improvement).
        let Ok(pruned) = RetrievalInstance::build_with_health(&system, &alloc, &buckets, &health)
        else {
            continue;
        };
        let worse = oracle_optimal_response(&pruned);
        assert!(
            worse >= base,
            "losing disk {dead} improved {base} to {worse}"
        );
        // The integrated solver agrees with the oracle on the pruned
        // instance too.
        assert_eq!(
            PushRelabelBinary.solve(&pruned).unwrap().response_time,
            worse
        );
        checked += 1;
    }
    assert!(checked >= 12, "too few effective cases ({checked})");
}

/// Taking a disk that serves no bucket in *some* optimal schedule offline
/// leaves the optimum unchanged: that schedule is still feasible without
/// the disk (upper bound), and fewer disks can't do better (lower bound,
/// previous property).
#[test]
fn offline_unused_disk_leaves_optimum_unchanged() {
    let mut rng = SplitMix64::seed_from_u64(0x9A8);
    let mut checked = 0;
    for _ in 0..24 {
        let n = rng.gen_range(3..6usize);
        let seed = rng.gen_range(0..500u64);
        let r = rng.gen_range(1..5usize).min(n);
        let c = rng.gen_range(1..5usize).min(n);
        let system = arb_system(n, seed);
        let alloc = arb_alloc(n, seed);
        let buckets = RangeQuery::new(0, 0, r, c).buckets(n);
        let full = RetrievalInstance::build(&system, &alloc, &buckets);
        let outcome = PushRelabelBinary.solve(&full).unwrap();
        assert_eq!(outcome.response_time, oracle_optimal_response(&full));

        let counts = outcome.schedule.per_disk_counts(system.num_disks());
        let Some(unused) = counts.iter().position(|&k| k == 0) else {
            continue;
        };
        let health = HealthMap::with_offline(&[unused]);
        let Ok(pruned) = RetrievalInstance::build_with_health(&system, &alloc, &buckets, &health)
        else {
            continue;
        };
        assert_eq!(
            oracle_optimal_response(&pruned),
            outcome.response_time,
            "losing unused disk {unused} changed the optimum"
        );
        checked += 1;
    }
    assert!(checked >= 12, "too few effective cases ({checked})");
}

/// Tentpole acceptance: `patch(build(Q_i)) → Q_{i+1}` agrees with
/// `build(Q_{i+1})` on the optimal response time for 500 random
/// overlapping query pairs, cycling through every solver kind, over
/// random systems, allocations and health maps.
#[test]
fn patched_warm_solves_match_fresh_builds_on_random_pairs() {
    let mut rng = SplitMix64::seed_from_u64(0xDE57A);
    let mut checked = 0usize;
    let mut attempts = 0usize;
    while checked < 500 {
        attempts += 1;
        assert!(attempts < 5_000, "too many infeasible cases generated");
        let kind = SolverKind::ALL[checked % SolverKind::ALL.len()];
        let basic = kind == SolverKind::FordFulkersonBasic;
        let n = rng.gen_range(4..8usize);
        let seed = rng.gen_u64();
        // FF-basic supports only the pristine uniform problem; every other
        // kind gets a random experiment and a random health map.
        let system = if basic {
            experiment(ExperimentId::Exp1, n, seed)
        } else {
            arb_system(n, seed)
        };
        let alloc = arb_alloc(n, rng.gen_u64());
        let mut health = HealthMap::all_healthy();
        if !basic {
            if rng.gen_range(0..2u64) == 0 {
                health.set(rng.gen_range(0..system.num_disks()), DiskHealth::Offline);
            }
            if rng.gen_range(0..2u64) == 0 {
                health.set(
                    rng.gen_range(0..system.num_disks()),
                    DiskHealth::Degraded {
                        load_factor: 100 + rng.gen_range(0..300) as u32,
                    },
                );
            }
        }
        // Q_i is a random window; Q_{i+1} is the same-size window shifted
        // by less than its extent, so the pair always overlaps.
        let r = rng.gen_range(1..=n.min(4));
        let c = rng.gen_range(1..=n.min(4));
        let row1 = rng.gen_range(0..=n - r);
        let col1 = rng.gen_range(0..=n - c);
        let row2 = (row1 + rng.gen_range(0..r)).min(n - r);
        let col2 = (col1 + rng.gen_range(0..c)).min(n - c);
        let q1 = RangeQuery::new(row1, col1, r, c).buckets(n);
        let q2 = RangeQuery::new(row2, col2, r, c).buckets(n);

        let spec = SolverSpec::new(kind).reuse(ReusePolicy {
            warm_start: true,
            cache_capacity: 0,
        });
        let solver = spec.build();
        let mut warm = SessionState::from_spec(system.num_disks(), &spec);
        let mut cold = SessionState::new(system.num_disks());
        let (mut ws_w, mut ws_c) = (Workspace::new(), Workspace::new());
        let gap = if basic {
            Micros::from_millis(60_000)
        } else {
            Micros::from_millis(rng.gen_range(0..20))
        };

        let w1 = warm.submit_with_health(
            &system,
            &alloc,
            &solver,
            &mut ws_w,
            Micros::ZERO,
            &q1,
            &health,
        );
        let c1 = cold.submit_with_health(
            &system,
            &alloc,
            &solver,
            &mut ws_c,
            Micros::ZERO,
            &q1,
            &health,
        );
        match (w1, c1) {
            (Ok(w), Ok(c)) => assert_eq!(w.outcome.response_time, c.outcome.response_time),
            (Err(_), Err(_)) => continue, // infeasible under this health map
            (w, c) => panic!("warm/cold disagree on Q_i feasibility: {w:?} vs {c:?}"),
        }
        let w2 = warm.submit_with_health(&system, &alloc, &solver, &mut ws_w, gap, &q2, &health);
        let c2 = cold.submit_with_health(&system, &alloc, &solver, &mut ws_c, gap, &q2, &health);
        match (w2, c2) {
            (Ok(wo), Ok(co)) => {
                assert_eq!(
                    wo.outcome.response_time,
                    co.outcome.response_time,
                    "{} on n={n} {r}x{c} ({row1},{col1})→({row2},{col2})",
                    kind.name()
                );
                assert_eq!(wo.completion, co.completion);
                // Both queries solved, equal sizes, same health: the warm
                // session must have attempted exactly one delta.
                let counters = warm.reuse_counters();
                assert_eq!(
                    counters.delta_patches + counters.delta_fallbacks,
                    1,
                    "{}: delta not attempted",
                    kind.name()
                );
                checked += 1;
            }
            (Err(_), Err(_)) => continue,
            (w, c) => panic!("warm/cold disagree on Q_{{i+1}} feasibility: {w:?} vs {c:?}"),
        }
    }
}

/// Statistical check: RDA distributes buckets roughly evenly over many
/// seeds.
#[test]
fn rda_is_statistically_balanced() {
    let n = 12;
    let mut rng = SplitMix64::seed_from_u64(1);
    let mut worst = 0usize;
    for _ in 0..10 {
        let map = ReplicaMap::build(&RandomDuplicateAllocation::two_site(n, rng.gen_u64()));
        for d in 0..2 * n {
            worst = worst.max(map.buckets_on_disk(d));
        }
    }
    // Expectation is n = 12 buckets per disk; a disk holding 4x that
    // would indicate a broken generator.
    assert!(worst < 4 * n, "worst disk holds {worst} buckets");
}
