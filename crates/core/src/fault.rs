//! Disk fault model: health states, deterministic fault injection, and
//! best-effort degraded retrieval.
//!
//! The paper's model assumes every replica disk listed by the allocation
//! is alive and serves at its nominal `(D_j, X_j, C_j)` spec. Real
//! deployments lose disks outright and — more insidiously — keep "gray"
//! disks that answer, just several times slower than their spec. This
//! module makes both first-class:
//!
//! * [`DiskHealth`] / [`HealthMap`] — per-disk health: `Healthy`,
//!   `Degraded { load_factor }` (inflates `C_j` and `X_j`), or `Offline`.
//!   [`crate::network::RetrievalInstance::rebuild_with_health`] prunes
//!   offline replicas and scales degraded disk parameters, so **every**
//!   solver transparently plans around faults.
//! * Best-effort retrieval — when a requested bucket has lost all of its
//!   replicas, a strict solve reports
//!   [`crate::error::SolveError::Infeasible`] naming the bucket;
//!   [`crate::session::RetrievalSession::submit_degraded`] (and the
//!   engine's degraded mode, which runs the same path) instead retrieves
//!   the servable subset optimally and reports the unservable buckets in
//!   [`crate::session::SessionOutcome::unservable`].
//! * [`FaultInjector`] — a deterministic outage/recovery schedule in
//!   simulated time (seeded through [`rds_util::SplitMix64`] for random
//!   schedules). Health at time `t` is a pure function of the schedule,
//!   so chaos runs are reproducible for any shard count or thread
//!   interleaving.

use rds_decluster::allocation::ReplicaSource;
use rds_decluster::query::Bucket;
use rds_storage::model::Disk;
use rds_storage::time::Micros;
use rds_util::SplitMix64;

/// Health of one disk, as seen by the planner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DiskHealth {
    /// Serving at nominal spec.
    #[default]
    Healthy,
    /// Alive but slow (a "gray" disk): per-bucket cost `C_j` and initial
    /// load `X_j` are multiplied by `load_factor`/100.
    Degraded {
        /// Slowdown in percent; values below 100 are treated as 100
        /// (degradation never speeds a disk up).
        load_factor: u32,
    },
    /// Down: no replica on this disk is retrievable.
    Offline,
}

impl DiskHealth {
    /// True when the disk cannot serve any request.
    #[inline]
    pub fn is_offline(self) -> bool {
        matches!(self, DiskHealth::Offline)
    }

    /// True when the disk serves at nominal spec.
    #[inline]
    pub fn is_healthy(self) -> bool {
        matches!(self, DiskHealth::Healthy)
    }

    /// The effective slowdown multiplier in percent (100 for healthy
    /// disks; offline disks report 100 too — they are pruned, not
    /// slowed).
    #[inline]
    pub fn load_factor_percent(self) -> u64 {
        match self {
            DiskHealth::Degraded { load_factor } => load_factor.max(100) as u64,
            DiskHealth::Healthy | DiskHealth::Offline => 100,
        }
    }
}

/// Per-disk health of a whole storage system.
///
/// Sparse-friendly: disks beyond the recorded prefix are implicitly
/// [`DiskHealth::Healthy`], so `HealthMap::default()` means "everything
/// up" regardless of system size and costs nothing to construct.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthMap {
    states: Vec<DiskHealth>,
}

impl HealthMap {
    /// All disks healthy.
    pub fn all_healthy() -> HealthMap {
        HealthMap::default()
    }

    /// A map with the given disks offline (everything else healthy).
    pub fn with_offline(offline: &[usize]) -> HealthMap {
        let mut map = HealthMap::default();
        for &j in offline {
            map.set(j, DiskHealth::Offline);
        }
        map
    }

    /// Sets disk `j`'s health, growing the map as needed.
    pub fn set(&mut self, j: usize, health: DiskHealth) {
        if j >= self.states.len() {
            if health.is_healthy() {
                return; // implicit state already
            }
            self.states.resize(j + 1, DiskHealth::Healthy);
        }
        self.states[j] = health;
    }

    /// Health of disk `j` (disks never touched are healthy).
    #[inline]
    pub fn health(&self, j: usize) -> DiskHealth {
        self.states.get(j).copied().unwrap_or_default()
    }

    /// True when disk `j` is offline.
    #[inline]
    pub fn is_offline(&self, j: usize) -> bool {
        self.health(j).is_offline()
    }

    /// True when no disk is marked offline or degraded.
    pub fn all_up(&self) -> bool {
        self.states.iter().all(|h| h.is_healthy())
    }

    /// True when at least one disk is offline.
    pub fn any_offline(&self) -> bool {
        self.states.iter().any(|h| h.is_offline())
    }

    /// Offline disk indices, ascending.
    pub fn offline_disks(&self) -> impl Iterator<Item = usize> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_offline())
            .map(|(j, _)| j)
    }

    /// Resets every disk to healthy (keeps the allocation).
    pub fn reset(&mut self) {
        self.states.clear();
    }

    /// The disk parameters disk `j` effectively presents under this map:
    /// degraded disks have `C_j` and `X_j` inflated by their load factor;
    /// healthy and offline disks are returned unchanged (offline disks
    /// are pruned from the network, never planned for).
    pub fn apply(&self, j: usize, d: &Disk) -> Disk {
        match self.health(j) {
            DiskHealth::Degraded { load_factor } => {
                let f = load_factor.max(100) as u64;
                let scale = |m: Micros| Micros::from_micros(m.as_micros() * f / 100);
                let mut spec = d.spec;
                spec.access_time = scale(spec.access_time);
                Disk {
                    spec,
                    network_delay: d.network_delay,
                    initial_load: scale(d.initial_load),
                }
            }
            DiskHealth::Healthy | DiskHealth::Offline => *d,
        }
    }

    /// An order-independent digest of the non-healthy entries, used by
    /// [`crate::session::SessionState`] to detect health changes between
    /// submits (a changed digest forces an instance rebuild). All-healthy
    /// maps of any size share the digest [`HealthMap::HEALTHY_FINGERPRINT`].
    pub fn fingerprint(&self) -> u64 {
        let mut acc = Self::HEALTHY_FINGERPRINT;
        for (j, h) in self.states.iter().enumerate() {
            let code = match *h {
                DiskHealth::Healthy => continue,
                DiskHealth::Degraded { load_factor } => 0x1_0000_0000u64 | load_factor as u64,
                DiskHealth::Offline => 0x2_0000_0000u64,
            };
            // FNV-style per-entry hash, XOR-combined so order never matters.
            let mut x = (j as u64) ^ code.rotate_left(17);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            acc ^= x ^ (x >> 31);
        }
        acc
    }

    /// Fingerprint of an all-healthy map.
    pub const HEALTHY_FINGERPRINT: u64 = 0xcbf2_9ce4_8422_2325;

    /// Length of the explicitly recorded prefix (every disk at or beyond
    /// this index is implicitly healthy).
    pub fn states_len(&self) -> usize {
        self.states.len()
    }
}

/// Splits `buckets` into (servable, unservable) under `health`: a bucket
/// is unservable when every one of its replicas sits on an offline disk.
/// Both output buffers are cleared first; request order is preserved.
pub fn partition_by_health<A: ReplicaSource + ?Sized>(
    alloc: &A,
    buckets: &[Bucket],
    health: &HealthMap,
    servable: &mut Vec<Bucket>,
    unservable: &mut Vec<Bucket>,
) {
    servable.clear();
    unservable.clear();
    if !health.any_offline() {
        servable.extend_from_slice(buckets);
        return;
    }
    for &b in buckets {
        if alloc.replicas(b).iter().any(|d| !health.is_offline(d)) {
            servable.push(b);
        } else {
            unservable.push(b);
        }
    }
}

/// One scheduled health transition in simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated time at which the transition takes effect.
    pub at: Micros,
    /// Affected disk (global index).
    pub disk: usize,
    /// The disk's health from `at` onward (until a later event).
    pub health: DiskHealth,
}

/// A deterministic fault schedule over simulated time.
///
/// The injector is *stateless at evaluation time*: [`FaultInjector::health_at`]
/// replays every event up to `t` onto an all-healthy baseline, so the
/// health observed at a given instant is a pure function of the schedule
/// — independent of evaluation order, shard count, or how often the map
/// is refreshed. Random schedules are generated up front from a
/// [`SplitMix64`] seed and are therefore just as reproducible.
#[must_use]
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    /// Events sorted by time (ties broken by insertion order, which the
    /// stable sort preserves).
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// An empty schedule (all disks healthy forever).
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    /// Builds an injector from explicit events (sorted internally).
    pub fn with_events(mut events: Vec<FaultEvent>) -> FaultInjector {
        events.sort_by_key(|e| e.at);
        FaultInjector { events }
    }

    /// An injector that pins the given health map from time zero onward —
    /// the static-outage special case.
    pub fn pinned(health: &HealthMap) -> FaultInjector {
        let events = (0..health.states_len())
            .filter_map(|disk| {
                let h = health.health(disk);
                (!h.is_healthy()).then_some(FaultEvent {
                    at: Micros::ZERO,
                    disk,
                    health: h,
                })
            })
            .collect();
        FaultInjector { events }
    }

    /// Adds one transition, keeping the schedule sorted.
    pub fn schedule(&mut self, at: Micros, disk: usize, health: DiskHealth) -> &mut Self {
        self.events.push(FaultEvent { at, disk, health });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// A seeded random outage wave: `round(fraction · num_disks)` distinct
    /// disks (chosen by a [`SplitMix64`] partial shuffle of `seed`) go
    /// offline at `fail_at`; with `recover_after` set, each comes back
    /// healthy that long after failing.
    pub fn random_outages(
        seed: u64,
        num_disks: usize,
        fraction: f64,
        fail_at: Micros,
        recover_after: Option<Micros>,
    ) -> FaultInjector {
        let count = ((num_disks as f64 * fraction.clamp(0.0, 1.0)).round() as usize).min(num_disks);
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut disks: Vec<usize> = (0..num_disks).collect();
        // Partial Fisher-Yates: the first `count` entries are a uniform
        // sample without replacement.
        for i in 0..count {
            let k = rng.gen_range(i..num_disks);
            disks.swap(i, k);
        }
        let mut events = Vec::with_capacity(count * 2);
        for &disk in &disks[..count] {
            events.push(FaultEvent {
                at: fail_at,
                disk,
                health: DiskHealth::Offline,
            });
            if let Some(dt) = recover_after {
                events.push(FaultEvent {
                    at: fail_at + dt,
                    disk,
                    health: DiskHealth::Healthy,
                });
            }
        }
        FaultInjector::with_events(events)
    }

    /// The scheduled events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the schedule is empty (health is always all-healthy).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Materializes the health of every disk at simulated time `now` into
    /// `out` (cleared first): the last event at or before `now` wins per
    /// disk.
    pub fn health_at(&self, now: Micros, out: &mut HealthMap) {
        out.reset();
        for e in &self.events {
            if e.at > now {
                break;
            }
            out.set(e.disk, e.health);
        }
    }

    /// The time of the first scheduled transition strictly after `now`,
    /// if any — the soonest instant at which re-probing health can
    /// observe something new.
    pub fn next_change_after(&self, now: Micros) -> Option<Micros> {
        self.events.iter().map(|e| e.at).find(|&at| at > now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pr::PushRelabelBinary;
    use crate::session::RetrievalSession;
    use crate::verify::assert_partial_outcome_valid;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_storage::experiments::paper_example;
    use rds_storage::specs::CHEETAH;

    #[test]
    fn health_map_defaults_to_healthy() {
        let map = HealthMap::all_healthy();
        assert!(map.all_up());
        assert!(!map.any_offline());
        assert!(map.health(1000).is_healthy());
        assert_eq!(map.fingerprint(), HealthMap::HEALTHY_FINGERPRINT);
    }

    #[test]
    fn set_and_reset_round_trip() {
        let mut map = HealthMap::all_healthy();
        map.set(3, DiskHealth::Offline);
        map.set(1, DiskHealth::Degraded { load_factor: 250 });
        assert!(map.is_offline(3));
        assert!(!map.is_offline(1));
        assert!(!map.all_up());
        assert_eq!(map.offline_disks().collect::<Vec<_>>(), vec![3]);
        map.set(3, DiskHealth::Healthy);
        assert!(!map.any_offline());
        map.reset();
        assert!(map.all_up());
        assert_eq!(map.fingerprint(), HealthMap::HEALTHY_FINGERPRINT);
        // Setting Healthy beyond the prefix stays implicit.
        map.set(99, DiskHealth::Healthy);
        assert_eq!(map.states_len(), 0);
    }

    #[test]
    fn fingerprint_is_order_independent_and_state_sensitive() {
        let mut a = HealthMap::all_healthy();
        a.set(2, DiskHealth::Offline);
        a.set(5, DiskHealth::Degraded { load_factor: 300 });
        let mut b = HealthMap::all_healthy();
        b.set(5, DiskHealth::Degraded { load_factor: 300 });
        b.set(2, DiskHealth::Offline);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.set(5, DiskHealth::Degraded { load_factor: 200 });
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.set(5, DiskHealth::Healthy);
        b.set(2, DiskHealth::Healthy);
        assert_eq!(b.fingerprint(), HealthMap::HEALTHY_FINGERPRINT);
    }

    #[test]
    fn degraded_apply_scales_cost_and_load() {
        let d = Disk {
            spec: CHEETAH, // 6.1 ms access
            network_delay: Micros::from_millis(2),
            initial_load: Micros::from_millis(4),
        };
        let mut map = HealthMap::all_healthy();
        map.set(0, DiskHealth::Degraded { load_factor: 200 });
        let scaled = map.apply(0, &d);
        assert_eq!(scaled.cost(), Micros::from_tenths_ms(122));
        assert_eq!(scaled.initial_load, Micros::from_millis(8));
        // Network delay is a property of the path, not the disk.
        assert_eq!(scaled.network_delay, d.network_delay);
        // Healthy and offline disks pass through unchanged.
        assert_eq!(map.apply(1, &d), d);
        map.set(2, DiskHealth::Offline);
        assert_eq!(map.apply(2, &d), d);
        // Factors below 100 never speed a disk up.
        map.set(3, DiskHealth::Degraded { load_factor: 10 });
        assert_eq!(map.apply(3, &d).cost(), d.cost());
    }

    #[test]
    fn injector_replays_outage_and_recovery() {
        let mut inj = FaultInjector::new();
        inj.schedule(Micros::from_millis(10), 2, DiskHealth::Offline);
        inj.schedule(Micros::from_millis(30), 2, DiskHealth::Healthy);
        inj.schedule(
            Micros::from_millis(20),
            0,
            DiskHealth::Degraded { load_factor: 400 },
        );
        let mut map = HealthMap::all_healthy();
        inj.health_at(Micros::from_millis(5), &mut map);
        assert!(map.all_up());
        inj.health_at(Micros::from_millis(10), &mut map);
        assert!(map.is_offline(2));
        inj.health_at(Micros::from_millis(25), &mut map);
        assert!(map.is_offline(2));
        assert_eq!(map.health(0), DiskHealth::Degraded { load_factor: 400 });
        inj.health_at(Micros::from_millis(31), &mut map);
        assert!(!map.is_offline(2));
        assert_eq!(
            inj.next_change_after(Micros::from_millis(10)),
            Some(Micros::from_millis(20))
        );
        assert_eq!(inj.next_change_after(Micros::from_millis(30)), None);
    }

    #[test]
    fn random_outages_are_seeded_and_sized() {
        let a = FaultInjector::random_outages(7, 20, 0.25, Micros::from_millis(5), None);
        let b = FaultInjector::random_outages(7, 20, 0.25, Micros::from_millis(5), None);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 5);
        let disks: std::collections::BTreeSet<usize> = a.events().iter().map(|e| e.disk).collect();
        assert_eq!(disks.len(), 5, "distinct disks");
        let c = FaultInjector::random_outages(8, 20, 0.25, Micros::from_millis(5), None);
        assert_ne!(a.events(), c.events(), "different seed, different wave");
        // With recovery, each failed disk gets a paired heal event.
        let r = FaultInjector::random_outages(
            7,
            20,
            0.25,
            Micros::from_millis(5),
            Some(Micros::from_millis(10)),
        );
        assert_eq!(r.events().len(), 10);
        let mut map = HealthMap::all_healthy();
        r.health_at(Micros::from_millis(20), &mut map);
        assert!(map.all_up(), "everyone recovered by 15ms");
    }

    #[test]
    fn pinned_injector_reproduces_the_map_at_any_time() {
        let mut health = HealthMap::all_healthy();
        health.set(1, DiskHealth::Offline);
        health.set(4, DiskHealth::Degraded { load_factor: 150 });
        let inj = FaultInjector::pinned(&health);
        let mut out = HealthMap::all_healthy();
        for ms in [0u64, 7, 1000] {
            inj.health_at(Micros::from_millis(ms), &mut out);
            assert_eq!(out.fingerprint(), health.fingerprint(), "t={ms}ms");
        }
    }

    #[test]
    fn degraded_submit_serves_what_it_can() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let buckets = RangeQuery::new(0, 0, 3, 2).buckets(7);
        // Take both replicas of bucket (0,0) down; the other five buckets
        // keep at least one live copy.
        let b = Bucket::new(0, 0);
        let dead: Vec<usize> = alloc.replicas(b).iter().collect();
        let health = HealthMap::with_offline(&dead);
        let out = RetrievalSession::new(&system, &alloc, PushRelabelBinary)
            .submit_degraded(Micros::ZERO, &buckets, &health)
            .unwrap();
        assert!(!out.is_complete());
        assert_eq!(out.unservable, vec![b]);
        assert_eq!(
            out.outcome.schedule.len() + out.unservable.len(),
            buckets.len()
        );
        assert_partial_outcome_valid(&system, &alloc, &health, &buckets, &out);
    }

    #[test]
    fn degraded_submit_with_all_disks_down_serves_nothing() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let buckets = RangeQuery::new(0, 0, 2, 2).buckets(7);
        let health = HealthMap::with_offline(&(0..14).collect::<Vec<_>>());
        let out = RetrievalSession::new(&system, &alloc, PushRelabelBinary)
            .submit_degraded(Micros::ZERO, &buckets, &health)
            .unwrap();
        assert_eq!(out.outcome.schedule.len(), 0);
        assert_eq!(out.unservable.len(), buckets.len());
        assert_eq!(out.outcome.response_time, Micros::ZERO);
        assert_partial_outcome_valid(&system, &alloc, &health, &buckets, &out);
    }

    #[test]
    fn degraded_submit_with_no_faults_is_a_full_solve() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let buckets = RangeQuery::new(0, 0, 3, 2).buckets(7);
        let health = HealthMap::all_healthy();
        let out = RetrievalSession::new(&system, &alloc, PushRelabelBinary)
            .submit_degraded(Micros::ZERO, &buckets, &health)
            .unwrap();
        assert!(out.is_complete());
        let full = crate::solver::RetrievalSolver::solve(
            &PushRelabelBinary,
            &crate::network::RetrievalInstance::build(&system, &alloc, &buckets),
        )
        .unwrap();
        assert_eq!(out.outcome.response_time, full.response_time);
    }
}
