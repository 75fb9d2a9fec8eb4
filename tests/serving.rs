//! Concurrency stress tests for the serving loop's shutdown/drain
//! ordering — a hand-rolled loom equivalent: many iterations of producer
//! threads racing `ServeHandle::shutdown`, checking the exactly-once
//! resolution invariant every time. The test *finishing* is itself the
//! liveness assertion (no drain deadlock, no lost wakeup).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use replicated_retrieval::prelude::*;

fn tiny_query(k: usize) -> Vec<Bucket> {
    RangeQuery::new(k % 5, (k / 5) % 5, 1, 2).buckets(5)
}

/// Invariant checked on every race iteration: every ticket admitted
/// before the racing shutdown won resolves in exactly one response
/// (claimed or unclaimed), rejected submissions resolve in none, and the
/// counters agree.
#[test]
fn shutdown_races_never_lose_or_duplicate_a_ticket() {
    let system = SystemConfig::homogeneous(replicated_retrieval::storage::specs::CHEETAH, 5);
    let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 12;

    for iteration in 0..60u64 {
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 2);
        // Vary when the shutdown fires relative to the producers: from
        // "immediately" to "after most submissions".
        let shutdown_after = (iteration % 13) * 4;
        let counter = AtomicU64::new(0);
        let submitted_ok = &counter;

        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            std::thread::scope(|s| {
                for p in 0..PRODUCERS {
                    s.spawn(move || {
                        let mut tickets = Vec::new();
                        for k in 0..PER_PRODUCER {
                            let req = QueryRequest::new(p, tiny_query(p * PER_PRODUCER + k));
                            match h.submit(req) {
                                Ok(t) => {
                                    submitted_ok.fetch_add(1, Ordering::Relaxed);
                                    tickets.push(t);
                                }
                                Err(Rejected::ShuttingDown) => {}
                                Err(other) => panic!("unexpected rejection: {other}"),
                            }
                        }
                        tickets
                    });
                }
                let closer = s.spawn(move || {
                    while submitted_ok.load(Ordering::Relaxed) < shutdown_after {
                        std::hint::spin_loop();
                    }
                    h.shutdown();
                });
                closer.join().unwrap();
            });
            // Claim a few responses on the caller side so both the
            // claimed and unclaimed paths are exercised.
            let mut claimed = Vec::new();
            for _ in 0..3 {
                if let Some(r) = h.try_recv() {
                    claimed.push(r.ticket);
                }
            }
            claimed
        });

        let admitted = report.stats.admitted;
        assert_eq!(
            admitted + report.stats.rejected_shutdown,
            (PRODUCERS * PER_PRODUCER) as u64,
            "iteration {iteration}: submissions must split between admitted and ShuttingDown"
        );
        assert_eq!(
            report.stats.completed, admitted,
            "iteration {iteration}: every admitted request resolves"
        );
        let mut seen: HashSet<Ticket> = HashSet::new();
        for t in report
            .output
            .iter()
            .copied()
            .chain(report.unclaimed.iter().map(|r| r.ticket))
        {
            assert!(
                seen.insert(t),
                "iteration {iteration}: duplicate ticket {t:?}"
            );
        }
        assert_eq!(
            seen.len() as u64,
            admitted,
            "iteration {iteration}: responses must cover exactly the admitted tickets"
        );
        assert_eq!(report.stats.errors, 0, "iteration {iteration}");
    }
}

/// Submissions racing the drain itself: shutdown fires while workers are
/// mid-solve with items still queued; everything already admitted must
/// still be served, and post-shutdown submissions must all bounce.
#[test]
fn drain_serves_the_backlog_admitted_before_shutdown() {
    let system = SystemConfig::homogeneous(replicated_retrieval::storage::specs::CHEETAH, 5);
    let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
    for shards in [1usize, 2, 4] {
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, shards);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            let mut admitted = 0u64;
            for k in 0..40usize {
                if h.submit(QueryRequest::new(k % 6, tiny_query(k))).is_ok() {
                    admitted += 1;
                }
            }
            h.shutdown();
            for k in 0..10usize {
                assert_eq!(
                    h.submit(QueryRequest::new(k, tiny_query(k))).unwrap_err(),
                    Rejected::ShuttingDown
                );
            }
            admitted
        });
        assert_eq!(
            report.output, 40,
            "{shards} shards: all pre-shutdown admitted"
        );
        assert_eq!(
            report.stats.completed, 40,
            "{shards} shards: backlog drained"
        );
        assert_eq!(report.stats.rejected_shutdown, 10);
        assert!(report.unclaimed.iter().all(|r| r.result.is_ok()));
    }
}

/// A `batch_max` or `queue_capacity` of 0, set through `ServeConfig`'s
/// public fields, must still admit and answer every request, as with
/// both at 1. The serve runs on its own thread so that a worker stuck on
/// empty drains fails the test in seconds instead of stalling it.
#[test]
fn zeroed_batch_max_and_queue_capacity_still_serve() {
    let (tx, rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let system = SystemConfig::homogeneous(replicated_retrieval::storage::specs::CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
        for zero_capacity in [false, true] {
            let mut config = ServeConfig::default().virtual_time();
            config.batch_max = 0;
            if zero_capacity {
                config.queue_capacity = 0;
            }
            let report = engine.serve(config, |h| h.submit(QueryRequest::new(0, tiny_query(0))));
            let served = report.output.is_ok()
                && report.stats.completed == 1
                && report.unclaimed.len() == 1
                && report.unclaimed[0].result.is_ok();
            let _ = tx.send((zero_capacity, served));
        }
    });
    for zero_capacity in [false, true] {
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("serve returned within 10 s");
        assert_eq!(
            got,
            (zero_capacity, true),
            "queue capacity 0: {zero_capacity}"
        );
    }
    server.join().expect("serve thread");
}
