//! The persistent [`WorkerPool`] that fused batch drains schedule whole
//! solves on: parked threads, one task batch in flight at a time, the
//! caller joining the claiming loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One claimable slot of a task batch: taken (and run) by exactly one
/// participant.
type TaskSlot = Mutex<Option<Box<dyn FnOnce() + Send>>>;

/// A one-shot batch of independent closures, claimed by an atomic cursor.
///
/// Task closures are lifetime-erased to `'static` by the dispatcher
/// ([`WorkerPool::run_tasks`]); soundness rests on the dispatcher blocking
/// until every task has been claimed, executed and dropped before it
/// returns — no borrow outlives the call that erased it.
struct TaskBatch {
    tasks: Vec<TaskSlot>,
    /// Next unclaimed task index. `fetch_add` claiming means each task runs
    /// exactly once, on whichever participant (worker or caller) gets there
    /// first.
    next: AtomicUsize,
    /// Panic payloads caught from tasks, re-raised on the dispatching
    /// thread once the batch drains (first payload wins).
    panics: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
}

impl std::fmt::Debug for TaskBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskBatch")
            .field("tasks", &self.tasks.len())
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

impl TaskBatch {
    /// Claims and runs tasks until the cursor passes the end. Task panics
    /// are caught and stashed so one poisoned query cannot take down a
    /// worker thread (mirroring the engine's per-query containment).
    fn run_worker(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks.len() {
                break;
            }
            let task = self.tasks[i].lock().unwrap().take();
            if let Some(task) = task {
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                    self.panics.lock().unwrap().push(payload);
                }
            }
        }
    }
}

/// Persistent worker threads, parked between task batches.
///
/// The pool is cheaply cloneable — clones share the same threads — so one
/// pool created at engine build time serves every fused batch drain for
/// the engine's lifetime: no per-drain thread spawns. Batches from
/// concurrent callers are serialized by a dispatch lock; each batch
/// schedules whole independent solves across the threads
/// ([`WorkerPool::run_tasks`]).
///
/// The threads exit when the last clone is dropped.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    shared: Arc<PoolShared>,
    threads: usize,
    /// The host exposes a single hardware thread: a task-batch dispatch
    /// can only time-slice against the caller, so batches run inline.
    solo_host: bool,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

#[derive(Debug)]
struct PoolShared {
    /// Serializes `run_tasks` callers: one batch in flight at a time.
    dispatch: Mutex<()>,
    state: Mutex<PoolState>,
    start: Condvar,
    done: Condvar,
}

#[derive(Debug)]
struct PoolState {
    batch: Option<Arc<TaskBatch>>,
    seq: u64,
    running: usize,
    shutdown: bool,
}

impl WorkerPool {
    /// Spawns `threads` workers (minimum 1).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            dispatch: Mutex::new(()),
            state: Mutex::new(PoolState {
                batch: None,
                seq: 0,
                running: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut last_seq = 0;
                    loop {
                        let batch = {
                            let mut st = shared.state.lock().unwrap();
                            loop {
                                if st.shutdown {
                                    return;
                                }
                                if st.seq != last_seq {
                                    if let Some(batch) = st.batch.clone() {
                                        last_seq = st.seq;
                                        break batch;
                                    }
                                }
                                st = shared.start.wait(st).unwrap();
                            }
                        };
                        batch.run_worker();
                        let mut st = shared.state.lock().unwrap();
                        st.running -= 1;
                        if st.running == 0 {
                            shared.done.notify_all();
                        }
                    }
                })
            })
            .collect();
        let solo_host = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        WorkerPool {
            inner: Arc::new(PoolInner {
                shared,
                threads,
                solo_host,
                handles: Mutex::new(handles),
            }),
        }
    }

    /// Number of worker threads in this pool.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Runs a batch of independent closures across the pool's workers, with
    /// the calling thread participating in the claiming loop. Blocks until
    /// every task has run; if any task panicked, the first panic payload is
    /// re-raised on the caller *after* the batch fully drains (the
    /// remaining tasks still run — one poisoned solve does not starve its
    /// batchmates).
    ///
    /// Tasks may borrow from the caller's stack (`'env`): the lifetime is
    /// erased internally, which is sound because this call does not return
    /// until every closure has been executed and dropped.
    ///
    /// Deadlock rule: a task must not dispatch onto the *same* pool (the
    /// dispatch lock is held for the whole batch).
    pub fn run_tasks<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        match tasks.len() {
            0 => return,
            1 => {
                // One task gains nothing from the handshake: run inline
                // (panics propagate naturally).
                let task = tasks.into_iter().next().expect("len checked");
                task();
                return;
            }
            _ => {}
        }
        if self.inner.solo_host {
            // One hardware thread: waking parked workers just to contend
            // with the caller is pure handshake loss. Drain the batch on
            // the caller with identical semantics — every task runs, the
            // first panic is re-raised after the drain.
            let mut first_panic = None;
            for task in tasks {
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
            return;
        }
        let erased: Vec<TaskSlot> = tasks
            .into_iter()
            .map(|t| {
                // SAFETY: only the lifetime bound changes. The batch is
                // fully drained (every closure executed and dropped)
                // before this function returns — see `dispatch` — so no
                // erased borrow outlives `'env`.
                let t: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(t) };
                Mutex::new(Some(t))
            })
            .collect();
        let batch = Arc::new(TaskBatch {
            tasks: erased,
            next: AtomicUsize::new(0),
            panics: Mutex::new(Vec::new()),
        });
        self.dispatch(&batch);
        let payload = batch.panics.lock().unwrap().drain(..).next();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Hands `batch` to the parked workers, joins the claiming loop on the
    /// dispatching thread — the caller is an extra worker, not an idle
    /// spectator — and blocks until every worker reports done.
    fn dispatch(&self, batch: &Arc<TaskBatch>) {
        let shared = &self.inner.shared;
        let _dispatch = shared.dispatch.lock().unwrap();
        {
            let mut st = shared.state.lock().unwrap();
            st.batch = Some(Arc::clone(batch));
            st.seq += 1;
            st.running = self.inner.threads;
        }
        shared.start.notify_all();
        batch.run_worker();
        let mut st = shared.state.lock().unwrap();
        while st.running > 0 {
            st = shared.done.wait(st).unwrap();
        }
        st.batch = None;
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.start.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_tasks_executes_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        let mut out = [0u64; 16];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || *slot = (i as u64 + 1) * 10) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_tasks(tasks);
        }
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64 + 1) * 10, "task {i}");
        }
    }

    #[test]
    fn run_tasks_single_task_runs_inline() {
        let pool = WorkerPool::new(2);
        let mut hit = false;
        pool.run_tasks(vec![
            Box::new(|| hit = true) as Box<dyn FnOnce() + Send + '_>
        ]);
        assert!(hit);
        pool.run_tasks(Vec::new()); // empty batch is a no-op
    }

    #[test]
    fn run_tasks_panic_is_reraised_and_batchmates_still_run() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i| {
                    let done = Arc::clone(&done);
                    Box::new(move || {
                        if i == 3 {
                            panic!("task 3 poisoned");
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_tasks(tasks);
        }));
        assert!(result.is_err(), "panic must re-raise on the dispatcher");
        // The batch drains fully before the re-raise.
        assert_eq!(done.load(Ordering::SeqCst), 7);
        // The pool survives: fresh batches still run.
        let mut again = 0usize;
        pool.run_tasks(
            (0..4)
                .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
                .collect(),
        );
        pool.run_tasks(vec![Box::new(|| again = 1) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(again, 1);
    }
}
