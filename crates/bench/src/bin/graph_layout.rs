//! Old layout vs the CSR residual arena, on retrieval-shaped networks
//! scaled up from the paper's Table II system (7x7 grid, 14 disks).
//!
//! The headline (`cold_speedup`, gated in CI) compares two full stacks on
//! identical instances:
//!
//! * **legacy** — a faithful copy of the pre-arena `FlowGraph`
//!   (`adj: Vec<Vec<u32>>`, one heap vector per vertex) and its FIFO
//!   push-relabel, with the bounds-checked accessors that code used,
//!   reproduced here because the refactor deleted the originals;
//! * **shipped** — today's `FlowGraph` (position-major CSR arena, built
//!   through one appender as the retrieval builders do) driven by
//!   `rds_flow::push_relabel`, on the wide (`i64`) and the compact
//!   (`i32`) arena (`compact_speedup`, also gated in CI).
//!
//! Push-relabel is the engine the retrieval drivers default to, and its
//! discharge order is scattered (unlike Dinic's BFS sweeps), so it is the
//! workload where adjacency layout actually matters.
//!
//! A *cold* solve builds the graph from nothing and solves (the per-query
//! cost before workspaces warm up); a *steady* solve rebuilds in place,
//! reusing buffers. The six arms (three stacks, cold and steady) rotate
//! their order round by round, so clock drift hits every arm alike, and
//! each speed-up is the median of its per-round paired ratio.
//!
//! ```text
//! cargo run --release -p rds-bench --bin graph_layout -- [--repeat 10] [--rounds 3]
//! ```
//!
//! Writes `results/graph_layout.txt` and `BENCH_graph_layout.json`.

use rds_bench::rig::{self, Record, Rounds};
use rds_flow::graph::{ArenaIndex, FlowGraph};
use rds_flow::push_relabel::PushRelabel;
use rds_util::SplitMix64;
use std::process::ExitCode;

/// One directed arc of the input network; both residual slots are derived
/// from it, exactly as `FlowGraph::add_edge` does.
#[derive(Clone, Copy)]
struct Arc {
    from: u32,
    to: u32,
    cap: i64,
}

/// A retrieval-shaped instance: source -> g*g buckets -> 2g disks -> sink,
/// `REPLICAS` distinct replica arcs per bucket, disk arcs capped at the
/// balanced budget. The g = 7 rung is the paper's Table II shape; larger
/// rungs scale the same topology until it falls out of cache.
struct Instance {
    grid: usize,
    n: usize,
    arcs: Vec<Arc>,
    source: usize,
    sink: usize,
}

const REPLICAS: usize = 3;

fn build_instance(grid: usize, seed: u64) -> Instance {
    let q = grid * grid;
    let disks = 2 * grid;
    let n = q + disks + 2;
    let (source, sink) = (0, n - 1);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut arcs = Vec::with_capacity(q * (1 + REPLICAS) + disks);
    for b in 0..q {
        arcs.push(Arc {
            from: source as u32,
            to: (1 + b) as u32,
            cap: 1,
        });
        let mut chosen = [usize::MAX; REPLICAS];
        for slot in 0..REPLICAS {
            let mut d = rng.gen_range(0..disks);
            while chosen[..slot].contains(&d) {
                d = rng.gen_range(0..disks);
            }
            chosen[slot] = d;
            arcs.push(Arc {
                from: (1 + b) as u32,
                to: (1 + q + d) as u32,
                cap: 1,
            });
        }
    }
    let budget = (q / disks + 1) as i64;
    for d in 0..disks {
        arcs.push(Arc {
            from: (1 + q + d) as u32,
            to: sink as u32,
            cap: budget,
        });
    }
    Instance {
        grid,
        n,
        arcs,
        source,
        sink,
    }
}

// ---------------------------------------------------------------------------
// The pre-arena stack, reproduced from the repository history: adjacency
// as one `Vec<u32>` per vertex, bounds-checked accessors, and the FIFO
// push-relabel that ran on it. This is the "old layout" arm of the
// headline.
// ---------------------------------------------------------------------------

mod legacy {
    /// The pre-arena `FlowGraph`: per-vertex adjacency vectors over flat
    /// `head`/`cap`/`flow`, checked indexing throughout.
    #[derive(Default)]
    pub struct LegacyGraph {
        adj: Vec<Vec<u32>>,
        head: Vec<u32>,
        cap: Vec<i64>,
        flow: Vec<i64>,
    }

    impl LegacyGraph {
        pub fn new(n: usize) -> Self {
            LegacyGraph {
                adj: vec![Vec::new(); n],
                head: Vec::new(),
                cap: Vec::new(),
                flow: Vec::new(),
            }
        }

        /// The old `reset`: clears lengths, keeps every buffer's capacity
        /// (including the per-vertex vectors).
        pub fn reset(&mut self, n: usize) {
            if self.adj.len() < n {
                self.adj.resize_with(n, Vec::new);
            }
            self.adj.truncate(n);
            for list in &mut self.adj {
                list.clear();
            }
            self.head.clear();
            self.cap.clear();
            self.flow.clear();
        }

        pub fn add_edge(&mut self, u: usize, v: usize, cap: i64) -> usize {
            let e = self.head.len();
            self.adj[u].push(e as u32);
            self.adj[v].push((e + 1) as u32);
            self.head.extend([v as u32, u as u32]);
            self.cap.extend([cap, 0]);
            self.flow.extend([0, 0]);
            e
        }

        pub fn num_vertices(&self) -> usize {
            self.adj.len()
        }

        pub fn num_edge_slots(&self) -> usize {
            self.head.len()
        }

        pub fn zero_flows(&mut self) {
            self.flow.iter_mut().for_each(|f| *f = 0);
        }

        pub fn out_edges(&self, v: usize) -> &[u32] {
            &self.adj[v]
        }

        pub fn target(&self, e: usize) -> usize {
            self.head[e] as usize
        }

        pub fn residual(&self, e: usize) -> i64 {
            self.cap[e] - self.flow[e]
        }

        pub fn push(&mut self, e: usize, delta: i64) {
            self.flow[e] += delta;
            self.flow[e ^ 1] -= delta;
        }

        /// The old `copy_from`: `clone_from` per field — which for the
        /// adjacency means one `Vec<u32>` clone per vertex (an allocation
        /// each on a fresh workspace).
        pub fn copy_from(&mut self, other: &LegacyGraph) {
            self.adj.clone_from(&other.adj);
            self.head.clone_from(&other.head);
            self.cap.clone_from(&other.cap);
            self.flow.clone_from(&other.flow);
        }
    }

    use std::collections::VecDeque;

    /// Work between global relabels, as the pre-arena solver had it.
    const GLOBAL_RELABEL_WORK_FACTOR: u64 = 6;

    /// The pre-arena FIFO push-relabel (gap + global-relabel heuristics),
    /// verbatim from repo history modulo the graph type and the dropped
    /// resume/snapshot surface the bench does not exercise.
    #[derive(Default)]
    pub struct LegacyPushRelabel {
        height: Vec<u32>,
        excess: Vec<i64>,
        cur_arc: Vec<u32>,
        queue: VecDeque<u32>,
        in_queue: Vec<bool>,
        height_count: Vec<u32>,
        bfs_queue: Vec<u32>,
        work: u64,
        pushes: u64,
        relabels: u64,
    }

    impl LegacyPushRelabel {
        pub fn new() -> Self {
            Self::default()
        }

        /// Keeps the operation counters observable so the optimizer cannot
        /// delete the bookkeeping the shipped solver also performs.
        pub fn ops(&self) -> u64 {
            self.pushes + self.relabels
        }

        fn ensure(&mut self, n: usize) {
            if self.height.len() < n {
                self.height.resize(n, 0);
                self.excess.resize(n, 0);
                self.cur_arc.resize(n, 0);
                self.in_queue.resize(n, false);
            }
            if self.height_count.len() < 2 * n + 1 {
                self.height_count.resize(2 * n + 1, 0);
            }
        }

        pub fn max_flow(&mut self, g: &mut LegacyGraph, s: usize, t: usize) -> i64 {
            let n = g.num_vertices();
            g.zero_flows();
            self.ensure(n);
            self.excess.iter_mut().for_each(|e| *e = 0);
            self.queue.clear();
            self.in_queue.iter_mut().for_each(|b| *b = false);

            for i in 0..g.out_edges(s).len() {
                let e = g.out_edges(s)[i] as usize;
                let delta = g.residual(e);
                if delta > 0 {
                    let v = g.target(e);
                    g.push(e, delta);
                    self.excess[v] += delta;
                }
            }
            self.height.iter_mut().for_each(|h| *h = 0);
            self.height[s] = n as u32;
            self.excess[s] = 0;
            self.cur_arc.iter_mut().for_each(|a| *a = 0);
            self.height_count.iter_mut().for_each(|c| *c = 0);
            self.height_count[0] = (n - 1) as u32;
            self.height_count[n] += 1;

            for v in 0..n {
                if v != s && v != t && self.excess[v] > 0 {
                    self.queue.push_back(v as u32);
                    self.in_queue[v] = true;
                }
            }
            if !self.queue.is_empty() {
                self.global_relabel(g, s, t);
            }
            self.work = 0;

            let m = g.num_edge_slots() as u64;
            let relabel_threshold = GLOBAL_RELABEL_WORK_FACTOR * m.max(n as u64);
            while let Some(v) = self.queue.pop_front() {
                let v = v as usize;
                self.in_queue[v] = false;
                self.discharge(g, v, s, t);
                if self.work >= relabel_threshold {
                    self.work = 0;
                    self.global_relabel(g, s, t);
                }
            }
            self.excess[t]
        }

        fn discharge(&mut self, g: &mut LegacyGraph, v: usize, s: usize, t: usize) {
            let n = g.num_vertices() as u32;
            while self.excess[v] > 0 {
                let edges_len = g.out_edges(v).len();
                if (self.cur_arc[v] as usize) >= edges_len {
                    if !self.relabel(g, v, n) {
                        break;
                    }
                    if self.height[v] > 2 * n {
                        break;
                    }
                    continue;
                }
                let e = g.out_edges(v)[self.cur_arc[v] as usize] as usize;
                self.work += 1;
                let w = g.target(e);
                if g.residual(e) > 0 && self.height[v] == self.height[w] + 1 {
                    let delta = self.excess[v].min(g.residual(e));
                    g.push(e, delta);
                    self.excess[v] -= delta;
                    self.excess[w] += delta;
                    self.pushes += 1;
                    if w != s && w != t && !self.in_queue[w] {
                        self.queue.push_back(w as u32);
                        self.in_queue[w] = true;
                    }
                } else {
                    self.cur_arc[v] += 1;
                }
            }
        }

        fn relabel(&mut self, g: &LegacyGraph, v: usize, n: u32) -> bool {
            let mut min_h = u32::MAX;
            for &e in g.out_edges(v) {
                let e = e as usize;
                self.work += 1;
                if g.residual(e) > 0 {
                    min_h = min_h.min(self.height[g.target(e)]);
                }
            }
            if min_h == u32::MAX {
                return false;
            }
            let old = self.height[v];
            let new = min_h + 1;
            self.relabels += 1;
            self.height[v] = new;
            self.cur_arc[v] = 0;
            self.height_count[old as usize] -= 1;
            if (new as usize) < self.height_count.len() {
                self.height_count[new as usize] += 1;
            }
            if self.height_count[old as usize] == 0 && old < n {
                self.apply_gap(old, n);
            }
            true
        }

        fn apply_gap(&mut self, gap: u32, n: u32) {
            for v in 0..self.height.len() {
                let h = self.height[v];
                if h > gap && h < n {
                    self.height_count[h as usize] -= 1;
                    self.height[v] = n + 1;
                    self.height_count[(n + 1) as usize] += 1;
                    self.cur_arc[v] = 0;
                }
            }
        }

        fn global_relabel(&mut self, g: &LegacyGraph, s: usize, t: usize) {
            let n = g.num_vertices();
            const UNSEEN: u32 = u32::MAX;
            self.height.iter_mut().for_each(|h| *h = UNSEEN);

            self.bfs_queue.clear();
            self.height[t] = 0;
            self.bfs_queue.push(t as u32);
            let mut head = 0;
            while head < self.bfs_queue.len() {
                let w = self.bfs_queue[head] as usize;
                head += 1;
                let dw = self.height[w];
                for &e in g.out_edges(w) {
                    let e = e as usize;
                    let u = g.target(e);
                    if self.height[u] == UNSEEN && g.residual(e ^ 1) > 0 && u != s {
                        self.height[u] = dw + 1;
                        self.bfs_queue.push(u as u32);
                    }
                }
            }
            let base = n as u32;
            self.bfs_queue.clear();
            self.height[s] = base;
            self.bfs_queue.push(s as u32);
            head = 0;
            while head < self.bfs_queue.len() {
                let w = self.bfs_queue[head] as usize;
                head += 1;
                let dw = self.height[w];
                for &e in g.out_edges(w) {
                    let e = e as usize;
                    let u = g.target(e);
                    if self.height[u] == UNSEEN && g.residual(e ^ 1) > 0 {
                        self.height[u] = dw + 1;
                        self.bfs_queue.push(u as u32);
                    }
                }
            }
            for h in self.height.iter_mut() {
                if *h == UNSEEN {
                    *h = 2 * base;
                }
            }
            self.height_count.iter_mut().for_each(|c| *c = 0);
            for v in 0..n {
                let h = self.height[v] as usize;
                if h < self.height_count.len() {
                    self.height_count[h] += 1;
                }
            }
            self.cur_arc.iter_mut().for_each(|a| *a = 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// The six timed arms, in their [`Rounds`] order.
const ARMS: [&str; 6] = [
    "legacy_cold",
    "shipped_cold",
    "compact_cold",
    "legacy_steady",
    "shipped_steady",
    "compact_steady",
];
const LEGACY_COLD: usize = 0;
const SHIPPED_COLD: usize = 1;
const COMPACT_COLD: usize = 2;
const LEGACY_STEADY: usize = 3;
const SHIPPED_STEADY: usize = 4;

/// Builds the production arena exactly as the retrieval drivers do,
/// monomorphized over the cap/flow word width.
fn build_production<W: ArenaIndex>(g: &mut FlowGraph<W>, inst: &Instance) {
    g.reset(inst.n);
    // The production builders pre-size the arena from the known
    // topology bound (see `RetrievalInstance::rebuild_with_health`);
    // the bench knows the arc count exactly.
    g.reserve_edges(inst.arcs.len());
    let mut arcs = g.appender();
    for a in &inst.arcs {
        arcs.add_edge(a.from as usize, a.to as usize, a.cap);
    }
    g.finalize();
}

/// One cycle of the production stack: build `inst` into `g`, copy it
/// into the workspace scratch graph, solve on the copy.
fn production_cycle<W: ArenaIndex>(
    g: &mut FlowGraph<W>,
    scratch: &mut FlowGraph<W>,
    inst: &Instance,
    pr: &mut PushRelabel,
) -> i64 {
    build_production(g, inst);
    scratch.copy_from(g);
    pr.max_flow(scratch, inst.source, inst.sink)
}

/// Times every arm on `inst`: `repeat` rotated rounds, each sample the
/// mean of `rounds` cycles. Returns the samples and the max-flow value
/// all three stacks agree on.
fn time_stacks(inst: &Instance, repeat: usize, rounds: usize) -> (Rounds, i64) {
    // Each cycle reproduces the full solve pipeline: build the instance's
    // network, copy it into a workspace scratch graph (`Workspace::begin`),
    // solve on the copy. Cold uses a fresh workspace each time — exactly
    // what the `solve()` convenience did per call pre-arena; steady reuses
    // both the instance graph and the workspace scratch.
    let (s, t) = (inst.source, inst.sink);
    let legacy_cycle = |g: &mut legacy::LegacyGraph,
                        scratch: &mut legacy::LegacyGraph,
                        pr: &mut legacy::LegacyPushRelabel| {
        g.reset(inst.n);
        for a in &inst.arcs {
            g.add_edge(a.from as usize, a.to as usize, a.cap);
        }
        scratch.copy_from(g);
        pr.max_flow(scratch, s, t)
    };

    let mut lpr = legacy::LegacyPushRelabel::new();
    let mut spr = PushRelabel::new();
    let (mut linst, mut lscratch) = (legacy::LegacyGraph::default(), Default::default());
    let (mut sinst, mut sscratch) = (FlowGraph::<i64>::new(0), FlowGraph::new(0));
    let (mut cinst, mut cscratch) = (FlowGraph::<i32>::new(0), FlowGraph::new(0));
    let flow = legacy_cycle(&mut linst, &mut lscratch, &mut lpr);
    let shipped_flow = production_cycle(&mut sinst, &mut sscratch, inst, &mut spr);
    let compact_flow = production_cycle(&mut cinst, &mut cscratch, inst, &mut spr);
    assert_eq!(flow, shipped_flow, "stacks disagree on grid {}", inst.grid);
    assert_eq!(flow, compact_flow, "widths disagree on grid {}", inst.grid);

    // One sample: `rounds` cycles of one arm, per cycle.
    let samples = rig::alternate(repeat, ARMS.len(), |arm| {
        let cycles = rig::timed(|| {
            for _ in 0..rounds {
                let got = match arm {
                    LEGACY_COLD => legacy_cycle(
                        &mut legacy::LegacyGraph::new(inst.n),
                        &mut legacy::LegacyGraph::default(),
                        &mut lpr,
                    ),
                    SHIPPED_COLD => production_cycle(
                        &mut FlowGraph::<i64>::new(inst.n),
                        &mut FlowGraph::new(0),
                        inst,
                        &mut spr,
                    ),
                    COMPACT_COLD => production_cycle(
                        &mut FlowGraph::<i32>::new(inst.n),
                        &mut FlowGraph::new(0),
                        inst,
                        &mut spr,
                    ),
                    LEGACY_STEADY => legacy_cycle(&mut linst, &mut lscratch, &mut lpr),
                    SHIPPED_STEADY => production_cycle(&mut sinst, &mut sscratch, inst, &mut spr),
                    _ => production_cycle(&mut cinst, &mut cscratch, inst, &mut spr),
                };
                assert_eq!(got, flow);
            }
        });
        cycles / rounds as u32
    });
    std::hint::black_box((lpr.ops(), spr.stats));
    (samples, flow)
}

fn main() -> ExitCode {
    let (mut repeat, mut rounds) = (10usize, 3usize);
    rig::parse(
        "graph_layout",
        &mut [("--repeat", &mut repeat), ("--rounds", &mut rounds)],
    );
    let rounds = rounds.max(1);

    // Table II shape (7x7 grid, 14 disks) and cache-pressure scalings of
    // the same topology; the gated speed-ups are read at the largest.
    let grids = [7usize, 14, 28, 56, 112];
    let mut rows = Vec::new();
    let mut last = None;
    for (i, &grid) in grids.iter().enumerate() {
        let inst = build_instance(grid, 0x7AB1E2 + i as u64);
        let (samples, flow) = time_stacks(&inst, repeat, rounds);
        let mut row = Record::default()
            .int("grid", grid as u64)
            .int("vertices", inst.n as u64)
            .int("edge_slots", inst.arcs.len() as u64 * 2)
            .int("flow", flow as u64);
        for (arm, name) in ARMS.iter().enumerate() {
            row = row.stat(&format!("{name}_ms"), samples.ms(arm), 4);
        }
        rows.push(row);
        last = Some(samples);
    }
    let last = last.expect("at least one rung");

    Record::new("graph_layout", repeat)
        .note(
            "legacy: pre-arena Vec-of-Vecs stack; shipped/compact: CSR arena on i64/i32; speed-ups at grid 112",
        )
        .int("rounds", rounds as u64)
        .stat("cold_speedup", last.ratio(LEGACY_COLD, SHIPPED_COLD), 3)
        .stat(
            "steady_speedup",
            last.ratio(LEGACY_STEADY, SHIPPED_STEADY),
            3,
        )
        .stat("compact_speedup", last.ratio(SHIPPED_COLD, COMPACT_COLD), 3)
        .rows("rungs", rows)
        .write()
}
