//! Residual flow-graph arena in compressed-sparse-row (CSR) layout.
//!
//! Edges are stored in pairs: for every forward edge `e` added through
//! [`FlowGraph::add_edge`], the reverse (residual) edge is `e ^ 1`. The
//! reverse edge has capacity 0 and its flow mirrors the forward edge's flow
//! negated, so `residual(e ^ 1) == flow(e)`.
//!
//! Capacities are mutable after construction ([`FlowGraph::set_cap`]): the
//! integrated retrieval algorithms of the paper repeatedly *increase*
//! disk-edge capacities while keeping the flow computed so far, so the graph
//! is designed to keep flow and capacity as separate arrays rather than a
//! single residual-capacity array.
//!
//! # Layout
//!
//! The arena is *position-major*. A vertex owns the contiguous range of
//! adjacency positions `adj_index[v]..adj_index[v + 1]`, and every residual
//! slot's state lives at its position: `target[p]`, `cap[p]`, `flow[p]`,
//! plus `mate[p]`, the position of the paired slot. A solver walking a
//! vertex's arcs therefore reads four arrays in order instead of chasing an
//! edge id into scattered per-id arrays, and a push updates `flow[p]` and
//! `flow[mate[p]]` without touching an id at all.
//!
//! Edge ids remain the public handle. `id_at[p]` is the edge id stored at
//! position `p` (so [`FlowGraph::out_edges`] is a slice of it) and
//! `pos_of[e]` the position of edge `e`; the id accessors
//! ([`FlowGraph::cap`], [`FlowGraph::flow`], [`FlowGraph::push`], ...)
//! go through `pos_of`, the crate's solver walks use positions directly.
//!
//! Topology mutation ([`FlowGraph::add_edge`]) appends a slot pair at
//! positions equal to its ids and marks the CSR index stale;
//! [`FlowGraph::finalize`] groups the slots by owning vertex with a
//! *stable* counting sort in `O(n + m)` and moves every slot's state to its
//! new position, using only reused buffers. Stability matters: per-vertex
//! position order is exactly ascending edge id — the insertion order the
//! old `Vec<Vec<u32>>` layout produced — so every solver's traversal order,
//! and its operation counts, are unchanged. Solver entry points (which take
//! `&mut FlowGraph`) finalize automatically; [`FlowGraph::out_edges`]
//! panics on a stale index rather than returning stale adjacency.
//!
//! # Width
//!
//! The capacity/flow arrays are generic over an [`ArenaIndex`] width: `i64`
//! (the default, and the width of every public snapshot) or `i32` (the
//! *compact* layout — half the per-slot cap/flow footprint, which the
//! graph_layout bench measures at ~1.4x on paper-scale instances). The
//! width is monomorphized — no dyn dispatch anywhere on the hot path — and
//! every accessor keeps an `i64` signature: values widen on load and narrow
//! (debug-checked) on store, so solver code is width-oblivious. Safety rests
//! on the invariants `0 <= flow(e) <= cap(e)` for forward slots and
//! `-cap(e ^ 1) <= flow(e) <= 0` for reverse slots: whenever every capacity
//! fits the width, every flow and residual does too. Callers pick the width
//! per instance from its capacity bound (see `rds-core`'s workspace) and
//! fall back to `i64`; [`FlowGraph::try_copy_from`] narrows checked, with a
//! typed [`WidthOverflow`] instead of a panic.

/// Index of a vertex in a [`FlowGraph`].
pub type VertexId = usize;

/// Index of a directed edge in a [`FlowGraph`]. The reverse edge of `e` is
/// always `e ^ 1`.
pub type EdgeId = usize;

mod sealed {
    pub trait Sealed {}
    impl Sealed for i32 {}
    impl Sealed for i64 {}
}

/// Storage width of a [`GraphArena`]'s capacity/flow arrays.
///
/// Sealed: exactly `i32` (compact) and `i64` (wide) implement it. The trait
/// exists only to monomorphize the arena — all arithmetic happens in `i64`
/// at the accessor boundary, so implementors just widen and narrow.
pub trait ArenaIndex:
    sealed::Sealed + Copy + Default + Ord + std::fmt::Debug + Send + Sync + 'static
{
    /// Width name for diagnostics ("i32" / "i64").
    const NAME: &'static str;
    /// Largest representable value, widened.
    const MAX: i64;
    /// Widens to `i64` (lossless).
    fn to_i64(self) -> i64;
    /// Narrows from `i64`. Debug-asserts the value fits; release builds
    /// truncate, which the width-selection rule (capacities bounded well
    /// under [`ArenaIndex::MAX`]) makes unreachable.
    fn from_i64(v: i64) -> Self;
    /// Checked narrowing; `None` when the value does not fit.
    fn try_from_i64(v: i64) -> Option<Self>;
}

impl ArenaIndex for i32 {
    const NAME: &'static str = "i32";
    const MAX: i64 = i32::MAX as i64;
    #[inline(always)]
    fn to_i64(self) -> i64 {
        self as i64
    }
    #[inline(always)]
    fn from_i64(v: i64) -> Self {
        debug_assert!(
            i32::try_from(v).is_ok(),
            "value {v} exceeds the compact (i32) arena width"
        );
        v as i32
    }
    #[inline(always)]
    fn try_from_i64(v: i64) -> Option<Self> {
        i32::try_from(v).ok()
    }
}

impl ArenaIndex for i64 {
    const NAME: &'static str = "i64";
    const MAX: i64 = i64::MAX;
    #[inline(always)]
    fn to_i64(self) -> i64 {
        self
    }
    #[inline(always)]
    fn from_i64(v: i64) -> Self {
        v
    }
    #[inline(always)]
    fn try_from_i64(v: i64) -> Option<Self> {
        Some(v)
    }
}

/// A capacity or flow value did not fit the destination width during a
/// checked cross-width operation ([`FlowGraph::try_copy_from`],
/// [`FlowGraph::try_restore_flows`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WidthOverflow {
    /// Edge slot holding the offending value.
    pub edge: EdgeId,
    /// The value that does not fit.
    pub value: i64,
    /// Name of the destination width (e.g. "i32").
    pub width: &'static str,
}

impl std::fmt::Display for WidthOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "value {} on edge slot {} does not fit the {} arena width",
            self.value, self.edge, self.width
        )
    }
}

impl std::error::Error for WidthOverflow {}

/// The immutable half of a CSR arena: everything that describes the
/// network *shape* and nothing that a solve mutates.
///
/// Every array is width-free (`u32` regardless of the capacity width), so
/// one plane can back both the wide and the compact arena. Planes are held
/// behind an [`std::sync::Arc`] and shared copy-on-write:
/// [`FlowGraph::checkout_plane_from`] shares a finalized plane in O(1),
/// [`FlowGraph::copy_from`] shares one whenever a deep copy would have to
/// allocate, and
/// any later topology mutation on either side ([`FlowGraph::add_edge`],
/// [`FlowGraph::reset`], [`FlowGraph::finalize`] after new edges) detaches
/// a private copy first — a detach counts as an
/// [`GraphArena::allocation_events`] event, which is how the serving
/// layers pin "the epoch plane was never invalidated in steady state".
///
/// Finalized, all four per-slot arrays have one entry per slot. While
/// appends are pending, `target` and `pos_of` cover every slot, `id_at`
/// and `mate` only the slots of the last finalize, and every appended slot
/// sits at the position equal to its id.
#[derive(Clone, Debug, Default)]
pub struct TopologyPlane {
    /// `target[p]` is the head vertex of the slot at position `p`.
    target: Vec<u32>,
    /// `mate[p]` is the position of the paired slot (`e ^ 1` in ids).
    mate: Vec<u32>,
    /// CSR offsets: vertex `v` owns positions `adj_index[v]..adj_index[v+1]`.
    adj_index: Vec<u32>,
    /// `id_at[p]` is the edge id at position `p`; ascending within a vertex.
    id_at: Vec<u32>,
    /// `pos_of[e]` is the position of edge id `e` (inverse of `id_at`).
    pos_of: Vec<u32>,
}

impl TopologyPlane {
    fn capacity(&self) -> usize {
        self.target.capacity()
            + self.mate.capacity()
            + self.adj_index.capacity()
            + self.id_at.capacity()
            + self.pos_of.capacity()
    }

    /// Whether every array can take a copy of `other`'s without growing.
    fn can_hold(&self, other: &TopologyPlane) -> bool {
        self.target.capacity() >= other.target.len()
            && self.mate.capacity() >= other.mate.len()
            && self.adj_index.capacity() >= other.adj_index.len()
            && self.id_at.capacity() >= other.id_at.len()
            && self.pos_of.capacity() >= other.pos_of.len()
    }
}

/// Returns the plane for mutation, detaching a private copy first when it
/// is shared (copy-on-write). A detach is a real allocation, so it counts
/// as a growth event.
#[inline]
fn topo_mut<'a>(
    topo: &'a mut std::sync::Arc<TopologyPlane>,
    grows: &mut u64,
) -> &'a mut TopologyPlane {
    if std::sync::Arc::get_mut(topo).is_none() {
        *grows += 1;
    }
    std::sync::Arc::make_mut(topo)
}

/// The flat reusable buffers backing a [`FlowGraph`].
///
/// The arena is split into two planes: the topology plane
/// ([`TopologyPlane`], immutable per epoch and shareable across graphs of
/// *either* width) and the per-query capacity/flow plane (`cap`/`flow`,
/// position-ordered, private to this arena and mutated by every solve).
///
/// The arena never shrinks: [`FlowGraph::reset`] and
/// [`FlowGraph::copy_from`] clear lengths but keep capacity, so a rebuild of
/// similar size touches no allocator. [`GraphArena::allocation_events`]
/// counts the times any buffer actually grew — steady-state serving layers
/// assert it stays flat (see `rds-core`'s workspace). Detaching a shared
/// topology plane (copy-on-write) counts too: in a healthy epoch it never
/// happens.
#[derive(Clone, Debug, Default)]
pub struct GraphArena<W: ArenaIndex = i64> {
    /// The shared-or-private topology plane. `Clone` on the arena shares it
    /// (copy-on-write); deep copies go through [`FlowGraph::copy_from`].
    topo: std::sync::Arc<TopologyPlane>,
    /// This graph's own private plane, parked while
    /// [`FlowGraph::checkout_plane_from`] shares another graph's; the
    /// graph falls back to it on [`FlowGraph::release_plane`].
    parked: Option<std::sync::Arc<TopologyPlane>>,
    /// Capacity of the slot at each position. Reverse slots have capacity 0.
    cap: Vec<W>,
    /// Flow of the slot at each position; `flow[mate[p]] == -flow[p]`.
    flow: Vec<W>,
    /// The flow plane saved by [`FlowGraph::checkpoint_flows`].
    checkpoint: Vec<W>,
    /// Where [`FlowGraph::finalize`] parks the flows of a graph that
    /// already carries flow while their positions move.
    spare: Vec<W>,
    /// Counting-sort cursors, reused across [`FlowGraph::finalize`] calls.
    cursor: Vec<u32>,
    /// Number of buffer growth events since construction.
    grows: u64,
}

impl<W: ArenaIndex> GraphArena<W> {
    /// Number of times any backing buffer had to grow. Stable across
    /// steady-state rebuild/solve cycles once the arena has seen its
    /// high-water instance size.
    #[inline]
    pub fn allocation_events(&self) -> u64 {
        self.grows
    }

    /// Bytes currently reserved by the arena's buffers (the topology plane
    /// is counted in full even when it is shared with other arenas, and so
    /// is a parked one).
    pub fn reserved_bytes(&self) -> usize {
        use std::mem::size_of;
        let parked = self.parked.as_ref().map_or(0, |p| p.capacity());
        (self.topo.capacity() + parked + self.cursor.capacity()) * size_of::<u32>()
            + (self.cap.capacity()
                + self.flow.capacity()
                + self.checkpoint.capacity()
                + self.spare.capacity())
                * size_of::<W>()
    }
}

/// A flow network with mutable capacities and explicit flow state,
/// stored in a position-major CSR residual arena.
///
/// The graph is append-only in topology (vertices and edges can be added,
/// never removed); capacities and flows are mutable. This matches the
/// retrieval workload: the network shape is fixed per query while disk-edge
/// capacities evolve during the budget search.
///
/// `W` selects the storage width of capacities and flows (see the module
/// docs); the default `i64` keeps every existing `FlowGraph` use unchanged.
#[derive(Clone, Debug, Default)]
pub struct FlowGraph<W: ArenaIndex = i64> {
    arena: GraphArena<W>,
    /// Number of vertices (authoritative; `adj_index` tracks it lazily).
    n: usize,
    /// Whether the CSR index is stale relative to the appended slots.
    dirty: bool,
}

/// Appends edges to a [`FlowGraph`] under a single copy-on-write check of
/// its topology plane, taken when the appender is created
/// ([`FlowGraph::appender`]). Network builders that add thousands of
/// edges in a row use it instead of [`FlowGraph::add_edge`], which pays
/// the check (two atomic operations on the plane's `Arc`) per edge.
#[derive(Debug)]
pub struct EdgeAppender<'a, W: ArenaIndex = i64> {
    topo: &'a mut TopologyPlane,
    cap: &'a mut Vec<W>,
    flow: &'a mut Vec<W>,
    grows: &'a mut u64,
    dirty: &'a mut bool,
    n: usize,
}

impl<W: ArenaIndex> EdgeAppender<'_, W> {
    /// [`FlowGraph::add_edge`] on the borrowed graph: same ids, same
    /// panics, same staleness marking.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, cap: i64) -> EdgeId {
        assert!(u < self.n, "source vertex {u} out of range");
        assert!(v < self.n, "target vertex {v} out of range");
        assert!(cap >= 0, "negative capacity {cap}");
        let t = &mut *self.topo;
        let e = t.target.len();
        let before = t.target.capacity() + t.pos_of.capacity();
        // Appended slots sit at the positions equal to their ids until the
        // next finalize moves them into their owners' ranges.
        t.target.extend_from_slice(&[v as u32, u as u32]);
        t.pos_of.extend_from_slice(&[e as u32, e as u32 + 1]);
        *self.grows += (t.target.capacity() + t.pos_of.capacity() != before) as u64;
        self.cap
            .extend_from_slice(&[W::from_i64(cap), W::default()]);
        self.flow.extend_from_slice(&[W::default(); 2]);
        *self.dirty = true;
        e
    }
}

impl<W: ArenaIndex> FlowGraph<W> {
    /// Creates an empty graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        let mut g = FlowGraph::default();
        g.reset(n);
        g
    }

    /// Creates an empty graph with `n` vertices, reserving space for
    /// `edges` forward edges (twice that many edge slots).
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        let mut g = FlowGraph {
            arena: GraphArena {
                topo: std::sync::Arc::new(TopologyPlane {
                    target: Vec::with_capacity(2 * edges),
                    mate: Vec::with_capacity(2 * edges),
                    adj_index: Vec::with_capacity(n + 1),
                    id_at: Vec::with_capacity(2 * edges),
                    pos_of: Vec::with_capacity(2 * edges),
                }),
                parked: None,
                cap: Vec::with_capacity(2 * edges),
                flow: Vec::with_capacity(2 * edges),
                checkpoint: Vec::new(),
                spare: Vec::new(),
                cursor: Vec::with_capacity(n),
                grows: 0,
            },
            n: 0,
            dirty: false,
        };
        g.reset(n);
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of directed edge slots (twice the number of added edges).
    #[inline]
    pub fn num_edge_slots(&self) -> usize {
        self.arena.topo.target.len()
    }

    /// Number of forward edges added via [`FlowGraph::add_edge`].
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.arena.topo.target.len() / 2
    }

    /// The backing buffer arena (allocation telemetry).
    #[inline]
    pub fn arena(&self) -> &GraphArena<W> {
        &self.arena
    }

    /// Whether the CSR adjacency index is current. `false` after
    /// [`FlowGraph::add_edge`] until the next [`FlowGraph::finalize`].
    #[inline]
    pub fn is_finalized(&self) -> bool {
        !self.dirty
    }

    /// Adds a vertex and returns its id. Keeps the CSR index valid when it
    /// already is: a new vertex owns no edges, so its offset equals the
    /// running total.
    pub fn add_vertex(&mut self) -> VertexId {
        if !self.dirty {
            let a = &mut self.arena;
            let t = topo_mut(&mut a.topo, &mut a.grows);
            let end = *t.adj_index.last().expect("index has n+1 entries");
            track_grow(&mut a.grows, &mut t.adj_index, |idx| idx.push(end));
        }
        self.n += 1;
        self.n - 1
    }

    /// Pre-sizes the arena for at least `edges` forward edges (twice that
    /// many slots), so a cold build pays one allocation per appended array
    /// instead of doubling growth. Callers that know their topology ahead
    /// (the retrieval network builders do: `q` bucket arcs, at most
    /// `MAX_COPIES` replica arcs per bucket, one arc per disk) should call
    /// this right after [`FlowGraph::reset`].
    ///
    /// The two arrays that [`FlowGraph::finalize`] fills (`id_at`, `mate`)
    /// are not reserved here but grow to the edge count actually added,
    /// so a rebuild allocates only when it adds more edges than every
    /// earlier one. Reserving them to the bound as well would hold memory
    /// that retrieval networks, which add far fewer replica arcs than
    /// `MAX_COPIES` allows, never use, and in a long-running server much
    /// of it ends up resident.
    pub fn reserve_edges(&mut self, edges: usize) {
        let slots = edges * 2;
        let a = &mut self.arena;
        track_grow(&mut a.grows, &mut a.cap, |v| {
            v.reserve(slots.saturating_sub(v.len()))
        });
        track_grow(&mut a.grows, &mut a.flow, |v| {
            v.reserve(slots.saturating_sub(v.len()))
        });
        let t = topo_mut(&mut a.topo, &mut a.grows);
        track_grow(&mut a.grows, &mut t.target, |v| {
            v.reserve(slots.saturating_sub(v.len()))
        });
        track_grow(&mut a.grows, &mut t.pos_of, |v| {
            v.reserve(slots.saturating_sub(v.len()))
        });
    }

    /// Borrows the graph for a run of [`EdgeAppender::add_edge`] calls,
    /// detaching a shared topology plane once, up front (counted in
    /// [`GraphArena::allocation_events`] like any detach).
    pub fn appender(&mut self) -> EdgeAppender<'_, W> {
        let a = &mut self.arena;
        let topo = topo_mut(&mut a.topo, &mut a.grows);
        EdgeAppender {
            topo,
            cap: &mut a.cap,
            flow: &mut a.flow,
            grows: &mut a.grows,
            dirty: &mut self.dirty,
            n: self.n,
        }
    }

    /// Adds a forward edge `u -> v` with capacity `cap` and its paired
    /// reverse edge `v -> u` with capacity 0, and marks the CSR index stale
    /// (see [`FlowGraph::finalize`]). Returns the forward edge id (always
    /// even).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `cap < 0`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, cap: i64) -> EdgeId {
        self.appender().add_edge(u, v, cap)
    }

    /// Rebuilds the CSR adjacency index after topology changes, preserving
    /// per-vertex insertion order (stable counting sort, `O(n + m)`, no
    /// allocations once the arena has grown to size), and moves every
    /// slot's target, capacity and flow to its new position. Idempotent and
    /// cheap when the index is already current.
    ///
    /// Solver entry points call this automatically; only callers that read
    /// [`FlowGraph::out_edges`] directly after [`FlowGraph::add_edge`] need
    /// to invoke it themselves.
    pub fn finalize(&mut self) {
        if !self.dirty {
            return;
        }
        let n = self.n;
        let a = &mut self.arena;
        let t = topo_mut(&mut a.topo, &mut a.grows);
        let m = t.target.len();
        let before = t.capacity() + a.cursor.capacity() + a.spare.capacity();
        // Count slots per owning vertex. The owner of slot e is the target
        // of e ^ 1, so the owners are the targets, counted over all slots.
        t.adj_index.clear();
        t.adj_index.resize(n + 1, 0);
        for &v in &t.target {
            t.adj_index[v as usize + 1] += 1;
        }
        for v in 0..n {
            t.adj_index[v + 1] += t.adj_index[v];
        }
        a.cursor.clear();
        a.cursor.extend_from_slice(&t.adj_index[..n]);
        // Flow is zero on every freshly built network; a graph that already
        // carries flow parks it in `spare`, in edge-id order, while the
        // positions move. Either way the flow plane is then free to stage
        // capacities.
        let carries_flow = a.flow.iter().fold(0, |any, f| any | f.to_i64()) != 0;
        if carries_flow {
            a.spare.clear();
            a.spare.extend(t.pos_of.iter().map(|&p| a.flow[p as usize]));
        }
        // Stable placement, ascending id within each owner: every slot gets
        // its new position in `pos_of`, and `id_at`/`mate` their final
        // entries there. Capacities are staged at the new positions in the
        // flow plane until the old cap plane has been read in full.
        t.id_at.resize(m, 0);
        t.mate.resize(m, 0);
        for (k, pair) in t.pos_of.chunks_exact_mut(2).enumerate() {
            let (pf, pr) = (pair[0] as usize, pair[1] as usize);
            // The forward slot belongs to its reverse slot's target, and
            // the reverse slot to the forward slot's.
            let nf = take_cursor(&mut a.cursor, t.target[pr]);
            let nr = take_cursor(&mut a.cursor, t.target[pf]);
            pair[0] = nf;
            pair[1] = nr;
            t.id_at[nf as usize] = 2 * k as u32;
            t.id_at[nr as usize] = 2 * k as u32 + 1;
            t.mate[nf as usize] = nr;
            t.mate[nr as usize] = nf;
            a.flow[nf as usize] = a.cap[pf];
            a.flow[nr as usize] = a.cap[pr];
        }
        // The staged plane becomes the cap plane; the old one is free to
        // take the flows back (every position is written) or zeros.
        std::mem::swap(&mut a.cap, &mut a.flow);
        if carries_flow {
            for (&p, &f) in t.pos_of.iter().zip(&a.spare) {
                a.flow[p as usize] = f;
            }
        } else {
            a.flow.fill(W::default());
        }
        // A slot's target is the owner of its mate.
        for v in 0..n {
            let range = t.adj_index[v] as usize..t.adj_index[v + 1] as usize;
            for &q in &t.mate[range] {
                t.target[q as usize] = v as u32;
            }
        }
        // A checkpoint is position-ordered, so it dies with the old layout.
        a.checkpoint.clear();
        a.grows += (t.capacity() + a.cursor.capacity() + a.spare.capacity() != before) as u64;
        self.dirty = false;
    }

    /// Position of edge `e`.
    #[inline(always)]
    fn pos(&self, e: EdgeId) -> usize {
        self.arena.topo.pos_of[e] as usize
    }

    /// Target vertex of edge `e`.
    #[inline]
    pub fn target(&self, e: EdgeId) -> VertexId {
        self.arena.topo.target[self.pos(e)] as usize
    }

    /// Source vertex of edge `e` (the target of its reverse edge).
    #[inline]
    pub fn source(&self, e: EdgeId) -> VertexId {
        self.target(e ^ 1)
    }

    /// Capacity of edge `e`.
    #[inline]
    pub fn cap(&self, e: EdgeId) -> i64 {
        self.arena.cap[self.pos(e)].to_i64()
    }

    /// Sets the capacity of edge `e`.
    ///
    /// The integrated algorithms only ever *raise* capacities while flow is
    /// conserved; lowering a capacity below the current flow leaves the
    /// stored flow infeasible, which callers must handle (the binary
    /// capacity-scaling driver restores a compatible flow snapshot first).
    #[inline]
    pub fn set_cap(&mut self, e: EdgeId, cap: i64) {
        debug_assert!(cap >= 0, "negative capacity {cap}");
        let p = self.pos(e);
        self.arena.cap[p] = W::from_i64(cap);
    }

    /// Current flow on edge `e` (negative on reverse edges).
    #[inline]
    pub fn flow(&self, e: EdgeId) -> i64 {
        self.arena.flow[self.pos(e)].to_i64()
    }

    /// Residual capacity of edge `e`: `cap(e) - flow(e)`.
    #[inline]
    pub fn residual(&self, e: EdgeId) -> i64 {
        let p = self.pos(e);
        self.arena.cap[p].to_i64() - self.arena.flow[p].to_i64()
    }

    /// Pushes `delta` units of flow along edge `e`, updating the paired
    /// reverse edge.
    ///
    /// # Panics
    ///
    /// Debug-panics if `delta` exceeds the residual capacity of `e`.
    #[inline]
    pub fn push(&mut self, e: EdgeId, delta: i64) {
        debug_assert!(
            delta <= self.residual(e),
            "push of {delta} exceeds residual {} on edge {e}",
            self.residual(e)
        );
        let (p, q) = (self.pos(e), self.pos(e ^ 1));
        let flow = &mut self.arena.flow;
        flow[p] = W::from_i64(flow[p].to_i64() + delta);
        flow[q] = W::from_i64(flow[q].to_i64() - delta);
    }

    /// Adjacency bounds of vertex `v` as absolute positions `[lo, hi)`,
    /// without release-mode bounds checks.
    ///
    /// Solver inner loops hoist this pair once per vertex visit and then
    /// walk positions with the `*_at` accessors: topology is frozen for the
    /// whole solve, so the bounds cannot move. The graph must be finalized
    /// and `v` in range; every position in `[lo, hi)` is then a valid
    /// argument to the `*_at` accessors. Both conditions are checked by
    /// `debug_assert!`, which every test suite runs with.
    #[inline(always)]
    pub(crate) fn adj_bounds(&self, v: VertexId) -> (u32, u32) {
        let idx = &self.arena.topo.adj_index;
        debug_assert!(!self.dirty, "adj_bounds on stale topology: call finalize()");
        debug_assert!(v + 1 < idx.len(), "vertex {v} out of range");
        // SAFETY: `v + 1 < adj_index.len()`: a finalized graph's index has
        // `n + 1` entries (reset and finalize size it, add_vertex extends
        // it) and crate callers pass vertices below `num_vertices()`. The
        // debug_assert above restates it.
        unsafe { (*idx.get_unchecked(v), *idx.get_unchecked(v + 1)) }
    }

    /// Debug check shared by the `*_at` accessors: `p` came from
    /// [`FlowGraph::adj_bounds`] on this still-finalized graph.
    #[inline(always)]
    fn debug_check_pos(&self, p: u32) {
        debug_assert!(
            !self.dirty,
            "position walk on stale topology: call finalize()"
        );
        debug_assert!(
            (p as usize) < self.arena.topo.target.len(),
            "adjacency position {p} out of range"
        );
    }

    /// Edge id at position `p` (a `[lo, hi)` position of
    /// [`FlowGraph::adj_bounds`]).
    #[inline(always)]
    pub(crate) fn edge_at(&self, p: u32) -> EdgeId {
        self.debug_check_pos(p);
        self.arena.topo.id_at[p as usize] as EdgeId
    }

    /// Target vertex of the slot at position `p`, without the
    /// release-mode bounds check.
    #[inline(always)]
    pub(crate) fn target_at(&self, p: u32) -> VertexId {
        self.debug_check_pos(p);
        // SAFETY: `p` lies in an `adj_bounds` range of this finalized
        // graph, and finalize counts every slot into `adj_index`, so
        // `p < adj_index[n] == target.len()`. `debug_check_pos` restates it.
        unsafe { *self.arena.topo.target.get_unchecked(p as usize) as VertexId }
    }

    /// Position of the slot paired with the one at `p`.
    #[inline(always)]
    pub(crate) fn mate_at(&self, p: u32) -> u32 {
        self.debug_check_pos(p);
        // SAFETY: `p < target.len()` as in `target_at`, and finalize sizes
        // `mate` to `target.len()`.
        unsafe { *self.arena.topo.mate.get_unchecked(p as usize) }
    }

    /// Residual capacity of the slot at position `p`, without release-mode
    /// bounds checks.
    #[inline(always)]
    pub(crate) fn residual_at(&self, p: u32) -> i64 {
        self.debug_check_pos(p);
        debug_assert!((p as usize) < self.arena.flow.len());
        let p = p as usize;
        // SAFETY: `p < target.len()` as in `target_at`, and `cap` and
        // `flow` hold one value per slot, `target.len()` of them.
        unsafe {
            self.arena.cap.get_unchecked(p).to_i64() - self.arena.flow.get_unchecked(p).to_i64()
        }
    }

    /// [`FlowGraph::push`] on the slot at position `p`: moves `delta` units
    /// onto it and off its mate, without release-mode bounds checks. The
    /// residual-overflow `debug_assert!` of `push` applies unchanged.
    #[inline(always)]
    pub(crate) fn push_at(&mut self, p: u32, delta: i64) {
        debug_assert!(
            delta <= self.residual_at(p),
            "push of {delta} exceeds residual {} at position {p}",
            self.residual_at(p)
        );
        let q = self.mate_at(p) as usize;
        let p = p as usize;
        debug_assert!(q < self.arena.flow.len());
        let flow = &mut self.arena.flow;
        // SAFETY: `p < flow.len()` as in `residual_at`; `q` is a `mate`
        // entry, and finalize writes only positions below `target.len()`
        // (== `flow.len()`) there.
        unsafe {
            let f = flow.get_unchecked(p).to_i64() + delta;
            *flow.get_unchecked_mut(p) = W::from_i64(f);
            let r = flow.get_unchecked(q).to_i64() - delta;
            *flow.get_unchecked_mut(q) = W::from_i64(r);
        }
    }

    /// Outgoing edge ids of vertex `v` (both forward and reverse slots), in
    /// insertion order — one contiguous CSR slice.
    ///
    /// # Panics
    ///
    /// Panics if the CSR index is stale (topology changed since the last
    /// [`FlowGraph::finalize`]); returning stale adjacency would be a silent
    /// wrong answer.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[u32] {
        assert!(!self.dirty, "out_edges on stale topology: call finalize()");
        let t = &self.arena.topo;
        &t.id_at[t.adj_index[v] as usize..t.adj_index[v + 1] as usize]
    }

    /// Out-degree counting only *forward* edges (even ids), i.e. edges added
    /// explicitly with `v` as the source. Works on stale topology (falls
    /// back to an edge-array scan).
    pub fn forward_out_degree(&self, v: VertexId) -> usize {
        if self.dirty {
            return self
                .forward_edges()
                .filter(|&e| self.source(e) == v)
                .count();
        }
        self.out_edges(v).iter().filter(|&&e| e % 2 == 0).count()
    }

    /// In-degree counting only forward edges pointing at `v`. This is the
    /// `in_degree` used by the paper's `IncrementMinCost` (Algorithm 3): for
    /// a disk vertex it equals the number of query buckets stored on the
    /// disk. Works on stale topology (falls back to an edge-array scan).
    pub fn forward_in_degree(&self, v: VertexId) -> usize {
        if self.dirty {
            return self
                .forward_edges()
                .filter(|&e| self.target(e) == v)
                .count();
        }
        self.out_edges(v).iter().filter(|&&e| e % 2 == 1).count()
    }

    /// Resets all flow values to zero, keeping topology and capacities.
    pub fn zero_flows(&mut self) {
        self.arena.flow.fill(W::default());
    }

    /// Snapshot of the current flow state, indexed by edge id. Always
    /// widened to `i64` so snapshots are width-portable.
    ///
    /// Allocates a fresh vector; steady-state callers use
    /// [`FlowGraph::store_flows_into`] with a reused buffer instead.
    pub fn store_flows(&self) -> Vec<i64> {
        let mut buf = Vec::new();
        self.store_flows_into(&mut buf);
        buf
    }

    /// Writes the current flow state, indexed by edge id, into `buf`,
    /// reusing its allocation — the allocation-free counterpart of
    /// [`FlowGraph::store_flows`] for callers that keep snapshots across
    /// topology changes (warm sessions).
    pub fn store_flows_into(&self, buf: &mut Vec<i64>) {
        let flow = &self.arena.flow;
        buf.clear();
        buf.extend(
            self.arena
                .topo
                .pos_of
                .iter()
                .map(|&p| flow[p as usize].to_i64()),
        );
    }

    /// Saves the flow plane (`StoreFlows`, Algorithm 6) inside the arena:
    /// one native-width, position-ordered slice copy. Only the next
    /// [`FlowGraph::rollback_flows`] reads it; a topology change or a new
    /// cap/flow plane discards it.
    pub fn checkpoint_flows(&mut self) {
        let a = &mut self.arena;
        track_grow(&mut a.grows, &mut a.checkpoint, |c| {
            c.clear();
            c.extend_from_slice(&a.flow);
        });
    }

    /// Restores the flow plane saved by [`FlowGraph::checkpoint_flows`]
    /// (`RestoreFlows`, Algorithm 6).
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint of the current plane exists.
    pub fn rollback_flows(&mut self) {
        let a = &mut self.arena;
        assert_eq!(
            a.checkpoint.len(),
            a.flow.len(),
            "rollback_flows without a checkpoint of this plane"
        );
        a.flow.copy_from_slice(&a.checkpoint);
    }

    /// Makes `self` a copy of `other`, reusing existing allocations
    /// instead of allocating a fresh graph as `clone` would. The topology
    /// plane is deep-copied into `self`'s own when that plane is private
    /// and large enough; otherwise `other`'s plane is shared copy-on-write
    /// (as `clone` shares it) rather than allocated anew, so a copy into a
    /// fresh graph allocates only its capacity/flow planes. Copies the
    /// finalization state too: copying a finalized graph yields a
    /// finalized graph.
    pub fn copy_from(&mut self, other: &FlowGraph<W>) {
        let (a, b) = (&mut self.arena, &other.arena);
        track_grow(&mut a.grows, &mut a.cap, |v| v.clone_from(&b.cap));
        track_grow(&mut a.grows, &mut a.flow, |v| v.clone_from(&b.flow));
        a.checkpoint.clear();
        copy_topology(a, b);
        self.n = other.n;
        self.dirty = other.dirty;
    }

    /// Cross-width [`FlowGraph::copy_from`]: makes `self` a copy of a graph
    /// of a (possibly) different width, narrowing checked. On
    /// [`WidthOverflow`] `self` is left untouched — the validation pass runs
    /// before any buffer is written — so callers can fall back to the wide
    /// layout cleanly. Allocation-free once `self` has grown to size.
    pub fn try_copy_from<V: ArenaIndex>(
        &mut self,
        other: &FlowGraph<V>,
    ) -> Result<(), WidthOverflow> {
        check_fits::<W, V>(other)?;
        narrow_planes(&mut self.arena, &other.arena);
        // The topology plane is width-free: it is deep-copied or shared
        // exactly as in `copy_from`.
        copy_topology(&mut self.arena, &other.arena);
        self.n = other.n;
        self.dirty = other.dirty;
        Ok(())
    }

    /// Clears the graph to `n` isolated vertices in place, keeping every
    /// arena buffer allocated so a rebuild of similar size is
    /// allocation-free. The cleared graph is finalized (no edges to index).
    pub fn reset(&mut self, n: usize) {
        let a = &mut self.arena;
        a.cap.clear();
        a.flow.clear();
        a.checkpoint.clear();
        // A shared topology plane is about to be invalidated: fall back to
        // the parked private plane, or detach to a fresh one instead of
        // deep-cloning contents we would clear anyway. A fresh plane (epoch
        // invalidation) counts as a growth event; a private plane keeps its
        // buffers as before.
        if std::sync::Arc::get_mut(&mut a.topo).is_none() {
            a.topo = match a.parked.take() {
                Some(own) if std::sync::Arc::strong_count(&own) == 1 => own,
                _ => {
                    a.grows += 1;
                    std::sync::Arc::default()
                }
            };
        }
        let t = std::sync::Arc::get_mut(&mut a.topo).expect("plane is private here");
        t.target.clear();
        t.mate.clear();
        t.id_at.clear();
        t.pos_of.clear();
        track_grow(&mut a.grows, &mut t.adj_index, |idx| {
            idx.clear();
            idx.resize(n + 1, 0);
        });
        self.n = n;
        self.dirty = false;
    }

    /// Restores a flow snapshot taken with [`FlowGraph::store_flows`].
    /// Snapshots are `i64` regardless of the graph width; values are
    /// narrowed debug-checked (snapshots taken from a graph of this width
    /// always fit — use [`FlowGraph::try_restore_flows`] when that is not
    /// known).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match the edge count.
    pub fn restore_flows(&mut self, snapshot: &[i64]) {
        assert_eq!(
            snapshot.len(),
            self.arena.flow.len(),
            "flow snapshot does not match graph topology"
        );
        let a = &mut self.arena;
        for (&p, &src) in a.topo.pos_of.iter().zip(snapshot) {
            a.flow[p as usize] = W::from_i64(src);
        }
    }

    /// Checked [`FlowGraph::restore_flows`]: fails with a typed
    /// [`WidthOverflow`] (leaving the stored flows untouched) when a
    /// snapshot value does not fit this graph's width — the case a cached
    /// warm-start snapshot hits after its stream outgrew the compact bound.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match the edge count.
    pub fn try_restore_flows(&mut self, snapshot: &[i64]) -> Result<(), WidthOverflow> {
        assert_eq!(
            snapshot.len(),
            self.arena.flow.len(),
            "flow snapshot does not match graph topology"
        );
        for (e, &src) in snapshot.iter().enumerate() {
            if W::try_from_i64(src).is_none() {
                return Err(WidthOverflow {
                    edge: e,
                    value: src,
                    width: W::NAME,
                });
            }
        }
        self.restore_flows(snapshot);
        Ok(())
    }

    /// Net flow into vertex `v` over forward edges; for the sink this is the
    /// flow value. Works on stale topology (falls back to an edge-array
    /// scan: every slot targeting `v` contributes its flow — forward slots
    /// count inflow positively, reverse slots carry the paired outflow
    /// negated).
    pub fn net_inflow(&self, v: VertexId) -> i64 {
        let (t, flow) = (&self.arena.topo, &self.arena.flow);
        if self.dirty {
            let v = v as u32;
            return t
                .target
                .iter()
                .zip(flow)
                .filter(|&(&h, _)| h == v)
                .map(|(_, f)| f.to_i64())
                .sum();
        }
        let (lo, hi) = (t.adj_index[v] as usize, t.adj_index[v + 1] as usize);
        (lo..hi)
            .map(|p| {
                if t.id_at[p] % 2 == 1 {
                    // reverse slot: the paired forward edge points at v
                    flow[t.mate[p] as usize].to_i64()
                } else {
                    -flow[p].to_i64()
                }
            })
            .sum()
    }

    /// Iterator over all forward edge ids.
    pub fn forward_edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.arena.topo.target.len()).step_by(2)
    }

    /// Whether `self` and `other` currently share one topology plane (the
    /// widths may differ — the plane is width-free). Shared planes are
    /// bit-identical by construction: any mutation detaches first.
    pub fn shares_topology_with<V: ArenaIndex>(&self, other: &FlowGraph<V>) -> bool {
        std::sync::Arc::ptr_eq(&self.arena.topo, &other.arena.topo)
    }

    /// Checks out `other`'s finalized topology plane by reference (an O(1)
    /// `Arc` share — no adjacency copy) and copies only its capacity/flow
    /// planes, width-checked. This is the per-query staging path of the
    /// epoch-shared arena: the shape is borrowed from the epoch's instance,
    /// the mutable planes are private to this graph.
    ///
    /// On [`WidthOverflow`] `self` is left untouched (validation runs
    /// before any write), exactly like [`FlowGraph::try_copy_from`].
    /// Allocation-free once the capacity/flow buffers have grown to size
    /// and the plane is already shared from a previous checkout.
    ///
    /// # Panics
    ///
    /// Panics if `other` has a stale CSR index — an unfinalized plane is
    /// not shareable (its adjacency is not built yet).
    pub fn checkout_plane_from<V: ArenaIndex>(
        &mut self,
        other: &FlowGraph<V>,
    ) -> Result<(), WidthOverflow> {
        assert!(
            other.is_finalized(),
            "checkout_plane_from on stale topology: call finalize()"
        );
        check_fits::<W, V>(other)?;
        let (a, b) = (&mut self.arena, &other.arena);
        if !std::sync::Arc::ptr_eq(&a.topo, &b.topo) {
            let mut prev = std::mem::replace(&mut a.topo, std::sync::Arc::clone(&b.topo));
            // Park a private plane for `release_plane`; a share of some
            // other graph's plane is simply dropped.
            if std::sync::Arc::get_mut(&mut prev).is_some() {
                a.parked = Some(prev);
            }
        }
        narrow_planes(a, b);
        self.n = other.n;
        self.dirty = false;
        Ok(())
    }

    /// Drops this graph's share of a topology plane checked out by
    /// [`FlowGraph::checkout_plane_from`], so the graph it came from can
    /// rebuild or patch that plane in place instead of detaching a copy.
    /// The graph is left empty ([`FlowGraph::reset`] to zero vertices) on
    /// the private plane it parked at checkout: allocation-free once that
    /// plane has held one vertex. A graph whose plane is private is left
    /// as it is.
    pub fn release_plane(&mut self) {
        if std::sync::Arc::get_mut(&mut self.arena.topo).is_none() {
            self.reset(0);
        }
    }
}

/// Returns vertex `v`'s next free position and advances its cursor.
#[inline(always)]
fn take_cursor(cursor: &mut [u32], v: u32) -> u32 {
    let c = &mut cursor[v as usize];
    *c += 1;
    *c - 1
}

/// Fails with the offending value of the lowest edge id (capacity before
/// flow) when `other`'s cap/flow planes do not fit width `W`; a no-op when
/// `W` is at least as wide as `V`.
fn check_fits<W: ArenaIndex, V: ArenaIndex>(other: &FlowGraph<V>) -> Result<(), WidthOverflow> {
    if W::MAX >= V::MAX {
        return Ok(());
    }
    let b = &other.arena;
    let fits = |x: &V| W::try_from_i64(x.to_i64()).is_some();
    if b.cap.iter().chain(&b.flow).all(fits) {
        return Ok(());
    }
    // Slow path: report in edge-id order, as callers index by id.
    for (e, &p) in b.topo.pos_of.iter().enumerate() {
        for value in [b.cap[p as usize], b.flow[p as usize]] {
            if !fits(&value) {
                return Err(WidthOverflow {
                    edge: e,
                    value: value.to_i64(),
                    width: W::NAME,
                });
            }
        }
    }
    unreachable!("a value that does not fit belongs to some edge")
}

/// Copies `b`'s cap/flow planes into `a`, narrowing (already checked) and
/// discarding `a`'s checkpoint, which described the replaced plane.
fn narrow_planes<W: ArenaIndex, V: ArenaIndex>(a: &mut GraphArena<W>, b: &GraphArena<V>) {
    track_grow(&mut a.grows, &mut a.cap, |v| {
        v.clear();
        v.extend(b.cap.iter().map(|c| W::from_i64(c.to_i64())));
    });
    track_grow(&mut a.grows, &mut a.flow, |v| {
        v.clear();
        v.extend(b.flow.iter().map(|f| W::from_i64(f.to_i64())));
    });
    a.checkpoint.clear();
}

/// Deep-copies `b`'s topology plane into `a`'s private plane when that
/// plane can take it without growing; otherwise shares `b`'s plane
/// copy-on-write, as `clone` does, since a deep copy would allocate
/// anyway. Either way the planes are bit-identical afterwards: a shared
/// plane is by the copy-on-write invariant.
fn copy_topology<W: ArenaIndex, V: ArenaIndex>(a: &mut GraphArena<W>, b: &GraphArena<V>) {
    if std::sync::Arc::ptr_eq(&a.topo, &b.topo) {
        return;
    }
    let s = &*b.topo;
    let t = match std::sync::Arc::get_mut(&mut a.topo) {
        Some(t) if t.can_hold(s) => t,
        _ => {
            a.topo = std::sync::Arc::clone(&b.topo);
            return;
        }
    };
    for (dst, src) in [
        (&mut t.target, &s.target),
        (&mut t.mate, &s.mate),
        (&mut t.adj_index, &s.adj_index),
        (&mut t.id_at, &s.id_at),
        (&mut t.pos_of, &s.pos_of),
    ] {
        dst.clone_from(src);
    }
}

/// Runs `f` on `buf` and counts one growth event if its capacity changed.
#[inline]
fn track_grow<T>(grows: &mut u64, buf: &mut Vec<T>, f: impl FnOnce(&mut Vec<T>)) {
    let before = buf.capacity();
    f(buf);
    *grows += (buf.capacity() != before) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> FlowGraph {
        let mut g: FlowGraph = FlowGraph::new(4);
        g.add_edge(0, 1, 3);
        g.add_edge(0, 2, 2);
        g.add_edge(1, 3, 2);
        g.add_edge(2, 3, 3);
        g.finalize();
        g
    }

    #[test]
    fn edge_pairing_invariants() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        for e in g.forward_edges() {
            assert_eq!(g.source(e), g.target(e ^ 1));
            assert_eq!(g.target(e), g.source(e ^ 1));
            assert_eq!(g.cap(e ^ 1), 0);
        }
    }

    #[test]
    fn push_updates_both_directions() {
        let mut g = diamond();
        g.push(0, 2);
        assert_eq!(g.flow(0), 2);
        assert_eq!(g.flow(1), -2);
        assert_eq!(g.residual(0), 1);
        assert_eq!(g.residual(1), 2); // reverse residual equals pushed flow
    }

    #[test]
    #[should_panic(expected = "exceeds residual")]
    #[cfg(debug_assertions)]
    fn push_over_residual_panics_in_debug() {
        let mut g = diamond();
        g.push(0, 4);
    }

    #[test]
    fn degrees_count_forward_edges_only() {
        let g = diamond();
        assert_eq!(g.forward_out_degree(0), 2);
        assert_eq!(g.forward_in_degree(0), 0);
        assert_eq!(g.forward_in_degree(3), 2);
        assert_eq!(g.forward_out_degree(3), 0);
        assert_eq!(g.forward_in_degree(1), 1);
        assert_eq!(g.forward_out_degree(1), 1);
    }

    #[test]
    fn degrees_work_on_stale_topology() {
        let mut g = diamond();
        g.add_edge(0, 3, 1);
        assert!(!g.is_finalized());
        assert_eq!(g.forward_out_degree(0), 3);
        assert_eq!(g.forward_in_degree(3), 3);
        g.finalize();
        assert_eq!(g.forward_out_degree(0), 3);
        assert_eq!(g.forward_in_degree(3), 3);
    }

    #[test]
    fn store_restore_round_trip() {
        let mut g = diamond();
        g.push(0, 1);
        g.push(4, 1);
        let snap = g.store_flows();
        g.push(2, 1);
        g.restore_flows(&snap);
        assert_eq!(g.flow(0), 1);
        assert_eq!(g.flow(4), 1);
        assert_eq!(g.flow(2), 0);
    }

    #[test]
    fn net_inflow_tracks_flow_value() {
        let mut g = diamond();
        g.push(0, 2); // s -> 1
        g.push(4, 2); // 1 -> t
        assert_eq!(g.net_inflow(3), 2);
        assert_eq!(g.net_inflow(1), 0);
        assert_eq!(g.net_inflow(0), -2);
    }

    #[test]
    fn zero_flows_resets() {
        let mut g = diamond();
        g.push(0, 2);
        g.zero_flows();
        assert_eq!(g.flow(0), 0);
        assert_eq!(g.flow(1), 0);
    }

    #[test]
    fn add_vertex_extends_graph() {
        let mut g = diamond();
        let v = g.add_vertex();
        assert_eq!(v, 4);
        // A fresh vertex on a finalized graph keeps the index valid.
        assert!(g.is_finalized());
        assert!(g.out_edges(v).is_empty());
        let e = g.add_edge(3, v, 5);
        g.finalize();
        assert_eq!(g.target(e), v);
        assert_eq!(g.residual(e), 5);
        assert_eq!(g.out_edges(v), &[(e + 1) as u32]);
    }

    #[test]
    fn set_cap_changes_residual() {
        let mut g = diamond();
        g.push(0, 3);
        assert_eq!(g.residual(0), 0);
        g.set_cap(0, 5);
        assert_eq!(g.residual(0), 2);
    }

    #[test]
    fn store_flows_into_matches_store_flows() {
        let mut g = diamond();
        g.push(0, 2);
        g.push(4, 1);
        let mut buf = vec![99i64; 3];
        g.store_flows_into(&mut buf);
        assert_eq!(buf, g.store_flows());
    }

    #[test]
    fn copy_from_replicates_everything() {
        let src = diamond();
        let mut dst = FlowGraph::new(2);
        dst.add_edge(0, 1, 7);
        dst.copy_from(&src);
        assert_eq!(dst.num_vertices(), src.num_vertices());
        assert_eq!(dst.num_edges(), src.num_edges());
        for e in src.forward_edges() {
            assert_eq!(dst.cap(e), src.cap(e));
            assert_eq!(dst.target(e), src.target(e));
            assert_eq!(dst.flow(e), src.flow(e));
        }
        for v in 0..src.num_vertices() {
            assert_eq!(dst.out_edges(v), src.out_edges(v));
        }
    }

    #[test]
    fn reset_clears_topology_in_place() {
        let mut g = diamond();
        g.push(0, 1);
        g.reset(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        for v in 0..3 {
            assert!(g.out_edges(v).is_empty());
        }
        // The graph is fully usable after a reset.
        let e = g.add_edge(0, 2, 4);
        g.push(e, 4);
        assert_eq!(g.net_inflow(2), 4);
        g.finalize();
        assert_eq!(g.out_edges(0), &[e as u32]);
    }

    #[test]
    #[should_panic(expected = "stale topology")]
    fn out_edges_panics_on_stale_index() {
        let mut g = diamond();
        g.add_edge(0, 3, 1);
        let _ = g.out_edges(0);
    }

    #[test]
    fn finalize_preserves_insertion_order() {
        // Interleave edges so several vertices own non-contiguous slots;
        // per-vertex order must still be ascending slot id (the order the
        // legacy Vec<Vec> layout appended them in).
        let mut g: FlowGraph = FlowGraph::new(5);
        g.add_edge(0, 1, 1); // slots 0/1
        g.add_edge(2, 0, 1); // slots 2/3
        g.add_edge(0, 3, 1); // slots 4/5
        g.add_edge(3, 0, 1); // slots 6/7
        g.add_edge(0, 4, 1); // slots 8/9
        g.finalize();
        assert_eq!(g.out_edges(0), &[0, 3, 4, 7, 8]);
        assert_eq!(g.out_edges(3), &[5, 6]);
        // Finalize is idempotent.
        g.finalize();
        assert_eq!(g.out_edges(0), &[0, 3, 4, 7, 8]);
    }

    #[test]
    fn steady_state_rebuild_is_allocation_free() {
        let build = |g: &mut FlowGraph| {
            g.reset(4);
            g.add_edge(0, 1, 3);
            g.add_edge(0, 2, 2);
            g.add_edge(1, 3, 2);
            g.add_edge(2, 3, 3);
            g.finalize();
        };
        let mut g: FlowGraph = FlowGraph::new(0);
        build(&mut g);
        let events = g.arena().allocation_events();
        for _ in 0..10 {
            build(&mut g);
        }
        assert_eq!(
            g.arena().allocation_events(),
            events,
            "steady-state rebuilds must not touch the allocator"
        );
        assert!(g.arena().reserved_bytes() > 0);
    }

    #[test]
    fn copy_from_into_sized_arena_is_allocation_free() {
        let src = diamond();
        let mut dst = FlowGraph::new(0);
        dst.copy_from(&src);
        let events = dst.arena().allocation_events();
        for _ in 0..10 {
            dst.copy_from(&src);
        }
        assert_eq!(dst.arena().allocation_events(), events);
    }

    #[test]
    fn compact_width_behaves_identically() {
        let mut wide = diamond();
        let mut compact = FlowGraph::<i32>::new(4);
        compact.add_edge(0, 1, 3);
        compact.add_edge(0, 2, 2);
        compact.add_edge(1, 3, 2);
        compact.add_edge(2, 3, 3);
        compact.finalize();
        for v in 0..4 {
            assert_eq!(compact.out_edges(v), wide.out_edges(v));
        }
        wide.push(0, 2);
        compact.push(0, 2);
        wide.push(4, 2);
        compact.push(4, 2);
        for e in 0..wide.num_edge_slots() {
            assert_eq!(compact.flow(e), wide.flow(e));
            assert_eq!(compact.residual(e), wide.residual(e));
        }
        assert_eq!(compact.net_inflow(3), wide.net_inflow(3));
        assert_eq!(compact.store_flows(), wide.store_flows());
    }

    #[test]
    fn try_copy_from_narrows_and_reports_overflow() {
        let mut wide = diamond();
        wide.push(0, 2);
        let mut compact = FlowGraph::<i32>::new(0);
        compact.try_copy_from(&wide).expect("small values fit i32");
        assert_eq!(compact.store_flows(), wide.store_flows());
        assert_eq!(compact.out_edges(0), wide.out_edges(0));

        // A capacity past the i32 bound must be rejected with the offending
        // slot, and the destination must keep its previous (valid) state.
        let big = i32::MAX as i64 + 1;
        wide.set_cap(2, big);
        let err = compact.try_copy_from(&wide).unwrap_err();
        assert_eq!(
            err,
            WidthOverflow {
                edge: 2,
                value: big,
                width: "i32",
            }
        );
        assert_eq!(compact.cap(2), 2, "failed copy must not corrupt dst");
        assert!(err.to_string().contains("i32"));

        // Widening the other way always succeeds.
        let mut back = FlowGraph::<i64>::new(0);
        back.try_copy_from(&compact).expect("widening is lossless");
        assert_eq!(back.store_flows(), compact.store_flows());
    }

    #[test]
    fn try_restore_flows_reports_overflow() {
        let mut compact = FlowGraph::<i32>::new(2);
        compact.add_edge(0, 1, 5);
        compact.finalize();
        compact.push(0, 3);
        let mut snap = compact.store_flows();
        snap[0] = i32::MAX as i64 + 7;
        let err = compact.try_restore_flows(&snap).unwrap_err();
        assert_eq!(err.edge, 0);
        assert_eq!(err.value, i32::MAX as i64 + 7);
        assert_eq!(compact.flow(0), 3, "failed restore must keep flows");
        snap[0] = 1;
        compact.try_restore_flows(&snap).expect("fits");
        assert_eq!(compact.flow(0), 1);
    }

    #[test]
    fn plane_checkout_shares_topology_and_copies_values() {
        let mut src = diamond();
        src.push(0, 2);
        let mut ws: FlowGraph = FlowGraph::new(0);
        ws.checkout_plane_from(&src).expect("same width fits");
        assert!(ws.shares_topology_with(&src));
        assert_eq!(ws.store_flows(), src.store_flows());
        for v in 0..src.num_vertices() {
            assert_eq!(ws.out_edges(v), src.out_edges(v));
        }
        // The capacity/flow planes are private: mutating them must not
        // leak into the source or detach the shared topology.
        ws.set_cap(0, 9);
        ws.push(4, 1);
        assert_eq!(src.cap(0), 3);
        assert_eq!(src.flow(4), 0);
        assert!(ws.shares_topology_with(&src));
    }

    #[test]
    fn plane_checkout_works_across_widths() {
        let src = diamond();
        let mut compact = FlowGraph::<i32>::new(0);
        compact.checkout_plane_from(&src).expect("small caps fit");
        assert!(compact.shares_topology_with(&src));
        assert_eq!(compact.out_edges(0), src.out_edges(0));
        assert_eq!(compact.store_flows(), src.store_flows());

        // An overflowing capacity is rejected before anything is written.
        let mut big = diamond();
        big.set_cap(2, i32::MAX as i64 + 1);
        let err = compact.checkout_plane_from(&big).unwrap_err();
        assert_eq!(err.edge, 2);
        assert!(
            compact.shares_topology_with(&src),
            "failed checkout must not swap planes"
        );
    }

    #[test]
    fn topology_mutation_detaches_shared_plane() {
        let mut src = diamond();
        let mut ws: FlowGraph = FlowGraph::new(0);
        ws.checkout_plane_from(&src).unwrap();
        let ws_events = ws.arena().allocation_events();

        // Structural change on the source: the source detaches (one COW
        // event), the checked-out graph keeps the old epoch's plane.
        let src_events = src.arena().allocation_events();
        src.add_edge(0, 3, 1);
        src.finalize();
        assert!(!ws.shares_topology_with(&src));
        assert!(src.arena().allocation_events() > src_events);
        assert_eq!(ws.arena().allocation_events(), ws_events);
        assert_eq!(ws.num_edges(), 4);
        assert_eq!(src.num_edges(), 5);

        // A reset invalidates the epoch the same way.
        let mut ws2: FlowGraph = FlowGraph::new(0);
        ws2.checkout_plane_from(&src).unwrap();
        src.reset(2);
        assert!(!ws2.shares_topology_with(&src));
        assert_eq!(ws2.num_edges(), 5);
    }

    #[test]
    fn steady_state_plane_checkout_is_allocation_free() {
        let src = diamond();
        let mut ws: FlowGraph = FlowGraph::new(0);
        ws.checkout_plane_from(&src).unwrap();
        let events = ws.arena().allocation_events();
        for _ in 0..10 {
            ws.checkout_plane_from(&src).unwrap();
        }
        assert_eq!(
            ws.arena().allocation_events(),
            events,
            "re-checkout from the same epoch must not touch the allocator"
        );
    }

    #[test]
    fn released_plane_lets_its_owner_rebuild_in_place() {
        let build = |g: &mut FlowGraph| {
            g.reset(4);
            let mut app = g.appender();
            for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
                app.add_edge(u, v, 2);
            }
            g.finalize();
        };
        let mut src: FlowGraph = FlowGraph::new(0);
        build(&mut src);
        let mut ws: FlowGraph = FlowGraph::new(0);
        // The first checkout sizes the cap/flow planes.
        ws.checkout_plane_from(&src).unwrap();
        ws.release_plane();
        let events = (
            src.arena().allocation_events(),
            ws.arena().allocation_events(),
        );
        for _ in 0..3 {
            ws.checkout_plane_from(&src).unwrap();
            assert!(ws.shares_topology_with(&src));
            ws.release_plane();
            assert!(!ws.shares_topology_with(&src));
            assert_eq!((ws.num_vertices(), ws.num_edges()), (0, 0));
            // The owner's plane is private again: no copy-on-write detach.
            build(&mut src);
        }
        assert_eq!(
            (
                src.arena().allocation_events(),
                ws.arena().allocation_events()
            ),
            events,
            "checkout, release and rebuild must not touch the allocator"
        );
        // Without the release, the owner's next rebuild starts a fresh
        // plane and grows every buffer again.
        ws.checkout_plane_from(&src).unwrap();
        build(&mut src);
        assert!(src.arena().allocation_events() > events.0);
        // Releasing a private plane changes nothing.
        let mut own = diamond();
        own.release_plane();
        assert_eq!(own.num_edges(), 4);
    }

    #[test]
    fn copy_from_skips_deep_copy_of_a_shared_plane() {
        let src = diamond();
        let mut ws: FlowGraph = FlowGraph::new(0);
        ws.checkout_plane_from(&src).unwrap();
        ws.copy_from(&src);
        // The deep-copy path keeps the shared plane when it is already
        // bit-identical (ptr-equal) rather than detaching it.
        assert!(ws.shares_topology_with(&src));
        assert_eq!(ws.out_edges(0), src.out_edges(0));
    }

    #[test]
    fn copy_from_shares_a_plane_it_cannot_hold() {
        let mut src = diamond();
        // A fresh graph's plane cannot take the copy without allocating,
        // so it shares the source's, and copies only the cap/flow planes.
        let mut fresh: FlowGraph = FlowGraph::new(0);
        fresh.copy_from(&src);
        assert!(fresh.shares_topology_with(&src));
        let mut compact = FlowGraph::<i32>::new(0);
        compact.try_copy_from(&src).expect("small values fit i32");
        assert!(compact.shares_topology_with(&src));
        // A private plane that is large enough takes a deep copy.
        let mut sized = diamond();
        let events = sized.arena().allocation_events();
        sized.copy_from(&src);
        assert!(!sized.shares_topology_with(&src));
        assert_eq!(sized.arena().allocation_events(), events);
        // Mutating the source detaches it; the sharer keeps the old plane.
        src.add_edge(0, 3, 1);
        src.finalize();
        assert!(!fresh.shares_topology_with(&src));
        assert_eq!(fresh.num_edges(), 4);
        for v in 0..4 {
            assert_eq!(fresh.out_edges(v), sized.out_edges(v));
            assert_eq!(compact.out_edges(v), sized.out_edges(v));
        }
    }

    #[test]
    fn rebuilds_no_larger_than_an_earlier_one_are_allocation_free() {
        // After a build at the high-water size, rebuilds of that size or
        // smaller grow no buffer, neither in the appends nor in finalize.
        let build = |g: &mut FlowGraph, edges: usize| {
            g.reset(4);
            let mut app = g.appender();
            for k in 0..edges {
                app.add_edge(k % 3, 3, 1);
            }
            g.finalize();
        };
        let mut g: FlowGraph = FlowGraph::new(4);
        g.reserve_edges(16);
        build(&mut g, 16);
        let events = g.arena().allocation_events();
        build(&mut g, 4);
        build(&mut g, 9);
        build(&mut g, 16);
        assert_eq!(
            g.arena().allocation_events(),
            events,
            "a rebuild no larger than an earlier one grew a buffer"
        );
    }

    /// The position-major invariants: `pos_of`/`id_at` are inverse,
    /// `mate` pairs `e` with `e ^ 1`, a vertex's range holds exactly its
    /// slots in ascending id, and each slot's state sits at its position.
    fn assert_layout(g: &FlowGraph) {
        let t = &*g.arena.topo;
        for e in 0..g.num_edge_slots() {
            let p = t.pos_of[e] as usize;
            assert_eq!(t.id_at[p] as usize, e);
            assert_eq!(t.mate[p], t.pos_of[e ^ 1]);
            assert_eq!(g.target_at(p as u32), g.target(e));
            assert_eq!(g.residual_at(p as u32), g.residual(e));
        }
        for v in 0..g.num_vertices() {
            let (lo, hi) = g.adj_bounds(v);
            let ids: Vec<u32> = (lo..hi).map(|p| g.edge_at(p) as u32).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            assert!(ids.iter().all(|&e| g.source(e as usize) == v));
        }
    }

    #[test]
    fn finalize_places_every_slot_at_its_position() {
        let mut g = diamond();
        assert_layout(&g);
        // Appends after finalize, on a graph carrying flow: the flow must
        // follow its edge through the move.
        g.push(0, 2);
        g.push(4, 2);
        let e = g.add_edge(0, 3, 4);
        g.add_edge(3, 1, 1);
        g.push(e, 3);
        let flows = g.store_flows();
        g.finalize();
        assert_layout(&g);
        assert_eq!(g.store_flows(), flows);
        assert_eq!(g.net_inflow(3), 5);
    }

    #[test]
    fn push_at_moves_flow_onto_the_mate() {
        let mut g = diamond();
        let p = g.arena.topo.pos_of[4];
        g.push_at(p, 2);
        assert_eq!(g.flow(4), 2);
        assert_eq!(g.flow(5), -2);
        assert_eq!(g.residual_at(g.mate_at(p)), 2);
    }

    #[test]
    fn appender_matches_add_edge_and_detaches_once() {
        let src = diamond();
        let mut g: FlowGraph = FlowGraph::new(0);
        g.checkout_plane_from(&src).unwrap();
        // The copy-on-write detach happens once, when the appender is
        // taken; the appends themselves never check the plane again.
        let events = g.arena().allocation_events();
        let _ = g.appender();
        assert_eq!(g.arena().allocation_events(), events + 1);
        assert!(!g.shares_topology_with(&src));
        assert!(g.is_finalized(), "an unused appender changes nothing");
        let mut app = g.appender();
        assert_eq!(app.add_edge(0, 3, 1), 8);
        assert_eq!(app.add_edge(1, 2, 1), 10);
        assert!(!g.is_finalized());
        assert_eq!(src.num_edges(), 4);
        g.finalize();
        let mut h = diamond();
        h.add_edge(0, 3, 1);
        h.add_edge(1, 2, 1);
        h.finalize();
        for v in 0..4 {
            assert_eq!(g.out_edges(v), h.out_edges(v));
        }
        assert_layout(&g);
    }

    #[test]
    fn checkpoint_rolls_back_the_flow_plane() {
        let mut g = diamond();
        g.push(0, 1);
        g.checkpoint_flows();
        g.push(2, 2);
        g.push(4, 1);
        g.rollback_flows();
        assert_eq!(g.store_flows(), vec![1, -1, 0, 0, 0, 0, 0, 0]);
        // Rolling back twice restores the same state.
        g.push(6, 2);
        g.rollback_flows();
        assert_eq!(g.flow(6), 0);
    }

    #[test]
    #[should_panic(expected = "without a checkpoint")]
    fn rollback_after_a_topology_change_panics() {
        // The checkpoint is taken with the appended slots at their
        // pre-finalize positions; finalize moves them, so it must not
        // survive even though the slot count is unchanged.
        let mut g = diamond();
        g.add_edge(0, 3, 1);
        g.checkpoint_flows();
        g.finalize();
        g.rollback_flows();
    }

    #[test]
    fn width_constants() {
        assert_eq!(<i32 as ArenaIndex>::MAX, i32::MAX as i64);
        assert_eq!(<i64 as ArenaIndex>::MAX, i64::MAX);
        assert_eq!(<i32 as ArenaIndex>::NAME, "i32");
        assert_eq!(<i64 as ArenaIndex>::NAME, "i64");
        assert_eq!(i32::try_from_i64(i32::MAX as i64), Some(i32::MAX));
        assert_eq!(i32::try_from_i64(i32::MAX as i64 + 1), None);
        assert_eq!(i32::try_from_i64(i32::MIN as i64 - 1), None);
    }
}
