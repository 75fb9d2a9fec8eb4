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
//! All per-edge state lives in flat structure-of-arrays buffers owned by a
//! [`GraphArena`]: `head`/`cap`/`flow` indexed by edge slot, plus the CSR
//! adjacency pair `adj_index` (one offset per vertex, length `n + 1`) and
//! `adj_list` (edge slots grouped by owning vertex). A vertex's outgoing
//! slots are the contiguous range `adj_list[adj_index[v]..adj_index[v + 1]]`
//! — one cache-friendly slice instead of the former per-vertex `Vec`
//! (a heap allocation and pointer chase per vertex on every hot loop).
//!
//! Topology mutation ([`FlowGraph::add_edge`]) appends to the edge arrays
//! and marks the CSR index stale; [`FlowGraph::finalize`] rebuilds it with a
//! *stable* counting sort in `O(n + m)` using only reused buffers. Stability
//! matters: per-vertex slot order stays exactly the insertion order the old
//! `Vec<Vec<u32>>` layout produced, so every solver's traversal order — and
//! its operation counts — are unchanged. Solver entry points (which take
//! `&mut FlowGraph`) finalize automatically; [`FlowGraph::out_edges`] panics
//! on a stale index rather than returning stale adjacency.
//!
//! # Width
//!
//! The capacity/flow arrays are generic over an [`ArenaIndex`] width: `i64`
//! (the default, and the width of every public snapshot) or `i32` (the
//! *compact* layout — half the per-edge cache footprint, which the
//! graph_layout bench measures at ~1.25x on paper-scale instances). The
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
/// `head`, `adj_index` and `adj_list` are width-free (`u32` regardless of
/// the capacity width), so one plane can back both the wide and the
/// compact arena. Planes are held behind an [`std::sync::Arc`] and shared
/// copy-on-write: [`FlowGraph::checkout_plane_from`] shares a finalized
/// plane in O(1), and any later topology mutation on either side
/// ([`FlowGraph::add_edge`], [`FlowGraph::reset`], [`FlowGraph::finalize`]
/// after new edges) detaches a private copy first — a detach counts as an
/// [`GraphArena::allocation_events`] event, which is how the serving
/// layers pin "the epoch plane was never invalidated in steady state".
#[derive(Clone, Debug, Default)]
pub struct TopologyPlane {
    /// `head[e]` is the target vertex of edge slot `e`. The owning (source)
    /// vertex of `e` is `head[e ^ 1]`.
    head: Vec<u32>,
    /// CSR offsets: vertex `v` owns `adj_list[adj_index[v]..adj_index[v+1]]`.
    adj_index: Vec<u32>,
    /// Edge slots grouped by owning vertex, insertion order within a vertex.
    adj_list: Vec<u32>,
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
/// ([`TopologyPlane`]: `head`/`adj_index`/`adj_list`, immutable per epoch
/// and shareable across graphs of *either* width) and the per-query
/// capacity/flow plane (`cap`/`flow`, private to this arena and mutated by
/// every solve).
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
    /// Capacity of each edge slot. Reverse slots have capacity 0.
    cap: Vec<W>,
    /// Current flow on each edge slot; `flow[e ^ 1] == -flow[e]`.
    flow: Vec<W>,
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
    /// is counted in full even when it is shared with other arenas).
    pub fn reserved_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.topo.head.capacity() + self.topo.adj_index.capacity())
            .saturating_add(self.topo.adj_list.capacity() + self.cursor.capacity())
            * size_of::<u32>()
            + (self.cap.capacity() + self.flow.capacity()) * size_of::<W>()
    }
}

/// Issues a best-effort read prefetch for the cache line holding `*ptr`.
/// Purely a cache hint — no architectural side effects, so instrumented
/// operation counts and traversal digests are unchanged by its presence.
#[inline(always)]
fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch never faults, even on invalid addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch(ptr as *const i8, core::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// A directed flow network with mutable capacities and explicit flow state,
/// stored in a CSR residual arena.
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
    /// Whether `adj_index`/`adj_list` are stale relative to the edge arrays.
    dirty: bool,
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
                    head: Vec::with_capacity(2 * edges),
                    adj_index: Vec::with_capacity(n + 1),
                    adj_list: Vec::with_capacity(2 * edges),
                }),
                cap: Vec::with_capacity(2 * edges),
                flow: Vec::with_capacity(2 * edges),
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
        self.arena.topo.head.len()
    }

    /// Number of forward edges added via [`FlowGraph::add_edge`].
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.arena.topo.head.len() / 2
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
    /// many slots), so a cold build pays one allocation per array instead
    /// of doubling growth, and a steady-state rebuild under the bound pays
    /// none. Callers that know their topology ahead (the retrieval network
    /// builders do: `q` bucket arcs, at most `MAX_COPIES` replica arcs per
    /// bucket, one arc per disk) should call this right after
    /// [`FlowGraph::reset`].
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
        track_grow(&mut a.grows, &mut t.head, |v| {
            v.reserve(slots.saturating_sub(v.len()))
        });
        track_grow(&mut a.grows, &mut t.adj_list, |v| {
            v.reserve(slots.saturating_sub(v.len()))
        });
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
        assert!(u < self.n, "source vertex {u} out of range");
        assert!(v < self.n, "target vertex {v} out of range");
        assert!(cap >= 0, "negative capacity {cap}");
        let a = &mut self.arena;
        let t = topo_mut(&mut a.topo, &mut a.grows);
        let e = t.head.len();
        let before = t.head.capacity();
        t.head.push(v as u32);
        t.head.push(u as u32);
        a.grows += (t.head.capacity() != before) as u64;
        a.cap.push(W::from_i64(cap));
        a.cap.push(W::default());
        a.flow.push(W::default());
        a.flow.push(W::default());
        self.dirty = true;
        e
    }

    /// Rebuilds the CSR adjacency index after topology changes, preserving
    /// per-vertex insertion order (stable counting sort, `O(n + m)`, no
    /// allocations once the arena has grown to size). Idempotent and cheap
    /// when the index is already current.
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
        let m = t.head.len();
        let before = t.adj_index.capacity() + t.adj_list.capacity() + a.cursor.capacity();
        t.adj_index.clear();
        t.adj_index.resize(n + 1, 0);
        // Count slots per owning vertex; the owner of slot e is head[e ^ 1].
        for e in 0..m {
            t.adj_index[t.head[e ^ 1] as usize + 1] += 1;
        }
        for v in 0..n {
            t.adj_index[v + 1] += t.adj_index[v];
        }
        a.cursor.clear();
        a.cursor.extend_from_slice(&t.adj_index[..n]);
        // Stable placement pass: ascending slot id within each vertex. The
        // scattered writes go through spare capacity so the buffer is not
        // zeroed first — every position in `0..m` is written exactly once
        // (the per-vertex counts sum to `m`), which is what makes the
        // `set_len` below sound.
        t.adj_list.clear();
        t.adj_list.reserve(m);
        let spare = t.adj_list.spare_capacity_mut();
        for e in 0..m {
            let src = t.head[e ^ 1] as usize;
            let slot = a.cursor[src];
            spare[slot as usize].write(e as u32);
            a.cursor[src] = slot + 1;
        }
        // SAFETY: the placement pass above initialized all `m` entries.
        unsafe { t.adj_list.set_len(m) };
        a.grows +=
            (t.adj_index.capacity() + t.adj_list.capacity() + a.cursor.capacity() != before) as u64;
        self.dirty = false;
    }

    /// Target vertex of edge `e`.
    #[inline]
    pub fn target(&self, e: EdgeId) -> VertexId {
        self.arena.topo.head[e] as usize
    }

    /// Source vertex of edge `e` (the target of its reverse edge).
    #[inline]
    pub fn source(&self, e: EdgeId) -> VertexId {
        self.arena.topo.head[e ^ 1] as usize
    }

    /// Capacity of edge `e`.
    #[inline]
    pub fn cap(&self, e: EdgeId) -> i64 {
        self.arena.cap[e].to_i64()
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
        self.arena.cap[e] = W::from_i64(cap);
    }

    /// Current flow on edge `e` (negative on reverse edges).
    #[inline]
    pub fn flow(&self, e: EdgeId) -> i64 {
        self.arena.flow[e].to_i64()
    }

    /// Residual capacity of edge `e`: `cap(e) - flow(e)`.
    #[inline]
    pub fn residual(&self, e: EdgeId) -> i64 {
        self.arena.cap[e].to_i64() - self.arena.flow[e].to_i64()
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
        self.arena.flow[e] = W::from_i64(self.arena.flow[e].to_i64() + delta);
        self.arena.flow[e ^ 1] = W::from_i64(self.arena.flow[e ^ 1].to_i64() - delta);
    }

    /// Target vertex of edge `e`, without the release-mode bounds check.
    ///
    /// Internal fast path for solver inner loops. Callers must pass an edge
    /// id obtained from [`FlowGraph::out_edges`] of this graph (those are
    /// valid by construction); the `debug_assert!` checks the contract in
    /// debug builds, where every test suite runs.
    #[inline(always)]
    pub(crate) fn target_fast(&self, e: EdgeId) -> VertexId {
        debug_assert!(e < self.arena.topo.head.len(), "edge {e} out of range");
        // SAFETY: guarded by the documented contract + debug_assert above.
        unsafe { *self.arena.topo.head.get_unchecked(e) as usize }
    }

    /// Residual capacity of edge `e`, without release-mode bounds checks.
    /// Same contract as [`FlowGraph::target_fast`].
    #[inline(always)]
    pub(crate) fn residual_fast(&self, e: EdgeId) -> i64 {
        debug_assert!(e < self.arena.cap.len(), "edge {e} out of range");
        // SAFETY: guarded by the documented contract + debug_assert above.
        unsafe {
            self.arena.cap.get_unchecked(e).to_i64() - self.arena.flow.get_unchecked(e).to_i64()
        }
    }

    /// [`FlowGraph::push`] without release-mode bounds checks. Same contract
    /// as [`FlowGraph::target_fast`]; the residual-overflow `debug_assert!`
    /// of `push` applies unchanged.
    #[inline(always)]
    pub(crate) fn push_fast(&mut self, e: EdgeId, delta: i64) {
        debug_assert!(e < self.arena.flow.len(), "edge {e} out of range");
        debug_assert!(
            delta <= self.residual(e),
            "push of {delta} exceeds residual {} on edge {e}",
            self.residual(e)
        );
        // SAFETY: guarded by the documented contract + debug_assert above;
        // e ^ 1 is in range whenever e is, because slots come in pairs.
        unsafe {
            let f = self.arena.flow.get_unchecked(e).to_i64() + delta;
            *self.arena.flow.get_unchecked_mut(e) = W::from_i64(f);
            let r = self.arena.flow.get_unchecked(e ^ 1).to_i64() - delta;
            *self.arena.flow.get_unchecked_mut(e ^ 1) = W::from_i64(r);
        }
    }

    /// Adjacency bounds of vertex `v` as absolute `adj_list` positions
    /// `[lo, hi)`, without release-mode bounds checks.
    ///
    /// Solver inner loops hoist this pair once per vertex visit and then
    /// walk slots with [`FlowGraph::adj_slot`]: topology is frozen for the
    /// whole solve, so the bounds cannot move, and re-deriving the
    /// `out_edges` slice per arc would re-pay the staleness check and two
    /// index loads each time. Same contract as [`FlowGraph::target_fast`]
    /// (finalized graph, `v` in range), checked by `debug_assert!` where
    /// every test suite runs.
    #[inline(always)]
    pub(crate) fn adj_bounds(&self, v: VertexId) -> (u32, u32) {
        debug_assert!(!self.dirty, "adj_bounds on stale topology: call finalize()");
        debug_assert!(
            v + 1 < self.arena.topo.adj_index.len(),
            "vertex {v} out of range"
        );
        // SAFETY: guarded by the documented contract + debug_assert above.
        unsafe {
            (
                *self.arena.topo.adj_index.get_unchecked(v),
                *self.arena.topo.adj_index.get_unchecked(v + 1),
            )
        }
    }

    /// Edge id stored at absolute adjacency position `pos`, without
    /// release-mode bounds checks. `pos` must lie inside a `[lo, hi)` pair
    /// returned by [`FlowGraph::adj_bounds`] on this (still finalized)
    /// graph.
    #[inline(always)]
    pub(crate) fn adj_slot(&self, pos: u32) -> EdgeId {
        debug_assert!(!self.dirty, "adj_slot on stale topology: call finalize()");
        debug_assert!(
            (pos as usize) < self.arena.topo.adj_list.len(),
            "adjacency position {pos} out of range"
        );
        // SAFETY: guarded by the documented contract + debug_assert above.
        unsafe { *self.arena.topo.adj_list.get_unchecked(pos as usize) as EdgeId }
    }

    /// Prefetches the per-edge state (`head`/`cap`/`flow`) of the edge a
    /// few adjacency positions ahead of `pos`, hiding the dependent-load
    /// latency of `adj_list[pos] -> edge arrays` in the discharge and
    /// global-relabel walks. `hi` is the walk bound from
    /// [`FlowGraph::adj_bounds`]. Purely a cache hint (see
    /// [`prefetch_read`]); a no-op on non-x86_64 targets.
    #[inline(always)]
    pub(crate) fn prefetch_adj(&self, pos: u32, hi: u32) {
        const DIST: u32 = 16;
        let p = pos.wrapping_add(DIST);
        if p < hi {
            debug_assert!((p as usize) < self.arena.topo.adj_list.len());
            // SAFETY: p < hi <= adj_list.len() per the adj_bounds contract.
            let e = unsafe { *self.arena.topo.adj_list.get_unchecked(p as usize) } as usize;
            prefetch_read(self.arena.cap.as_ptr().wrapping_add(e));
            prefetch_read(self.arena.flow.as_ptr().wrapping_add(e));
            prefetch_read(self.arena.topo.head.as_ptr().wrapping_add(e));
        }
    }

    /// [`FlowGraph::prefetch_adj`] for walks that test the *target* before
    /// touching edge state (the lowest-neighbour scan): fetches only the
    /// `head` word, keeping the cap/flow lines out of the way of scans
    /// that will reject most edges on height alone.
    #[inline(always)]
    pub(crate) fn prefetch_adj_head(&self, pos: u32, hi: u32) {
        const DIST: u32 = 16;
        let p = pos.wrapping_add(DIST);
        if p < hi {
            debug_assert!((p as usize) < self.arena.topo.adj_list.len());
            // SAFETY: p < hi <= adj_list.len() per the adj_bounds contract.
            let e = unsafe { *self.arena.topo.adj_list.get_unchecked(p as usize) } as usize;
            prefetch_read(self.arena.topo.head.as_ptr().wrapping_add(e));
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
        let lo = self.arena.topo.adj_index[v] as usize;
        let hi = self.arena.topo.adj_index[v + 1] as usize;
        &self.arena.topo.adj_list[lo..hi]
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
        self.arena.flow.iter_mut().for_each(|f| *f = W::default());
    }

    /// Snapshot of the current flow state (for `StoreFlows`, Algorithm 6).
    /// Always widened to `i64` so snapshots are width-portable.
    ///
    /// Allocates a fresh vector; steady-state callers use
    /// [`FlowGraph::store_flows_into`] with a reused buffer instead.
    pub fn store_flows(&self) -> Vec<i64> {
        self.arena.flow.iter().map(|f| f.to_i64()).collect()
    }

    /// Writes the current flow state into `buf`, reusing its allocation —
    /// the allocation-free counterpart of [`FlowGraph::store_flows`] for
    /// callers that snapshot repeatedly (the binary capacity-scaling
    /// driver stores state on every failed probe).
    pub fn store_flows_into(&self, buf: &mut Vec<i64>) {
        buf.clear();
        buf.extend(self.arena.flow.iter().map(|f| f.to_i64()));
    }

    /// Makes `self` a copy of `other`, reusing existing allocations
    /// (including the CSR adjacency buffers) instead of allocating a fresh
    /// graph as `clone` would. Copies the finalization state too: copying a
    /// finalized graph yields a finalized graph.
    pub fn copy_from(&mut self, other: &FlowGraph<W>) {
        let (a, b) = (&mut self.arena, &other.arena);
        track_grow(&mut a.grows, &mut a.cap, |v| v.clone_from(&b.cap));
        track_grow(&mut a.grows, &mut a.flow, |v| v.clone_from(&b.flow));
        // A plane already shared with the source is bit-identical by the
        // copy-on-write invariant — skip the deep topology copy.
        if !std::sync::Arc::ptr_eq(&a.topo, &b.topo) {
            let t = topo_mut(&mut a.topo, &mut a.grows);
            track_grow(&mut a.grows, &mut t.head, |v| v.clone_from(&b.topo.head));
            track_grow(&mut a.grows, &mut t.adj_index, |v| {
                v.clone_from(&b.topo.adj_index)
            });
            track_grow(&mut a.grows, &mut t.adj_list, |v| {
                v.clone_from(&b.topo.adj_list)
            });
        }
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
        if W::MAX < V::MAX {
            for (e, (c, f)) in other.arena.cap.iter().zip(&other.arena.flow).enumerate() {
                for value in [c.to_i64(), f.to_i64()] {
                    if W::try_from_i64(value).is_none() {
                        return Err(WidthOverflow {
                            edge: e,
                            value,
                            width: W::NAME,
                        });
                    }
                }
            }
        }
        let (a, b) = (&mut self.arena, &other.arena);
        track_grow(&mut a.grows, &mut a.cap, |v| {
            v.clear();
            v.extend(b.cap.iter().map(|c| W::from_i64(c.to_i64())));
        });
        track_grow(&mut a.grows, &mut a.flow, |v| {
            v.clear();
            v.extend(b.flow.iter().map(|f| W::from_i64(f.to_i64())));
        });
        // Cross-width copies still deep-copy the (width-free) topology
        // unless it is already shared, same as `copy_from`.
        if !std::sync::Arc::ptr_eq(&a.topo, &b.topo) {
            let t = topo_mut(&mut a.topo, &mut a.grows);
            track_grow(&mut a.grows, &mut t.head, |v| v.clone_from(&b.topo.head));
            track_grow(&mut a.grows, &mut t.adj_index, |v| {
                v.clone_from(&b.topo.adj_index)
            });
            track_grow(&mut a.grows, &mut t.adj_list, |v| {
                v.clone_from(&b.topo.adj_list)
            });
        }
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
        // A shared topology plane is about to be invalidated: detach to a
        // fresh private plane instead of deep-cloning contents we would
        // clear anyway. The detach (epoch invalidation) counts as a growth
        // event; an unshared plane keeps its buffers as before.
        if std::sync::Arc::get_mut(&mut a.topo).is_none() {
            a.topo = std::sync::Arc::new(TopologyPlane::default());
            a.grows += 1;
        }
        let t = std::sync::Arc::get_mut(&mut a.topo).expect("plane is private here");
        t.head.clear();
        t.adj_list.clear();
        track_grow(&mut a.grows, &mut t.adj_index, |idx| {
            idx.clear();
            idx.resize(n + 1, 0);
        });
        self.n = n;
        self.dirty = false;
    }

    /// Restores a flow snapshot taken with [`FlowGraph::store_flows`]
    /// (`RestoreFlows`, Algorithm 6). Snapshots are `i64` regardless of the
    /// graph width; values are narrowed debug-checked (snapshots taken from
    /// a graph of this width always fit — use
    /// [`FlowGraph::try_restore_flows`] when that is not known).
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
        for (dst, &src) in self.arena.flow.iter_mut().zip(snapshot) {
            *dst = W::from_i64(src);
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
        for (dst, &src) in self.arena.flow.iter_mut().zip(snapshot) {
            *dst = W::from_i64(src);
        }
        Ok(())
    }

    /// Net flow into vertex `v` over forward edges; for the sink this is the
    /// flow value. Works on stale topology (falls back to an edge-array
    /// scan: every slot targeting `v` contributes its flow — forward slots
    /// count inflow positively, reverse slots carry the paired outflow
    /// negated).
    pub fn net_inflow(&self, v: VertexId) -> i64 {
        if self.dirty {
            let v = v as u32;
            return self
                .arena
                .topo
                .head
                .iter()
                .zip(&self.arena.flow)
                .filter(|&(&h, _)| h == v)
                .map(|(_, f)| f.to_i64())
                .sum();
        }
        self.out_edges(v)
            .iter()
            .map(|&e| {
                let e = e as usize;
                if e % 2 == 1 {
                    // reverse slot: the paired forward edge points at v
                    self.arena.flow[e ^ 1].to_i64()
                } else {
                    -self.arena.flow[e].to_i64()
                }
            })
            .sum()
    }

    /// Iterator over all forward edge ids.
    pub fn forward_edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.arena.topo.head.len()).step_by(2)
    }

    /// Whether `self` and `other` currently share one topology plane (the
    /// widths may differ — the plane is width-free). Shared planes are
    /// bit-identical by construction: any mutation detaches first.
    pub fn shares_topology_with<V: ArenaIndex>(&self, other: &FlowGraph<V>) -> bool {
        std::sync::Arc::ptr_eq(&self.arena.topo, &other.arena.topo)
    }

    /// Checks out `other`'s finalized topology plane by reference (an O(1)
    /// `Arc` share — no head/adjacency copy) and copies only its
    /// capacity/flow planes, width-checked. This is the per-query staging
    /// path of the epoch-shared arena: the shape is borrowed from the
    /// epoch's instance, the mutable planes are private to this graph.
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
        if W::MAX < V::MAX {
            for (e, (c, f)) in other.arena.cap.iter().zip(&other.arena.flow).enumerate() {
                for value in [c.to_i64(), f.to_i64()] {
                    if W::try_from_i64(value).is_none() {
                        return Err(WidthOverflow {
                            edge: e,
                            value,
                            width: W::NAME,
                        });
                    }
                }
            }
        }
        let (a, b) = (&mut self.arena, &other.arena);
        if !std::sync::Arc::ptr_eq(&a.topo, &b.topo) {
            a.topo = std::sync::Arc::clone(&b.topo);
        }
        track_grow(&mut a.grows, &mut a.cap, |v| {
            v.clear();
            v.extend(b.cap.iter().map(|c| W::from_i64(c.to_i64())));
        });
        track_grow(&mut a.grows, &mut a.flow, |v| {
            v.clear();
            v.extend(b.flow.iter().map(|f| W::from_i64(f.to_i64())));
        });
        self.n = other.n;
        self.dirty = false;
        Ok(())
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
