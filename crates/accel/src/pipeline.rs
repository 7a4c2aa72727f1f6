//! The shared simulation pipeline behind both accelerator models.
//!
//! [`engine::simulate`](crate::engine::simulate) (vertex-centric) and
//! [`edge_centric::simulate_edge_centric`](crate::edge_centric::simulate_edge_centric)
//! perform the same computation per iteration — initialise `Vtemp`, scatter contributions
//! along edges, apply, rebuild the frontier — and push the same kinds of traffic through
//! the same on-chip [`MemoryPath`] into the same DRAM model. The only genuine difference
//! between them is *traversal order*: which edges a chunk of work contains and which
//! sequential streams (topology, frontier, source properties) accompany it.
//!
//! This module owns everything that is traversal-independent:
//!
//! * the **iteration driver** [`run`] — functional state, convergence, the apply phase,
//!   compute/memory overlap timing, the final dirty flush and [`RunResult`] assembly;
//! * **frontier management** — the active set handed to each iteration and the
//!   dense/sparse frontier-read policy ([`ScatterContext::frontier_reads`]);
//! * **property-access plumbing** — turning per-edge destination updates and sequential
//!   streams into [`MemoryPath`]/[`MemRequest`] traffic
//!   ([`ScatterContext::process_edge`], [`ScatterContext::stream`]);
//! * **intra-run parallelism** — when [`crate::parallel::intra_jobs`] is above 1, the
//!   scatter chunks and the apply range are split across worker threads (see below).
//!
//! A traversal order implements [`Traversal`]: it numbers its chunks (destination-interval
//! tiles for the vertex-centric engine, 2-D grid blocks for the edge-centric one),
//! executes any single chunk on demand through a [`ScatterContext`], and groups chunks by
//! destination range ([`ScatterGroup`]) so the driver can partition `Vtemp` between
//! workers. Adding a new execution strategy (sharded, asynchronous, multi-backend) means
//! adding a new `Traversal` implementation — not a new engine.
//!
//! ## Deterministic intra-run parallelism
//!
//! The only state that makes chunk order matter is the memory path (vertex cache, MSHR,
//! PIM operand buffer) and the DRAM model behind it. Workers therefore never touch
//! either: each worker executes its chunks *functionally* (updating its disjoint `Vtemp`
//! segment) while **recording** the chunk's memory operations into a compact trace, and
//! the driver thread **replays** every trace through the single memory path in ascending
//! global chunk order — exactly the call sequence the serial interior produces. Per-chunk
//! destination updates keep their serial order because every chunk runs on one worker,
//! and per-destination reduction order across chunks is preserved by grouping (a
//! destination belongs to exactly one [`ScatterGroup`], whose chunks execute in ascending
//! order on one worker). The result: `results.json` is byte-identical for any intra-run
//! thread count.
//!
//! Every piece of state [`run`] touches — the memory path (with its boxed cache model),
//! the DRAM system, the functional property arrays — is constructed inside the call and
//! owned by it, so whole runs are freely shippable to worker threads: the parallel sweep
//! engine (`piccolo::sweep`) executes one `run` per worker. The `send_audit` test below
//! keeps this property from regressing.

use crate::config::{SimConfig, SystemKind, TilingPolicy};
use crate::layout::{GraphLayout, PROP_BYTES, ROW_OFFSET_BYTES};
use crate::parallel;
use crate::path::MemoryPath;
use piccolo_algo::vcm::VertexProgram;
use piccolo_cache::CacheStats;
use piccolo_dram::{AddressMapper, MemRequest, MemStats, MemorySystem, Region};
use piccolo_graph::{ActiveSet, BitSet, Csr, Tiling, VertexId, VertexProps, Weight};
use std::time::Instant;

/// Simulated DRAM-clock cycles split by pipeline phase.
///
/// The three components sum to the run's total memory busy time; they are deterministic
/// simulation outputs (not host timings) and ride through the results codec so hot-loop
/// work can be profile-guided from any committed `BENCH.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    /// DRAM clocks servicing scatter-phase traffic (per-chunk batches).
    pub scatter_mem_clocks: u64,
    /// DRAM clocks servicing apply-phase traffic.
    pub apply_mem_clocks: u64,
    /// DRAM clocks servicing the final dirty flush.
    pub flush_mem_clocks: u64,
}

impl PhaseBreakdown {
    /// Total DRAM clocks across all phases (equals the run's memory busy time).
    pub fn total(&self) -> u64 {
        self.scatter_mem_clocks + self.apply_mem_clocks + self.flush_mem_clocks
    }
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The simulated system.
    pub system: SystemKind,
    /// Total accelerator cycles (at the accelerator clock).
    pub accel_cycles: u64,
    /// Cycles spent in the PE array (compute component).
    pub compute_cycles: u64,
    /// DRAM busy time in nanoseconds.
    pub mem_ns: f64,
    /// Wall-clock of the run in nanoseconds (accelerator cycles / clock).
    pub elapsed_ns: f64,
    /// Iterations executed.
    pub iterations: u32,
    /// Edges processed across all iterations.
    pub edges_processed: u64,
    /// Memory-system statistics.
    pub mem_stats: MemStats,
    /// Vertex cache/scratchpad statistics.
    pub cache_stats: CacheStats,
    /// Tile width used.
    pub tile_width: u32,
    /// Number of tiles.
    pub num_tiles: u32,
    /// Per-phase breakdown of the simulated DRAM busy time.
    pub phases: PhaseBreakdown,
}

impl RunResult {
    /// Average off-chip bandwidth in GB/s over the run.
    pub fn offchip_bandwidth_gbps(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            0.0
        } else {
            self.mem_stats.offchip_bytes as f64 / self.elapsed_ns
        }
    }

    /// Average DRAM-internal bandwidth in GB/s over the run (data moved by FIM/NMP/PIM
    /// operations that never crosses the channel).
    pub fn internal_bandwidth_gbps(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            0.0
        } else {
            self.mem_stats.internal_bytes as f64 / self.elapsed_ns
        }
    }
}

/// The tile-scaling factors [`TilingPolicy::Best`] searches on fine-grained systems.
///
/// Fig. 17's sweep shows two regimes for Piccolo/NMP: factor 1 (tiles that just fit)
/// wins when random destination traffic dominates (dense frontiers, high-degree
/// graphs), factor 2 when the per-tile frontier streams dominate (sparse frontiers,
/// low-degree graphs). Conventional caches always prefer factor 1 — over-sized tiles
/// thrash 64 B lines — so only the fine-grained systems search.
pub const BEST_TILING_FACTORS: [u32; 2] = [1, 2];

/// Chooses the tiling for a run.
///
/// `TilingPolicy::Best` resolves to the *default* factor of the system family here
/// (factor 2 for fine-grained systems, 1 otherwise). This arm only matters for callers
/// that construct a [`Traversal`] directly from a `Best` config: both engine entry
/// points — [`engine::simulate`](crate::engine::simulate) and
/// [`edge_centric::simulate_edge_centric`](crate::edge_centric::simulate_edge_centric)
/// — implement Best's documented "exhaustive search" semantics through
/// [`run_with_best_search`], which replaces `Best` with each [`BEST_TILING_FACTORS`]
/// candidate before any tiling is resolved.
pub fn resolve_tiling(cfg: &SimConfig, num_vertices: u32) -> Tiling {
    match cfg.tiling {
        TilingPolicy::None => Tiling::single_tile(num_vertices),
        TilingPolicy::Perfect => {
            Tiling::perfect(num_vertices, cfg.accel.onchip_bytes, PROP_BYTES as u32)
        }
        TilingPolicy::Scaled(f) => {
            Tiling::scaled(num_vertices, cfg.accel.onchip_bytes, PROP_BYTES as u32, f)
        }
        TilingPolicy::Best => {
            let factor = match cfg.system {
                SystemKind::Nmp | SystemKind::Piccolo => 2,
                _ => 1,
            };
            Tiling::scaled(
                num_vertices,
                cfg.accel.onchip_bytes,
                PROP_BYTES as u32,
                factor,
            )
        }
    }
}

/// Runs `program` under `cfg`, giving [`TilingPolicy::Best`] its documented exhaustive
/// search on fine-grained systems (Piccolo/NMP): the run is simulated once per
/// [`BEST_TILING_FACTORS`] candidate — `make` rebuilds the traversal for each resolved
/// candidate config — and the fastest result wins (the smaller factor on a tie). Which
/// factor wins depends on the workload: dense frontiers (PR/CC) and high-degree graphs
/// favor tiles that just fit, sparse frontiers and low-degree graphs favor 2x tiles —
/// so a fixed factor is measurably mis-calibrated for part of the figure suite, in the
/// edge-centric setting just as in the vertex-centric one (grid blocks are sized by the
/// same capacity rule). Conventional systems always prefer factor 1 — over-sized tiles
/// thrash 64 B lines — and skip the search.
///
/// Both engines funnel through here, so "Best" means the same thing on every traversal
/// order.
pub fn run_with_best_search<P, T, M>(
    graph: &Csr,
    program: &P,
    cfg: &SimConfig,
    make: M,
) -> RunResult
where
    P: VertexProgram + Sync,
    P::Value: Send + Sync,
    T: Traversal<P>,
    M: Fn(&Csr, &SimConfig) -> T,
{
    if cfg.tiling == TilingPolicy::Best
        && matches!(cfg.system, SystemKind::Nmp | SystemKind::Piccolo)
    {
        return BEST_TILING_FACTORS
            .into_iter()
            .map(|f| {
                let candidate = cfg.with_tiling(TilingPolicy::Scaled(f));
                run(graph, program, &candidate, &make(graph, &candidate))
            })
            .reduce(|best, cand| {
                // Strict `<` keeps the earlier (smaller) factor on a tie.
                if cand.accel_cycles < best.accel_cycles {
                    cand
                } else {
                    best
                }
            })
            .expect("BEST_TILING_FACTORS is non-empty");
    }
    run(graph, program, cfg, &make(graph, cfg))
}

/// A group of scatter chunks sharing one contiguous destination-vertex range.
///
/// Groups are the unit of work division for intra-run parallelism: all chunks of a group
/// run on the same worker (in ascending order within the group's `chunks` list), so every
/// `Vtemp[dst]` reduction happens on one thread in the serial order. The driver requires
/// the groups of a traversal, in order, to cover `0..num_vertices` with contiguous
/// non-overlapping `dst_range`s and to mention every chunk index exactly once; traversals
/// that cannot guarantee this are executed serially.
#[derive(Debug, Clone)]
pub struct ScatterGroup {
    /// Chunk indices of this group, in the order the serial interior executes them.
    pub chunks: Vec<usize>,
    /// Destination-vertex interval `[start, end)` the group's edges update.
    pub dst_range: (u32, u32),
    /// Load-balancing cost estimate (edges in the group).
    pub cost: u64,
}

/// A traversal order: how one iteration's scatter phase walks the graph.
///
/// Implementations chunk the edge set (destination-interval tiles for the vertex-centric
/// engine, 2-D grid blocks for the edge-centric one), emit each chunk's sequential
/// streams, and feed every traversed edge to [`ScatterContext::process_edge`]. Everything
/// else — functional semantics, caching, DRAM timing, apply, convergence, intra-run
/// parallelism — is shared and lives in [`run`].
pub trait Traversal<P: VertexProgram>: Sync {
    /// `(tile_width, num_tiles)` reported in the [`RunResult`].
    fn shape(&self) -> (u32, u32);

    /// Number of scatter chunks per iteration. The serial interior executes chunks
    /// `0..num_chunks()` in ascending order; the parallel interior replays their traffic
    /// in the same order.
    fn num_chunks(&self) -> usize;

    /// The chunk groups used to divide work between intra-run workers (see
    /// [`ScatterGroup`] for the required invariants).
    fn groups(&self) -> Vec<ScatterGroup>;

    /// Executes scatter chunk `chunk` through `ctx`.
    ///
    /// A non-empty chunk must call [`ScatterContext::begin_chunk`], generate the chunk's
    /// streams and edge work, then [`ScatterContext::end_chunk`]; an empty chunk must
    /// touch nothing.
    fn scatter_chunk(&self, chunk: usize, ctx: &mut ScatterContext<'_, P>);
}

/// One chunk's recorded memory operations, interleaved in call order.
///
/// `ops` is the run-length-encoded interleaving of stateful random accesses (addresses in
/// `randoms`) and pure pre-built requests (`pure`); replaying it through the memory path
/// reproduces the serial interior's call sequence exactly.
#[derive(Debug, Default)]
struct ChunkTrace {
    began: bool,
    tile_bytes: u64,
    ops: Vec<TraceOp>,
    randoms: Vec<u64>,
    pure: Vec<MemRequest>,
}

#[derive(Debug, Clone, Copy)]
enum TraceOp {
    /// The next `n` addresses of `randoms` go through `MemoryPath::random_access`.
    Randoms(u32),
    /// The next `n` requests of `pure` are appended to the chunk batch verbatim.
    Pure(u32),
}

impl ChunkTrace {
    fn push_random(&mut self, addr: u64) {
        self.randoms.push(addr);
        match self.ops.last_mut() {
            Some(TraceOp::Randoms(k)) if *k < u32::MAX => *k += 1,
            _ => self.ops.push(TraceOp::Randoms(1)),
        }
    }

    fn note_pure(&mut self, added: usize) {
        let mut added = added as u64;
        while added > 0 {
            let take = added.min(u32::MAX as u64) as u32;
            match self.ops.last_mut() {
                Some(TraceOp::Pure(k)) if (*k as u64 + take as u64) <= u32::MAX as u64 => {
                    *k += take;
                }
                _ => self.ops.push(TraceOp::Pure(take)),
            }
            added -= take as u64;
        }
    }
}

/// Replays one recorded chunk through the memory path and DRAM model, reproducing the
/// exact call sequence (and therefore request batch) of the serial interior. Returns the
/// chunk batch's DRAM clocks.
fn replay_chunk(
    trace: ChunkTrace,
    path: &mut MemoryPath,
    mem: &mut MemorySystem,
    mapper: &AddressMapper,
) -> u64 {
    if !trace.began {
        debug_assert!(
            trace.ops.is_empty(),
            "trace has ops but never began a chunk"
        );
        return 0;
    }
    path.begin_tile(trace.tile_bytes);
    let mut reqs = Vec::new();
    let mut randoms = trace.randoms.into_iter();
    let mut pure = trace.pure.into_iter();
    for op in trace.ops {
        match op {
            TraceOp::Randoms(k) => {
                for addr in randoms.by_ref().take(k as usize) {
                    path.random_access(addr, true, mapper, &mut reqs);
                }
            }
            TraceOp::Pure(k) => reqs.extend(pure.by_ref().take(k as usize)),
        }
    }
    path.end_tile(&mut reqs);
    if reqs.is_empty() {
        0
    } else {
        mem.service_batch(reqs).elapsed_clocks()
    }
}

/// Reorder buffer between recording workers and the replaying driver thread.
///
/// Workers publish chunk traces in whatever order they finish; the driver consumes them
/// in ascending global chunk order, blocking until the next chunk arrives. A panicking
/// worker poisons the buffer so the driver stops waiting and surfaces the panic.
struct TraceBuffer {
    slots: std::sync::Mutex<TraceSlots>,
    ready: std::sync::Condvar,
}

struct TraceSlots {
    traces: Vec<Option<ChunkTrace>>,
    failed: bool,
}

impl TraceBuffer {
    fn new(num_chunks: usize) -> Self {
        Self {
            slots: std::sync::Mutex::new(TraceSlots {
                traces: (0..num_chunks).map(|_| None).collect(),
                failed: false,
            }),
            ready: std::sync::Condvar::new(),
        }
    }

    fn publish(&self, chunk: usize, trace: ChunkTrace) {
        let mut slots = self.slots.lock().unwrap();
        debug_assert!(
            slots.traces[chunk].is_none(),
            "chunk {chunk} published twice"
        );
        slots.traces[chunk] = Some(trace);
        drop(slots);
        self.ready.notify_all();
    }

    fn poison(&self) {
        self.slots.lock().unwrap().failed = true;
        self.ready.notify_all();
    }

    /// Waits for chunk `chunk`; `None` means a worker panicked.
    fn take(&self, chunk: usize) -> Option<ChunkTrace> {
        let mut slots = self.slots.lock().unwrap();
        loop {
            if slots.failed {
                return None;
            }
            if let Some(trace) = slots.traces[chunk].take() {
                return Some(trace);
            }
            slots = self.ready.wait(slots).unwrap();
        }
    }
}

/// Poisons the buffer if the owning worker unwinds, so the driver never deadlocks on a
/// chunk that will not arrive.
struct PoisonGuard<'a>(&'a TraceBuffer);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Where a [`ScatterContext`]'s memory operations go: straight through the run's memory
/// path (serial interior and trace replay) or into a [`ChunkTrace`] (recording workers).
enum Backend<'a> {
    Direct {
        path: &'a mut MemoryPath,
        mem: &'a mut MemorySystem,
        reqs: Vec<MemRequest>,
        mem_clocks: u64,
    },
    Record(ChunkTrace),
}

/// Per-iteration view of the pipeline handed to a [`Traversal`].
///
/// Owns the request buffer of the chunk in flight plus mutable access to the functional
/// state (the context's `Vtemp` segment, touched set) and the memory path or trace;
/// exposes read-only access to the frontier and `Vprop`.
pub struct ScatterContext<'a, P: VertexProgram> {
    program: &'a P,
    cfg: &'a SimConfig,
    layout: &'a GraphLayout,
    mapper: &'a AddressMapper,
    num_vertices: u32,
    props: &'a [P::Value],
    active: &'a ActiveSet,
    frontier: &'a [VertexId],
    /// The `Vtemp` segment this context may update: vertices
    /// `temp_base .. temp_base + temp.len()`.
    temp: &'a mut [P::Value],
    temp_base: u32,
    touched: &'a mut BitSet,
    /// `layout.vtemp_base`, hoisted so the per-edge path is one multiply-add.
    vtemp_base: u64,
    iter_edges: u64,
    backend: Backend<'a>,
}

impl<P: VertexProgram> std::fmt::Debug for ScatterContext<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (mode, pending) = match &self.backend {
            Backend::Direct { reqs, .. } => ("direct", reqs.len()),
            Backend::Record(trace) => ("record", trace.pure.len() + trace.randoms.len()),
        };
        f.debug_struct("ScatterContext")
            .field("system", &self.cfg.system)
            .field("mode", &mode)
            .field("pending_requests", &pending)
            .field("iter_edges", &self.iter_edges)
            .finish()
    }
}

impl<'a, P: VertexProgram> ScatterContext<'a, P> {
    /// The simulation configuration of this run.
    pub fn cfg(&self) -> &SimConfig {
        self.cfg
    }

    /// The DRAM layout of the graph arrays.
    pub fn layout(&self) -> &GraphLayout {
        self.layout
    }

    /// The active-vertex frontier of this iteration.
    pub fn active(&self) -> &ActiveSet {
        self.active
    }

    /// The frontier in ascending vertex order, built once per iteration by the driver
    /// (so per-chunk walks do not re-scan the active bitset).
    ///
    /// The returned slice borrows the iteration, not this context, so it can be walked
    /// while calling `&mut self` methods like [`Self::process_edge`].
    pub fn frontier(&self) -> &'a [VertexId] {
        self.frontier
    }

    /// Number of vertices in the graph.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Current `Vprop[v]`.
    pub fn prop(&self, v: VertexId) -> P::Value {
        self.props[v as usize]
    }

    /// Opens a chunk whose destination slice spans `tile_bytes` of `Vtemp` (drives
    /// Piccolo-cache way partitioning).
    pub fn begin_chunk(&mut self, tile_bytes: u64) {
        match &mut self.backend {
            Backend::Direct { path, .. } => path.begin_tile(tile_bytes),
            Backend::Record(trace) => {
                trace.began = true;
                trace.tile_bytes = tile_bytes;
            }
        }
    }

    /// Closes the chunk: drains the collection MSHR and services the chunk's request
    /// batch through the DRAM model. (Recording contexts defer both to replay.)
    pub fn end_chunk(&mut self) {
        match &mut self.backend {
            Backend::Direct {
                path,
                mem,
                reqs,
                mem_clocks,
            } => {
                path.end_tile(reqs);
                if !reqs.is_empty() {
                    // Draining keeps the buffer's capacity for the next chunk.
                    let batch = mem.service_batch(reqs.drain(..));
                    *mem_clocks += batch.elapsed_clocks();
                }
            }
            Backend::Record(_) => {}
        }
    }

    /// Processes one traversed edge `src --(weight)--> dst`: applies
    /// `Reduce(Vtemp[dst], Process(weight, Vprop[src]))` functionally, marks the
    /// destination touched, and pushes the 8 B random read-modify-write of `Vtemp[dst]`
    /// through the on-chip memory path (or records it for replay).
    pub fn process_edge(&mut self, src: VertexId, dst: VertexId, weight: Weight) {
        let res = self.program.process(weight, self.props[src as usize]);
        let slot = &mut self.temp[(dst - self.temp_base) as usize];
        *slot = self.program.reduce(*slot, res);
        self.touched.insert(dst as usize);
        self.iter_edges += 1;
        let addr = self.vtemp_base + dst as u64 * PROP_BYTES;
        match &mut self.backend {
            Backend::Direct { path, reqs, .. } => path.random_access(addr, true, self.mapper, reqs),
            Backend::Record(trace) => trace.push_random(addr),
        }
    }

    /// Emits `bytes` of sequential stream traffic starting at `base + offset` as 64 B
    /// bursts (reads, or writes when `write` is set), every byte useful.
    pub fn stream(&mut self, base: u64, offset: u64, bytes: u64, write: bool, region: Region) {
        match &mut self.backend {
            Backend::Direct { reqs, .. } => {
                stream_requests(reqs, base, offset, bytes, write, region);
            }
            Backend::Record(trace) => {
                let before = trace.pure.len();
                stream_requests(&mut trace.pure, base, offset, bytes, write, region);
                let added = trace.pure.len() - before;
                trace.note_pure(added);
            }
        }
    }

    /// Emits the row-offset and `Vprop` reads of this iteration's frontier for one chunk.
    ///
    /// Dense frontiers (PageRank, early CC iterations — or always, for Graphicionado,
    /// which has no active-vertex compaction in its prefetcher) stream sequentially.
    /// Sparse frontiers are isolated 4/8 B reads scattered over large arrays (the Fig. 3
    /// situation for BFS): a conventional memory system still fetches a 64 B burst per
    /// touched line, whereas Piccolo/NMP gather up to eight useful words per DRAM row
    /// through the same in-memory scatter/gather machinery used for the destination
    /// properties.
    ///
    /// `chunk_idx` decorrelates the per-chunk re-reads in the address map;
    /// `sources_with_edges` is the number of frontier vertices with edges in this chunk.
    pub fn frontier_reads(&mut self, chunk_idx: usize, sources_with_edges: u64) {
        let n = self.num_vertices as u64;
        let dense =
            self.active.len() as u64 * 16 >= n || self.cfg.system == SystemKind::Graphicionado;
        if dense {
            let row_vertices = if self.cfg.system == SystemKind::Graphicionado {
                n
            } else {
                self.active.len() as u64
            };
            self.stream(
                self.layout.row_offsets_base,
                (chunk_idx as u64 * n * ROW_OFFSET_BYTES) % (1 << 28),
                row_vertices * ROW_OFFSET_BYTES,
                false,
                Region::TopologyRow,
            );
            self.stream(
                self.layout.vprop_base,
                0,
                sources_with_edges * PROP_BYTES,
                false,
                Region::PropertySequential,
            );
        } else {
            let fine = matches!(self.cfg.system, SystemKind::Piccolo | SystemKind::Nmp);
            let nmp = self.cfg.system == SystemKind::Nmp;
            let layout = *self.layout;
            let items_per_op = self.cfg.dram.fim.items_per_op;
            // The frontier slice is the active set in ascending order; walking it beats
            // re-scanning the bitset and produces the identical address sequence.
            let addrs = self.frontier.iter().flat_map(move |&u| {
                [
                    (layout.row_offset_addr(u), ROW_OFFSET_BYTES as u32),
                    (layout.vprop_addr(u), PROP_BYTES as u32),
                ]
            });
            match &mut self.backend {
                Backend::Direct { reqs, .. } => {
                    sparse_frontier_requests(reqs, addrs, fine, nmp, self.mapper, items_per_op);
                }
                Backend::Record(trace) => {
                    let before = trace.pure.len();
                    sparse_frontier_requests(
                        &mut trace.pure,
                        addrs,
                        fine,
                        nmp,
                        self.mapper,
                        items_per_op,
                    );
                    let added = trace.pure.len() - before;
                    trace.note_pure(added);
                }
            }
        }
    }

    /// Number of requests buffered for the chunk in flight (direct contexts only).
    fn has_pending_requests(&self) -> bool {
        match &self.backend {
            Backend::Direct { reqs, .. } => !reqs.is_empty(),
            Backend::Record(_) => false,
        }
    }
}

/// Emits `bytes` of sequential stream traffic starting at `base + offset` as 64 B reads
/// (or writes), marking every byte useful.
pub(crate) fn stream_requests(
    out: &mut Vec<MemRequest>,
    base: u64,
    offset: u64,
    bytes: u64,
    write: bool,
    region: Region,
) {
    if bytes == 0 {
        return;
    }
    let start = (base + offset) & !63;
    let bursts = bytes.div_ceil(64);
    for i in 0..bursts {
        let addr = start + i * 64;
        out.push(if write {
            MemRequest::Write {
                addr,
                useful_bytes: 64,
                region,
            }
        } else {
            MemRequest::Read {
                addr,
                useful_bytes: 64,
                region,
            }
        });
    }
}

/// Emits the per-tile reads of isolated (sparse-frontier) 4/8 B accesses: row-grouped
/// in-memory gathers on fine-grained systems, one 64 B line read per touched line
/// otherwise.
pub(crate) fn sparse_frontier_requests(
    out: &mut Vec<MemRequest>,
    addrs: impl Iterator<Item = (u64, u32)>,
    fine_grained: bool,
    nmp: bool,
    mapper: &AddressMapper,
    items_per_op: u32,
) {
    if fine_grained {
        let mut by_row: std::collections::BTreeMap<piccolo_dram::RowId, Vec<u16>> =
            std::collections::BTreeMap::new();
        let mut order = Vec::new();
        for (addr, _useful) in addrs {
            let loc = mapper.decompose(addr);
            let row = mapper.row_id_of(&loc);
            let entry = by_row.entry(row).or_insert_with(|| {
                order.push(row);
                Vec::new()
            });
            let off = loc.word_offset();
            if !entry.contains(&off) {
                entry.push(off);
            }
        }
        for row in order {
            for chunk in by_row[&row].chunks(items_per_op.max(1) as usize) {
                out.push(if nmp {
                    MemRequest::GatherNmp {
                        row,
                        offsets: chunk.to_vec(),
                        region: Region::TopologyRow,
                    }
                } else {
                    MemRequest::GatherFim {
                        row,
                        offsets: chunk.to_vec(),
                        region: Region::TopologyRow,
                    }
                });
            }
        }
    } else {
        let mut last_line = u64::MAX;
        for (addr, useful) in addrs {
            let line = addr & !63;
            if line == last_line {
                continue;
            }
            last_line = line;
            out.push(MemRequest::Read {
                addr: line,
                useful_bytes: useful,
                region: Region::TopologyRow,
            });
        }
    }
}

/// A validated intra-run work division: contiguous group segments, one per worker.
struct ScatterPlan {
    segments: Vec<Segment>,
}

struct Segment {
    /// Chunk indices this worker records, in execution order.
    chunks: Vec<usize>,
    /// Destination-vertex interval `[dst_start, dst_end)` covered by the segment.
    dst_start: u32,
    dst_end: u32,
}

impl ScatterPlan {
    /// Builds a plan for `workers` threads, or `None` when the groups violate the
    /// [`ScatterGroup`] invariants (fall back to the serial interior) or the division
    /// degenerates to one worker.
    fn new(
        groups: &[ScatterGroup],
        workers: usize,
        num_vertices: u32,
        num_chunks: usize,
    ) -> Option<ScatterPlan> {
        if workers <= 1 || groups.len() <= 1 {
            return None;
        }
        // Validate: contiguous non-overlapping coverage of 0..num_vertices, and every
        // chunk index mentioned exactly once.
        let mut next_dst = 0u32;
        let mut seen = vec![false; num_chunks];
        for g in groups {
            if g.dst_range.0 != next_dst || g.dst_range.1 < g.dst_range.0 {
                return None;
            }
            next_dst = g.dst_range.1;
            for &c in &g.chunks {
                if c >= num_chunks || seen[c] {
                    return None;
                }
                seen[c] = true;
            }
        }
        if next_dst != num_vertices || !seen.iter().all(|&s| s) {
            return None;
        }

        // Greedy contiguous cost-balanced partition of the group list.
        let w = workers.min(groups.len());
        let total: u64 = groups.iter().map(|g| g.cost.max(1)).sum();
        let mut segments: Vec<Segment> = Vec::with_capacity(w);
        let mut cur = Segment {
            chunks: Vec::new(),
            dst_start: 0,
            dst_end: 0,
        };
        let mut acc = 0u64;
        for (i, g) in groups.iter().enumerate() {
            if cur.chunks.is_empty() {
                cur.dst_start = g.dst_range.0;
            }
            cur.chunks.extend_from_slice(&g.chunks);
            cur.dst_end = g.dst_range.1;
            acc += g.cost.max(1);
            let made = segments.len();
            let groups_left = groups.len() - i - 1;
            let segs_left = w - made - 1;
            let hit_target = acc * w as u64 >= total * (made as u64 + 1);
            if made + 1 < w && (hit_target || groups_left == segs_left) {
                segments.push(std::mem::replace(
                    &mut cur,
                    Segment {
                        chunks: Vec::new(),
                        dst_start: 0,
                        dst_end: 0,
                    },
                ));
            }
        }
        if !cur.chunks.is_empty() {
            segments.push(cur);
        }
        if segments.len() <= 1 {
            return None;
        }
        Some(ScatterPlan { segments })
    }
}

/// Runs `program` on `graph` under `cfg` with the given traversal order and returns
/// timing and traffic statistics.
///
/// ## Timing model
///
/// Per iteration the driver accumulates the DRAM service time of all generated requests
/// (per-chunk batches) and the PE-array compute time; with prefetching enabled the two
/// overlap (`max`), without it they serialize (`+`), which reproduces the ~20 % penalty
/// of Fig. 20b. The graph-processing accelerators the paper builds on are throughput
/// oriented: per-request latency is hidden by deep prefetch/miss queues, so makespan
/// rather than per-access latency determines performance.
///
/// ## Apply-phase traffic
///
/// Scratchpad accelerators apply over every vertex of every tile (Algorithm 1 line 6):
/// the whole `Vprop` array is re-read each iteration. Cache-based systems read the
/// `Vtemp`/`Vprop` pair of touched destinations only. Updated entries are written back
/// in both cases. This policy is shared by every traversal order.
///
/// ## Intra-run parallelism
///
/// When [`crate::parallel::intra_jobs`] is above 1 the scatter chunks are recorded by
/// worker threads (one contiguous [`ScatterGroup`] segment each, with a disjoint `Vtemp`
/// slice) and replayed here in ascending chunk order, and the apply phase runs over
/// disjoint contiguous `Vprop` ranges whose activation lists are merged in range order.
/// Both reductions are in fixed order, so the result is byte-identical to the serial
/// interior for any thread count.
pub fn run<P, T>(graph: &Csr, program: &P, cfg: &SimConfig, traversal: &T) -> RunResult
where
    P: VertexProgram + Sync,
    P::Value: Send + Sync,
    T: Traversal<P>,
{
    let n = graph.num_vertices();
    let layout = GraphLayout::new(graph);
    let mut path = MemoryPath::new(cfg.system, cfg.cache, &cfg.accel, &cfg.dram);
    let mut mem = MemorySystem::new(cfg.dram);
    let mapper = *mem.mapper();

    // Functional state (mirrors piccolo_algo::run_vcm).
    let mut props = VertexProps::new(n, program.initial_value(0, graph));
    for v in 0..n {
        props[v] = program.initial_value(v, graph);
    }
    let mut active = program.initial_active(graph);

    // Per-iteration scratch, allocated once and reused (arena-style): `Vtemp`, the
    // touched-destination set and the sorted frontier list.
    let mut temp = VertexProps::new(n, program.temp_identity(0, graph));
    let mut touched = BitSet::new(n as usize);
    let mut frontier: Vec<VertexId> = Vec::new();

    let num_chunks = traversal.num_chunks();
    let intra = parallel::intra_jobs();
    let plan = if intra > 1 {
        ScatterPlan::new(&traversal.groups(), intra, n, num_chunks)
    } else {
        None
    };

    let mut total_mem_clocks = 0u64;
    let mut compute_cycles = 0u64;
    let mut accel_cycles = 0u64;
    let mut edges_processed = 0u64;
    let mut iterations = 0u32;
    let mut phases = PhaseBreakdown::default();
    // Host wall-clock per phase, accumulated run-locally and published once at
    // the end via `parallel::record_run_profile` so the profiler can attribute
    // timings to this specific run (thread-local) as well as process-wide.
    let mut host_profile = parallel::PhaseProfile::default();
    let all_active_algorithm = program.algorithm().is_all_active();

    for _iter in 0..cfg.max_iterations {
        if active.is_empty() {
            break;
        }
        iterations += 1;

        // Frontier + scratch rebuild (word-level bitset scan; reused allocations).
        let t_frontier = Instant::now();
        frontier.clear();
        active.for_each_sorted(|v| frontier.push(v));
        for v in 0..n {
            temp[v] = program.temp_identity(v, graph);
        }
        touched.clear();
        host_profile.frontier_ns += t_frontier.elapsed().as_nanos() as u64;

        // Scatter phase (Algorithm 1 lines 1-5), in the traversal's order.
        let t_scatter = Instant::now();
        let (iter_scatter_clocks, iter_edges) = match &plan {
            None => {
                let mut ctx = ScatterContext {
                    program,
                    cfg,
                    layout: &layout,
                    mapper: &mapper,
                    num_vertices: n,
                    props: props.as_slice(),
                    active: &active,
                    frontier: &frontier,
                    temp: temp.as_mut_slice(),
                    temp_base: 0,
                    touched: &mut touched,
                    vtemp_base: layout.vtemp_base,
                    iter_edges: 0,
                    backend: Backend::Direct {
                        path: &mut path,
                        mem: &mut mem,
                        reqs: Vec::new(),
                        mem_clocks: 0,
                    },
                };
                for chunk in 0..num_chunks {
                    traversal.scatter_chunk(chunk, &mut ctx);
                }
                debug_assert!(
                    !ctx.has_pending_requests(),
                    "traversal left an unclosed chunk"
                );
                if ctx.has_pending_requests() {
                    // Fail closed in release builds: a traversal that forgot its final
                    // end_chunk() must not silently drop traffic from the timing model.
                    ctx.end_chunk();
                }
                let iter_edges = ctx.iter_edges;
                let clocks = match ctx.backend {
                    Backend::Direct { mem_clocks, .. } => mem_clocks,
                    Backend::Record(_) => unreachable!("serial interior is direct"),
                };
                (clocks, iter_edges)
            }
            Some(plan) => parallel_scatter(
                plan,
                traversal,
                program,
                cfg,
                &layout,
                &mapper,
                n,
                &props,
                &active,
                &frontier,
                &mut temp,
                &mut touched,
                &mut path,
                &mut mem,
                num_chunks,
            ),
        };
        host_profile.scatter_ns += t_scatter.elapsed().as_nanos() as u64;

        // Apply phase (Algorithm 1 lines 6-10), functionally over every vertex, with
        // memory traffic charged for touched destinations only.
        let t_apply = Instant::now();
        let mut next_active = ActiveSet::new(n);
        let mut updated = 0u64;
        match &plan {
            None => {
                for v in 0..n {
                    let new = program.apply(props[v], temp[v], program.vconst(v, graph));
                    if program.changed(props[v], new) {
                        props[v] = new;
                        next_active.activate(v);
                        updated += 1;
                    }
                }
            }
            Some(plan) => {
                let workers = plan.segments.len();
                let per_range = parallel_apply(graph, program, &mut props, &temp, n, workers);
                // Merge in range order: ranges are ascending and disjoint, so the merged
                // activation order is ascending — exactly the serial order.
                for (changed, count) in per_range {
                    for v in changed {
                        next_active.activate(v);
                    }
                    updated += count;
                }
            }
        }
        let touched_count = touched.count() as u64;
        let mut apply_reqs = Vec::new();
        if path.is_scratchpad() {
            stream_requests(
                &mut apply_reqs,
                layout.vprop_base,
                0,
                n as u64 * PROP_BYTES,
                false,
                Region::PropertySequential,
            );
        } else {
            stream_requests(
                &mut apply_reqs,
                layout.vtemp_base,
                0,
                touched_count * 2 * PROP_BYTES,
                false,
                Region::PropertySequential,
            );
        }
        stream_requests(
            &mut apply_reqs,
            layout.vprop_base,
            0,
            updated * PROP_BYTES,
            true,
            Region::PropertySequential,
        );
        let mut iter_apply_clocks = 0u64;
        if !apply_reqs.is_empty() {
            iter_apply_clocks += mem.service_batch(apply_reqs).elapsed_clocks();
        }
        host_profile.apply_ns += t_apply.elapsed().as_nanos() as u64;

        // Timing: compute overlaps memory when the prefetcher is enabled.
        let iter_mem_clocks = iter_scatter_clocks + iter_apply_clocks;
        let iter_compute = cfg
            .accel
            .compute_cycles(iter_edges, touched_count + updated);
        let iter_mem_ns = mem.clocks_to_ns(iter_mem_clocks);
        let iter_mem_accel_cycles = (iter_mem_ns * cfg.accel.clock_ghz).ceil() as u64;
        accel_cycles += if cfg.accel.prefetch {
            iter_compute.max(iter_mem_accel_cycles)
        } else {
            iter_compute + iter_mem_accel_cycles
        };
        compute_cycles += iter_compute;
        total_mem_clocks += iter_mem_clocks;
        phases.scatter_mem_clocks += iter_scatter_clocks;
        phases.apply_mem_clocks += iter_apply_clocks;
        edges_processed += iter_edges;

        let t_rebuild = Instant::now();
        active = if all_active_algorithm && updated > 0 {
            ActiveSet::all(n)
        } else if all_active_algorithm {
            ActiveSet::new(n)
        } else {
            next_active
        };
        host_profile.frontier_ns += t_rebuild.elapsed().as_nanos() as u64;
    }

    // Final flush: dirty vertex data must reach memory.
    let mut final_reqs = Vec::new();
    path.finish(&mapper, &mut final_reqs);
    if !final_reqs.is_empty() {
        let batch = mem.service_batch(final_reqs);
        total_mem_clocks += batch.elapsed_clocks();
        phases.flush_mem_clocks += batch.elapsed_clocks();
        accel_cycles += (mem.clocks_to_ns(batch.elapsed_clocks()) * cfg.accel.clock_ghz) as u64;
    }

    let (tile_width, num_tiles) = traversal.shape();
    let mem_ns = mem.clocks_to_ns(total_mem_clocks);
    parallel::record_run_profile(host_profile);
    RunResult {
        system: cfg.system,
        accel_cycles,
        compute_cycles,
        mem_ns,
        elapsed_ns: accel_cycles as f64 / cfg.accel.clock_ghz,
        iterations,
        edges_processed,
        mem_stats: *mem.stats(),
        cache_stats: path.cache_stats(),
        tile_width,
        num_tiles,
        phases,
    }
}

/// The parallel scatter interior: workers record their segments' chunks, the calling
/// thread replays all chunks in ascending order through the single memory path, then
/// worker results (touched sets, edge counts) are folded in fixed worker-index order.
/// Returns `(scatter DRAM clocks, edges processed)`.
#[allow(clippy::too_many_arguments)]
fn parallel_scatter<P, T>(
    plan: &ScatterPlan,
    traversal: &T,
    program: &P,
    cfg: &SimConfig,
    layout: &GraphLayout,
    mapper: &AddressMapper,
    n: u32,
    props: &VertexProps<P::Value>,
    active: &ActiveSet,
    frontier: &[VertexId],
    temp: &mut VertexProps<P::Value>,
    touched: &mut BitSet,
    path: &mut MemoryPath,
    mem: &mut MemorySystem,
    num_chunks: usize,
) -> (u64, u64)
where
    P: VertexProgram + Sync,
    P::Value: Send + Sync,
    T: Traversal<P>,
{
    let buffer = TraceBuffer::new(num_chunks);
    let mut scatter_clocks = 0u64;
    let mut iter_edges = 0u64;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(plan.segments.len());
        let mut rest = temp.as_mut_slice();
        let mut consumed = 0u32;
        for seg in &plan.segments {
            debug_assert_eq!(seg.dst_start, consumed, "segments must tile Vtemp");
            let seg_len = (seg.dst_end - seg.dst_start) as usize;
            let (seg_temp, tail) = rest.split_at_mut(seg_len);
            rest = tail;
            consumed = seg.dst_end;
            let temp_base = seg.dst_start;
            let buffer_ref = &buffer;
            let props_slice = props.as_slice();
            handles.push(s.spawn(move || {
                let _guard = PoisonGuard(buffer_ref);
                let mut seg_touched = BitSet::new(n as usize);
                let mut seg_edges = 0u64;
                for &chunk in &seg.chunks {
                    let mut ctx = ScatterContext {
                        program,
                        cfg,
                        layout,
                        mapper,
                        num_vertices: n,
                        props: props_slice,
                        active,
                        frontier,
                        temp: &mut *seg_temp,
                        temp_base,
                        touched: &mut seg_touched,
                        vtemp_base: layout.vtemp_base,
                        iter_edges: 0,
                        backend: Backend::Record(ChunkTrace::default()),
                    };
                    traversal.scatter_chunk(chunk, &mut ctx);
                    seg_edges += ctx.iter_edges;
                    let Backend::Record(trace) = ctx.backend else {
                        unreachable!("worker contexts record")
                    };
                    buffer_ref.publish(chunk, trace);
                }
                (seg_touched, seg_edges)
            }));
        }
        debug_assert!(rest.is_empty(), "segments must cover every vertex");

        // Replay in ascending global chunk order — call-for-call the serial sequence.
        for chunk in 0..num_chunks {
            match buffer.take(chunk) {
                Some(trace) => scatter_clocks += replay_chunk(trace, path, mem, mapper),
                None => break, // a worker panicked; surface its payload below
            }
        }

        for handle in handles {
            match handle.join() {
                Ok((seg_touched, seg_edges)) => {
                    touched.union_with(&seg_touched);
                    iter_edges += seg_edges;
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    (scatter_clocks, iter_edges)
}

/// The parallel apply interior: disjoint contiguous `Vprop` ranges, one per worker; each
/// worker returns its ascending changed-vertex list and update count, in range order.
fn parallel_apply<P>(
    graph: &Csr,
    program: &P,
    props: &mut VertexProps<P::Value>,
    temp: &VertexProps<P::Value>,
    n: u32,
    workers: usize,
) -> Vec<(Vec<VertexId>, u64)>
where
    P: VertexProgram + Sync,
    P::Value: Send + Sync,
{
    let per_worker = (n as usize).div_ceil(workers.max(1)).max(1);
    let temp_slice = temp.as_slice();
    let mut out = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        let mut rest = props.as_mut_slice();
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = per_worker.min(rest.len());
            let (range, tail) = rest.split_at_mut(take);
            rest = tail;
            let lo = base as u32;
            base += take;
            handles.push(s.spawn(move || {
                let mut changed = Vec::new();
                let mut count = 0u64;
                for (i, slot) in range.iter_mut().enumerate() {
                    let v = lo + i as u32;
                    let new =
                        program.apply(*slot, temp_slice[v as usize], program.vconst(v, graph));
                    if program.changed(*slot, new) {
                        *slot = new;
                        changed.push(v);
                        count += 1;
                    }
                }
                (changed, count)
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(pair) => out.push(pair),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

#[cfg(test)]
mod send_audit {
    //! Compile-time audit that the whole simulation pipeline is per-run owned: a worker
    //! thread must be able to own a run's memory path (with its boxed cache), DRAM
    //! system and result. Fails to compile if any layer grows shared mutability.
    use super::*;
    use crate::config::SimConfig;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn simulation_state_is_send() {
        assert_send::<MemoryPath>();
        assert_send::<MemorySystem>();
        assert_send::<RunResult>();
        assert_send::<SimConfig>();
        // Shared read-only inputs of a sweep: one graph serves many worker threads.
        assert_sync::<Csr>();
        assert_sync::<SimConfig>();
        // Intra-run machinery: traces cross from recording workers to the replaying
        // driver thread through the reorder buffer.
        assert_send::<ChunkTrace>();
        assert_sync::<TraceBuffer>();
    }
}
