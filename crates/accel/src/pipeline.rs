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
//!   ([`ScatterContext::process_edge`], [`ScatterContext::stream`]).
//!
//! A traversal order implements [`Traversal`]: it numbers its chunks (destination-interval
//! tiles for the vertex-centric engine, 2-D grid blocks for the edge-centric one) and
//! executes any single chunk on demand through a [`ScatterContext`]. Adding a new
//! execution strategy (sharded, asynchronous, multi-backend) means adding a new
//! `Traversal` implementation — not a new engine.
//!
//! The interior of a run is serial. The memory path (vertex cache, MSHR, PIM operand
//! buffer) and the DRAM model behind it are stateful and order-dependent, so every chunk's
//! traffic passes through the one [`MemoryPath`] and the one [`MemorySystem`] in ascending
//! chunk order. Parallelism lives one level up, across whole runs.
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
    P: VertexProgram,
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

/// A traversal order: how one iteration's scatter phase walks the graph.
///
/// Implementations chunk the edge set (destination-interval tiles for the vertex-centric
/// engine, 2-D grid blocks for the edge-centric one), emit each chunk's sequential
/// streams, and feed every traversed edge to [`ScatterContext::process_edge`]. Everything
/// else — functional semantics, caching, DRAM timing, apply, convergence — is shared and
/// lives in [`run`].
pub trait Traversal<P: VertexProgram> {
    /// `(tile_width, num_tiles)` reported in the [`RunResult`].
    fn shape(&self) -> (u32, u32);

    /// Number of scatter chunks per iteration. The driver executes chunks
    /// `0..num_chunks()` in ascending order.
    fn num_chunks(&self) -> usize;

    /// Executes scatter chunk `chunk` through `ctx`.
    ///
    /// A non-empty chunk must call [`ScatterContext::begin_chunk`], generate the chunk's
    /// streams and edge work, then [`ScatterContext::end_chunk`]; an empty chunk must
    /// touch nothing.
    fn scatter_chunk(&self, chunk: usize, ctx: &mut ScatterContext<'_, P>);
}

/// Per-iteration view of the pipeline handed to a [`Traversal`].
///
/// Owns the request buffer of the chunk in flight plus mutable access to the functional
/// state (`Vtemp`, touched set), the memory path and the DRAM model; exposes read-only
/// access to the frontier and `Vprop`.
pub struct ScatterContext<'a, P: VertexProgram> {
    program: &'a P,
    cfg: &'a SimConfig,
    layout: &'a GraphLayout,
    mapper: &'a AddressMapper,
    num_vertices: u32,
    props: &'a [P::Value],
    active: &'a ActiveSet,
    frontier: &'a [VertexId],
    temp: &'a mut [P::Value],
    touched: &'a mut BitSet,
    /// `layout.vtemp_base`, hoisted so the per-edge path is one multiply-add.
    vtemp_base: u64,
    iter_edges: u64,
    path: &'a mut MemoryPath,
    mem: &'a mut MemorySystem,
    reqs: Vec<MemRequest>,
    mem_clocks: u64,
}

impl<P: VertexProgram> std::fmt::Debug for ScatterContext<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScatterContext")
            .field("system", &self.cfg.system)
            .field("pending_requests", &self.reqs.len())
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
        self.path.begin_tile(tile_bytes);
    }

    /// Closes the chunk: drains the collection MSHR and services the chunk's request
    /// batch through the DRAM model.
    pub fn end_chunk(&mut self) {
        self.path.end_tile(&mut self.reqs);
        if !self.reqs.is_empty() {
            // Draining keeps the buffer's capacity for the next chunk.
            let batch = self.mem.service_batch(self.reqs.drain(..));
            self.mem_clocks += batch.elapsed_clocks();
        }
    }

    /// Processes one traversed edge `src --(weight)--> dst`: applies
    /// `Reduce(Vtemp[dst], Process(weight, Vprop[src]))` functionally, marks the
    /// destination touched, and pushes the 8 B random read-modify-write of `Vtemp[dst]`
    /// through the on-chip memory path.
    pub fn process_edge(&mut self, src: VertexId, dst: VertexId, weight: Weight) {
        let res = self.program.process(weight, self.props[src as usize]);
        let slot = &mut self.temp[dst as usize];
        *slot = self.program.reduce(*slot, res);
        self.touched.insert(dst as usize);
        self.iter_edges += 1;
        let addr = self.vtemp_base + dst as u64 * PROP_BYTES;
        self.path
            .random_access(addr, true, self.mapper, &mut self.reqs);
    }

    /// Emits `bytes` of sequential stream traffic starting at `base + offset` as 64 B
    /// bursts (reads, or writes when `write` is set), every byte useful.
    pub fn stream(&mut self, base: u64, offset: u64, bytes: u64, write: bool, region: Region) {
        stream_requests(&mut self.reqs, base, offset, bytes, write, region);
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
            sparse_frontier_requests(&mut self.reqs, addrs, fine, nmp, self.mapper, items_per_op);
        }
    }
}

/// Emits `bytes` of sequential stream traffic starting at `base + offset` as 64 B reads
/// (or writes), marking every byte useful.
fn stream_requests(
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
fn sparse_frontier_requests(
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
pub fn run<P, T>(graph: &Csr, program: &P, cfg: &SimConfig, traversal: &T) -> RunResult
where
    P: VertexProgram,
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
            touched: &mut touched,
            vtemp_base: layout.vtemp_base,
            iter_edges: 0,
            path: &mut path,
            mem: &mut mem,
            reqs: Vec::new(),
            mem_clocks: 0,
        };
        for chunk in 0..num_chunks {
            traversal.scatter_chunk(chunk, &mut ctx);
        }
        debug_assert!(ctx.reqs.is_empty(), "traversal left an unclosed chunk");
        if !ctx.reqs.is_empty() {
            // Fail closed in release builds: a traversal that forgot its final
            // end_chunk() must not silently drop traffic from the timing model.
            ctx.end_chunk();
        }
        let (iter_scatter_clocks, iter_edges) = (ctx.mem_clocks, ctx.iter_edges);
        host_profile.scatter_ns += t_scatter.elapsed().as_nanos() as u64;

        // Apply phase (Algorithm 1 lines 6-10), functionally over every vertex, with
        // memory traffic charged for touched destinations only.
        let t_apply = Instant::now();
        let mut next_active = ActiveSet::new(n);
        let mut updated = 0u64;
        for v in 0..n {
            let new = program.apply(props[v], temp[v], program.vconst(v, graph));
            if program.changed(props[v], new) {
                props[v] = new;
                next_active.activate(v);
                updated += 1;
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
    }
}
