//! Outside replay of one dense scatter iteration, timed layer by layer.
//!
//! `simulate` drives the on-chip memory path and the DRAM model from inside
//! `pipeline::run`, where no timer outside the program can tell them apart. The replay
//! rebuilds the same call sequence from public pieces and times each layer separately:
//!
//! * the tiles come from `resolve_tiling` and `tiling::partition_csr`, exactly as the
//!   vertex-centric traversal builds them;
//! * per tile: `begin_tile`, one `random_access` per edge at `vtemp_base + dst * 8`, the
//!   64 B row-offset, `Vprop` and column bursts of a dense frontier, `end_tile`, then
//!   one `MemorySystem::service_batch`;
//! * fine-grained systems (Piccolo, NMP) call the cache and the collection-extended MSHR
//!   one after the other instead of through `MemoryPath::random_access`, so the two are
//!   timed apart. The cache never reads MSHR state, so the requests come out the same.
//!
//! [`gate`] is the fidelity check: on the same config at one iteration, the replayed
//! DRAM clocks must equal `simulate`'s `phases.scatter_mem_clocks` and the cache
//! accesses, hits and misses must equal its `cache_stats`.

use crate::clock::now;
use piccolo_accel::layout::{EDGE_BYTES, PROP_BYTES, ROW_OFFSET_BYTES};
use piccolo_accel::{resolve_tiling, GraphLayout, MemoryPath, RunResult, SimConfig};
use piccolo_cache::{CacheStats, MissAction};
use piccolo_dram::{MemRequest, MemStats, MemorySystem, Region};
use piccolo_graph::{tiling::partition_csr, Csr};

/// Host seconds per layer and the work counts of one replayed dense scatter iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Walking the tile slices and building the sequential bursts.
    pub stream_s: f64,
    /// The on-chip path: the cache model, or the scratchpad/PIM path of systems that
    /// have no cache.
    pub cache_s: f64,
    /// The collection-extended MSHR (pushes and the end-of-tile drain).
    pub mshr_s: f64,
    /// `MemorySystem::service_batch`.
    pub dram_s: f64,
    /// Edges replayed (one random access each).
    pub edges: u64,
    /// Counters of the on-chip path.
    pub cache: CacheStats,
    /// Scatter/gather operations the MSHR emitted.
    pub mshr_ops: u64,
    /// Word offsets carried by those operations.
    pub mshr_items: u64,
    /// Requests serviced by the DRAM model.
    pub dram_requests: u64,
    /// `service_batch` calls.
    pub dram_batches: u64,
    /// Simulated DRAM clocks of those batches.
    pub dram_clocks: u64,
    /// The DRAM model's counters after the iteration.
    pub mem: MemStats,
}

impl Replay {
    /// Host seconds of every replayed layer together.
    pub fn layers_s(&self) -> f64 {
        self.stream_s + self.cache_s + self.mshr_s + self.dram_s
    }
}

/// Appends `bytes` of sequential reads from `base + offset` as 64 B bursts.
fn bursts(out: &mut Vec<MemRequest>, base: u64, offset: u64, bytes: u64, region: Region) {
    let start = (base + offset) & !63;
    out.extend((0..bytes.div_ceil(64)).map(|i| MemRequest::Read {
        addr: start + i * 64,
        useful_bytes: 64,
        region,
    }));
}

/// Replays the first scatter iteration of an all-active vertex program (every vertex in
/// the frontier) under `cfg`, from an empty cache and an idle DRAM model.
pub fn replay_dense_iteration(graph: &Csr, cfg: &SimConfig) -> Replay {
    let n = graph.num_vertices();
    let tiling = resolve_tiling(cfg, n);
    let slices = partition_csr(graph, &tiling);
    let layout = GraphLayout::new(graph);
    let mut path = MemoryPath::new(cfg.system, cfg.cache, &cfg.accel, &cfg.dram);
    let mut mem = MemorySystem::new(cfg.dram);
    let mapper = *mem.mapper();
    let mut out = Replay::default();
    let mut addrs: Vec<u64> = Vec::new();
    let mut streams: Vec<MemRequest> = Vec::new();
    let mut actions: Vec<MissAction> = Vec::new();
    let mut reqs: Vec<MemRequest> = Vec::new();

    for (chunk, slice) in slices.iter().enumerate() {
        if slice.num_edges() == 0 {
            continue;
        }
        let t_stream = now();
        addrs.clear();
        let mut sources = 0u64;
        let mut edge_bytes = 0u64;
        for u in 0..n {
            let deg = slice.out_degree(u);
            if deg == 0 {
                continue;
            }
            sources += 1;
            edge_bytes += deg * EDGE_BYTES;
            addrs.extend(slice.neighbors(u).map(|(v, _)| layout.vtemp_addr(v)));
        }
        // A dense frontier streams every row offset (all vertices are active), the
        // `Vprop` of the sources with edges in this tile, then the tile's columns.
        let chunk = chunk as u64;
        let n64 = u64::from(n);
        bursts(
            &mut streams,
            layout.row_offsets_base,
            (chunk * n64 * ROW_OFFSET_BYTES) % (1 << 28),
            n64 * ROW_OFFSET_BYTES,
            Region::TopologyRow,
        );
        bursts(
            &mut streams,
            layout.vprop_base,
            0,
            sources * PROP_BYTES,
            Region::PropertySequential,
        );
        bursts(
            &mut streams,
            layout.columns_base,
            (chunk * 64) % (1 << 20),
            edge_bytes,
            Region::TopologyCol,
        );
        out.stream_s += t_stream.elapsed().as_secs_f64();
        out.edges += addrs.len() as u64;

        let t_cache = now();
        let tile = tiling.tile(chunk as u32);
        path.begin_tile(u64::from(tile.width()) * PROP_BYTES);
        if let MemoryPath::FineGrain { cache, mshr } = &mut path {
            actions.clear();
            for &addr in &addrs {
                actions.extend(cache.access(addr, 8, true).actions);
            }
            let t_mshr = now();
            out.cache_s += (t_mshr - t_cache).as_secs_f64();
            for action in &actions {
                let loc = mapper.decompose(action.addr());
                let row = mapper.row_id_of(&loc);
                reqs.extend(match action {
                    MissAction::Fill { .. } => mshr.push_read(row, loc.word_offset()),
                    MissAction::Writeback { .. } => mshr.push_write(row, loc.word_offset()),
                });
            }
            reqs.append(&mut streams);
            reqs.extend(mshr.drain());
            out.mshr_s += t_mshr.elapsed().as_secs_f64();
        } else {
            for &addr in &addrs {
                path.random_access(addr, true, &mapper, &mut reqs);
            }
            reqs.append(&mut streams);
            path.end_tile(&mut reqs);
            out.cache_s += t_cache.elapsed().as_secs_f64();
        }

        for r in &reqs {
            if let MemRequest::GatherFim { offsets, .. }
            | MemRequest::ScatterFim { offsets, .. }
            | MemRequest::GatherNmp { offsets, .. }
            | MemRequest::ScatterNmp { offsets, .. } = r
            {
                out.mshr_ops += 1;
                out.mshr_items += offsets.len() as u64;
            }
        }
        if !reqs.is_empty() {
            let t_dram = now();
            let batch = mem.service_batch(std::mem::take(&mut reqs));
            out.dram_s += t_dram.elapsed().as_secs_f64();
            out.dram_requests += batch.requests;
            out.dram_batches += 1;
            out.dram_clocks += batch.elapsed_clocks();
        }
    }
    out.cache = path.cache_stats();
    out.mem = *mem.stats();
    out
}

/// The fidelity gate: every way `replay` differs from `sim`, which must be `simulate`
/// on the replayed config at one iteration. Empty means the replay is exact.
pub fn gate(replay: &Replay, sim: &RunResult) -> Vec<String> {
    let pairs = [
        (
            "DRAM clocks vs phases.scatter_mem_clocks",
            replay.dram_clocks,
            sim.phases.scatter_mem_clocks,
        ),
        (
            "cache accesses",
            replay.cache.accesses,
            sim.cache_stats.accesses,
        ),
        ("cache hits", replay.cache.hits, sim.cache_stats.hits),
        ("cache misses", replay.cache.misses, sim.cache_stats.misses),
        ("edges", replay.edges, sim.edges_processed),
    ];
    pairs
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{what}: replay {got}, expected {want}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo_accel::{pipeline, SystemKind, TilingPolicy, VertexCentric};
    use piccolo_algo::PageRank;
    use piccolo_graph::generate;

    /// One-iteration PageRank config of `system` and the simulator's result on it.
    fn simulated(graph: &Csr, system: SystemKind) -> (SimConfig, RunResult) {
        let cfg = SimConfig::for_system(system, 12).with_max_iterations(1);
        let traversal = VertexCentric::new(graph, &cfg);
        let sim = pipeline::run(graph, &PageRank::default(), &cfg, &traversal);
        (cfg, sim)
    }

    #[test]
    fn replay_matches_simulate_on_a_tiny_graph_for_every_system() {
        let graph = generate::kronecker(11, 8, 3);
        for system in SystemKind::ALL {
            let (cfg, sim) = simulated(&graph, system);
            let replay = replay_dense_iteration(&graph, &cfg);
            assert_eq!(gate(&replay, &sim), Vec::<String>::new(), "{system:?}");
            assert!(
                replay.dram_batches > 0 && replay.dram_requests > 0,
                "{system:?}"
            );
        }
    }

    #[test]
    fn fine_grained_replay_feeds_the_mshr() {
        let graph = generate::kronecker(11, 8, 3);
        let (cfg, _) = simulated(&graph, SystemKind::Piccolo);
        let replay = replay_dense_iteration(&graph, &cfg);
        assert!(replay.mshr_ops > 0);
        assert!(replay.mshr_items >= replay.mshr_ops);
        assert!(replay.cache.hits > 0 && replay.cache.misses > 0);
    }

    #[test]
    fn gate_reports_a_replay_that_drifted() {
        let graph = generate::kronecker(12, 4, 5);
        let (cfg, sim) = simulated(&graph, SystemKind::GraphDynsCache);
        let mut replay = replay_dense_iteration(&graph, &cfg);
        replay.dram_clocks += 1;
        replay.cache.hits += 1;
        assert_eq!(gate(&replay, &sim).len(), 2);
        // A different tiling replays a different stream, which the gate must catch.
        let other = replay_dense_iteration(&graph, &cfg.with_tiling(TilingPolicy::Scaled(4)));
        assert!(!gate(&other, &sim).is_empty());
    }
}
