//! The `pr-dense` workload: PageRank through all six systems per pass, single-threaded
//! (`intra_jobs` 1).

use crate::clock::now;
use crate::replay::{gate, replay_dense_iteration};
use crate::{Checks, Layers, Pass};
use piccolo_accel::{
    pipeline, simulate, take_thread_phase_profile, RunResult, SimConfig, SystemKind, VertexCentric,
};
use piccolo_algo::{run_vcm, PageRank};
use piccolo_graph::{generate, Csr};
use piccolo_io::hash::Fnv64;
use std::collections::BTreeMap;

/// The systems in Fig. 10 order, with the slug metric names use.
pub const SYSTEMS: [(SystemKind, &str); 6] = [
    (SystemKind::Graphicionado, "graphicionado"),
    (SystemKind::GraphDynsSpm, "graphdyns-spm"),
    (SystemKind::GraphDynsCache, "graphdyns-cache"),
    (SystemKind::Nmp, "nmp"),
    (SystemKind::Pim, "pim"),
    (SystemKind::Piccolo, "piccolo"),
];

/// Scale shift of every simulated config (on-chip structures and DRAM rows).
const SCALE_SHIFT: u32 = 12;
/// PageRank iterations per run; every one is all-active.
const ITERATIONS: u32 = 3;

/// PageRank on one graph, run through every system.
pub struct PrDense {
    graph: Csr,
    program: PageRank,
    /// Digest of each system's first result, which every repetition must match.
    digests: BTreeMap<&'static str, u64>,
    /// Iterations and edges of the functional CPU reference.
    reference: Option<(u32, u64)>,
}

/// `pr-dense` inputs: PageRank for 3 iterations on `kronecker(15, 10, seed)`.
pub fn inputs(seed: u64) -> PrDense {
    PrDense {
        graph: generate::kronecker(15, 10, seed),
        program: PageRank::default(),
        digests: BTreeMap::new(),
        reference: None,
    }
}

/// Digest of everything a speed-up must leave unchanged in one result.
fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv64::new();
    h.update(
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            r.accel_cycles, r.mem_stats, r.cache_stats, r.phases
        )
        .as_bytes(),
    );
    h.finish()
}

impl PrDense {
    fn config(&self, system: SystemKind) -> SimConfig {
        SimConfig::for_system(system, SCALE_SHIFT).with_max_iterations(ITERATIONS)
    }

    /// `simulate` without the tiling search: `Best` resolves to the system's default
    /// factor, the tiling the replay uses.
    fn simulate_fixed(&self, cfg: &SimConfig) -> RunResult {
        let traversal = VertexCentric::new(&self.graph, cfg);
        pipeline::run(&self.graph, &self.program, cfg, &traversal)
    }

    /// Iterations and edges of the functional CPU reference, computed on first use.
    fn reference(&mut self) -> (u32, u64) {
        *self.reference.get_or_insert_with(|| {
            let r = run_vcm(&self.graph, &self.program, ITERATIONS);
            (r.iterations, r.total_edges_traversed())
        })
    }

    /// One pass over the six systems. A traced pass also reads the phase profiler around
    /// each call and replays the first scatter iteration of each system.
    pub fn pass(&mut self, traced: bool, checks: &mut Checks) -> Pass {
        let mut layers = Layers::default();
        let mut unit_s = Vec::with_capacity(SYSTEMS.len());
        let mut results = Vec::with_capacity(SYSTEMS.len());
        let start = now();
        for (system, _) in SYSTEMS {
            let cfg = self.config(system);
            if traced {
                take_thread_phase_profile();
            }
            let t = now();
            let r = simulate(&self.graph, &self.program, &cfg);
            unit_s.push(t.elapsed().as_secs_f64());
            if traced {
                let phases = take_thread_phase_profile();
                layers.add("pipeline.scatter_s", phases.scatter_ns as f64 * 1e-9);
                layers.add("pipeline.apply_s", phases.apply_ns as f64 * 1e-9);
                layers.add("pipeline.frontier_s", phases.frontier_ns as f64 * 1e-9);
            }
            results.push(r);
        }
        let wall_s = start.elapsed().as_secs_f64();

        let (ref_iterations, ref_edges) = self.reference();
        let mut sim_edges = 0;
        for (((system, slug), r), run_s) in SYSTEMS.into_iter().zip(&results).zip(&unit_s) {
            sim_edges += r.edges_processed;
            checks.expect(
                r.iterations == ref_iterations && r.edges_processed == ref_edges,
                || format!("{slug}: {} iterations / {} edges, CPU reference {ref_iterations} / {ref_edges}", r.iterations, r.edges_processed),
            );
            let d = digest(r);
            let first = *self.digests.entry(slug).or_insert_with(|| {
                println!("digest {slug} {d:016x}");
                d
            });
            checks.expect(d == first, || {
                format!("{slug}: digest {d:016x} differs from {first:016x}")
            });
            if traced {
                layers.set(&format!("accel.run_s.{slug}"), *run_s);
                layers.add("pipeline.iterations", f64::from(r.iterations));
                layers.add("pipeline.edges", r.edges_processed as f64);
                self.replay_layers(system, slug, &mut layers, checks);
            }
        }
        Pass {
            wall_s,
            sim_edges,
            layers,
        }
    }

    /// Replays the first scatter iteration of `system` and gates it against the
    /// simulator on the same fixed-factor config at one iteration.
    fn replay_layers(
        &self,
        system: SystemKind,
        slug: &str,
        layers: &mut Layers,
        checks: &mut Checks,
    ) {
        let cfg = self.config(system).with_max_iterations(1);
        take_thread_phase_profile();
        let sim = self.simulate_fixed(&cfg);
        let sim_scatter_s = take_thread_phase_profile().scatter_ns as f64 * 1e-9;
        let replay = replay_dense_iteration(&self.graph, &cfg);
        let mismatches = gate(&replay, &sim);
        checks.expect(mismatches.is_empty(), || {
            format!("{slug}: replay gate: {}", mismatches.join("; "))
        });

        let per = |what: &str| format!("{what}.{slug}");
        layers.set(&per("replay.stream_s"), replay.stream_s);
        layers.set(&per("replay.coverage"), replay.layers_s() / sim_scatter_s);
        layers.set(&per("cache.self_s"), replay.cache_s);
        layers.set(&per("cache.accesses"), replay.cache.accesses as f64);
        layers.set(&per("cache.hit_rate"), replay.cache.hit_rate());
        layers.set(&per("mshr.self_s"), replay.mshr_s);
        layers.set(&per("mshr.ops"), replay.mshr_ops as f64);
        layers.set(
            &per("mshr.items_per_op"),
            replay.mshr_items as f64 / replay.mshr_ops.max(1) as f64,
        );
        layers.set(&per("dram.self_s"), replay.dram_s);
        layers.set(&per("dram.requests"), replay.dram_requests as f64);
        layers.set(&per("dram.batches"), replay.dram_batches as f64);
        layers.set(
            &per("dram.ns_per_request"),
            replay.dram_s * 1e9 / replay.dram_requests.max(1) as f64,
        );
        layers.set(&per("dram.row_hit_rate"), replay.mem.row_hit_rate());
        layers.set(&per("dram.sim_clocks"), replay.dram_clocks as f64);
    }
}
