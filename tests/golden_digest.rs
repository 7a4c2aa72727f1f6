//! Golden digests of the model's outputs, frozen at a known-good commit.
//!
//! The parity suites compare a binary against itself (across job counts, shards and
//! resumes); these constants compare it against the past. Each one is the FNV-64 of
//! what a host-side speed-up must leave unchanged: for every `SystemKind` under both
//! traversals and for Piccolo under every Fig. 11 cache design, the `{:?}` of
//! `accel_cycles | mem_stats | cache_stats | phases` of a PageRank run (the format
//! `hostbench` prints as `digest <system>`), and the bytes of `results.json` for one
//! small fixed campaign.
//!
//! A change that is meant to move the model updates the constants in the same diff and
//! says why in CHANGES.md. A change that is not meant to move it must leave them alone.

use piccolo::campaign::{PlannedCampaign, Shard};
use piccolo::experiments::{self, Scale};
use piccolo::report::results_json;
use piccolo_accel::{simulate, simulate_edge_centric, CacheKind, RunResult, SimConfig, SystemKind};
use piccolo_algo::{Algorithm, PageRank};
use piccolo_graph::{generate, Dataset};
use piccolo_io::hash::{fnv64, Fnv64};

/// `(system, vertex-centric digest, edge-centric digest)` in `SystemKind::ALL` order.
const RUN_DIGESTS: [(SystemKind, u64, u64); 6] = [
    (
        SystemKind::Graphicionado,
        0x6f14c65884c85a39,
        0xe6d162cf335de48b,
    ),
    (
        SystemKind::GraphDynsSpm,
        0x6f14c65884c85a39,
        0xe6d162cf335de48b,
    ),
    (
        SystemKind::GraphDynsCache,
        0x022f7ea700e01d12,
        0x897f77098ef6e6a5,
    ),
    (SystemKind::Nmp, 0x70103df45330a693, 0x21a51e04a9e300c8),
    (SystemKind::Pim, 0x1cab917f5a6d16af, 0x4bce628d1669ef5f),
    (SystemKind::Piccolo, 0x5fa32fe82c01fe25, 0xa23989925807a588),
];

/// `(cache design, vertex-centric digest)` of Piccolo in `CacheKind::FIG11` order.
const CACHE_DIGESTS: [(CacheKind, u64); 7] = [
    (CacheKind::Sectored, 0xf8b1627586c5e580),
    (CacheKind::Amoeba, 0xd82b4b81062d3ede),
    (CacheKind::Scrabble, 0xa48ddd99ec6475e8),
    (CacheKind::Graphfire, 0x6876037a35ee457a),
    (CacheKind::PiccoloLru, 0x5fa32fe82c01fe25),
    (CacheKind::PiccoloRrip, 0x5fa32fe82c01fe25),
    (CacheKind::Line8, 0x9a06096d4cb47017),
];

/// FNV-64 of the `results.json` of the campaign in
/// [`campaign_results_json_digest_matches_the_frozen_model`].
const CAMPAIGN_DIGEST: u64 = 0x2263b68d43e6c27e;

fn run_digest(r: &RunResult) -> u64 {
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

#[test]
fn pagerank_run_digests_match_the_frozen_model() {
    // 2048 vertices against the 8 KiB on-chip floor of scale shift 12: the scratchpad
    // systems tile, the cache misses, and FIM, NMP and PIM requests all reach DRAM.
    // (Graphicionado and GraphDyns-SPM coincide here: with every vertex active, the
    // prefetcher's compaction has nothing to drop.)
    let graph = generate::kronecker(11, 8, 1);
    let program = PageRank::default();
    let mut actual = Vec::new();
    for (system, _, _) in RUN_DIGESTS {
        let cfg = SimConfig::for_system(system, 12).with_max_iterations(2);
        let vc = simulate(&graph, &program, &cfg);
        let ec = simulate_edge_centric(&graph, &program, &cfg);
        actual.push((system, run_digest(&vc), run_digest(&ec)));
    }
    let expected: Vec<_> = RUN_DIGESTS.to_vec();
    assert_eq!(
        format!("{actual:#x?}"),
        format!("{expected:#x?}"),
        "a run digest moved: the model's timing or traffic output changed"
    );
}

#[test]
fn piccolo_cache_design_digests_match_the_frozen_model() {
    // The same run as above on Piccolo, once per Fig. 11 cache design: the only place
    // besides the quick campaign that pins RRIP replacement and the other sector caches.
    // (RRIP and LRU coincide: every touch resets a line's RRPV to 0 and nothing ages it,
    // so among valid lines the RRIP key orders by recency alone.)
    let graph = generate::kronecker(11, 8, 1);
    let program = PageRank::default();
    let actual: Vec<_> = CacheKind::FIG11
        .iter()
        .map(|&cache| {
            let cfg = SimConfig::for_system(SystemKind::Piccolo, 12)
                .with_max_iterations(2)
                .with_cache(cache);
            (cache, run_digest(&simulate(&graph, &program, &cfg)))
        })
        .collect();
    let expected: Vec<_> = CACHE_DIGESTS.to_vec();
    assert_eq!(
        format!("{actual:#x?}"),
        format!("{expected:#x?}"),
        "a cache design's run digest moved: the model's timing or traffic output changed"
    );
}

#[test]
fn campaign_results_json_digest_matches_the_frozen_model() {
    let scale = Scale {
        scale_shift: 15,
        seed: 7,
        max_iterations: 2,
    };
    let ds = [Dataset::Sinaweibo];
    let algs = [Algorithm::PageRank];
    let specs = vec![
        experiments::fig10_spec(scale, &ds, &algs),
        experiments::fig12_spec(scale, &ds, &algs),
        experiments::table2_spec(scale),
    ];
    let run = PlannedCampaign::new(scale, specs)
        .run(1, Shard::WHOLE, None)
        .unwrap();
    let doc = results_json(scale, &run.figures);
    assert_eq!(
        format!("{:#018x}", fnv64(doc.as_bytes())),
        format!("{CAMPAIGN_DIGEST:#018x}"),
        "the results.json digest moved: the model's output changed"
    );
}
