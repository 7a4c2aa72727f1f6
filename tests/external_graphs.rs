//! Workspace-level integration tests for the external-dataset path: a SNAP-style file
//! on disk flows through the `piccolo-io` snapshot cache, the `piccolo-graph` external
//! registry, and the campaign scheduler, with deterministic output for any worker
//! count and a guaranteed snapshot-cache hit on the second load.

use piccolo::campaign::{PlannedCampaign, Shard};
use piccolo::experiments::{external_spec, Scale};
use piccolo::report::results_json;
use piccolo_graph::{external, generate};
use piccolo_io::{load_graph_with, SnapshotStatus};
use std::io::Write as _;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("piccolo-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn external_file_runs_the_campaign_deterministically_and_hits_the_cache() {
    let dir = scratch("external");
    let edge_file = dir.join("e2e.tsv");
    let cache_dir = dir.join("snaps");

    // A deterministic "real" graph on disk, SNAP-style with header comments.
    let graph = generate::kronecker(11, 6, 77);
    {
        let mut f = std::fs::File::create(&edge_file).unwrap();
        writeln!(
            f,
            "# Nodes: {} Edges: {}",
            graph.num_vertices(),
            graph.num_edges()
        )
        .unwrap();
        for e in graph.iter_edges() {
            writeln!(f, "{}\t{}\t{}", e.src, e.dst, e.weight).unwrap();
        }
    }

    // First load parses and snapshots; second load must hit the cache and agree.
    let first = load_graph_with(&edge_file, None, &cache_dir).unwrap();
    assert_eq!(first.status, SnapshotStatus::Miss);
    assert_eq!(first.graph, graph, "text round trip is the identity");
    let second = load_graph_with(&edge_file, None, &cache_dir).unwrap();
    assert_eq!(second.status, SnapshotStatus::Hit);
    assert_eq!(second.graph, graph, "snapshot round trip is the identity");

    // Registered as an external dataset, the graph runs PR+BFS on both engines via
    // the campaign — with byte-identical results.json for any worker count.
    let ds = external::register("e2e-external", second.graph);
    let scale = Scale {
        scale_shift: 13,
        seed: 7,
        max_iterations: 2,
    };
    let campaign = PlannedCampaign::new(scale, vec![external_spec(scale, &[ds])]);
    let sequential = campaign.run(1, Shard::WHOLE, None).unwrap();
    let doc = results_json(scale, &sequential.figures);
    for jobs in [2, 8] {
        let parallel = campaign.run(jobs, Shard::WHOLE, None).unwrap();
        assert_eq!(
            results_json(scale, &parallel.figures),
            doc,
            "jobs={jobs} must be byte-identical to jobs=1"
        );
    }
    // The external graph was fetched once and evicted when its last consumer finished.
    assert_eq!(sequential.stats.graphs_built, 1);
    assert_eq!(sequential.stats.graphs_evicted, 1);
    // 2 algorithms x 2 engines x 2 systems.
    assert_eq!(sequential.figures[0].points.len(), 8);
    assert!(sequential.figures[0]
        .points
        .iter()
        .all(|p| p.label.contains("e2e-external") && p.value > 0.0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graphtool_equivalent_conversion_matches_the_cache_snapshot() {
    // `graphtool convert` and the snapshot cache must produce interchangeable .pcsr
    // bytes for the same source: both route through write_pcsr, whose output is
    // deterministic per graph.
    let dir = scratch("convert");
    let edge_file = dir.join("conv.txt");
    let graph = generate::uniform(500, 2500, 13);
    {
        let mut f = std::fs::File::create(&edge_file).unwrap();
        for e in graph.iter_edges() {
            writeln!(f, "{} {} {}", e.src, e.dst, e.weight).unwrap();
        }
    }
    // What graphtool convert does:
    let converted = dir.join("conv.pcsr");
    let parsed = piccolo_io::load_text(&edge_file, piccolo_io::TextFormat::EdgeList)
        .unwrap()
        .to_csr();
    piccolo_io::save_pcsr(&converted, &parsed).unwrap();
    // What the snapshot cache writes:
    let cached = load_graph_with(&edge_file, None, &dir.join("snaps")).unwrap();
    let snapshot = cached.snapshot.unwrap();
    assert_eq!(
        std::fs::read(&converted).unwrap(),
        std::fs::read(&snapshot).unwrap(),
        "deterministic serialization: converted file == cache snapshot"
    );
    assert_eq!(parsed, graph);

    let _ = std::fs::remove_dir_all(&dir);
}
