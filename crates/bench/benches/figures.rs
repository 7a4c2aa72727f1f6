//! Benchmarks: one (small-scale) benchmark per paper figure/table.
//!
//! The reproduction container has no access to crates.io, so instead of Criterion this is
//! a hand-rolled harness (`harness = false` in `Cargo.toml`): each figure's
//! [`ExperimentSpec`] runs through a [`SweepRunner`] at a tiny scale for a few timed
//! samples, and the harness prints min/mean wall-clock per figure. The `repro` binary
//! runs the same specs at full reproduction scale.
//!
//! Besides timing, the harness extracts the deterministic Piccolo-vs-baseline speedup
//! metrics from each figure's rows (see `piccolo_bench::speedup_metrics`), can emit
//! everything as `BENCH.json`, and can gate on the checked-in regression floors:
//!
//! ```text
//! cargo bench                                   # all figures, 5 samples each
//! cargo bench -- fig10                          # filter by name substring
//! cargo bench -- --quick --jobs 2               # 2 samples, 2 workers
//! cargo bench -- --json BENCH.json --check crates/bench/baselines.json
//! cargo bench -- --external web=web.tsv        # bench a real graph (external figure)
//! ```
//!
//! (`--check` exits non-zero if any tracked speedup falls below its floor; CI's
//! bench-smoke job runs exactly that. `--external NAME=PATH`, repeatable, loads real
//! graphs through the `piccolo-io` snapshot cache and appends the `external` figure —
//! PR+BFS on both engines — so external graphs get `BENCH.json` rows and their
//! `external/gm_{vc,ec}_piccolo` metrics can carry `baselines.json` floors.)
//!
//! Besides the hand-set floors, `--check` ratchets against the best committed values
//! in the sibling `trajectory.json`: deterministic speedup metrics must never fall
//! below the best the model has achieved. `--allow-regression` downgrades ratchet
//! failures to warnings (static floors stay hard); `--update-ratchet` writes improved
//! bests back to the file.
//!
//! Diagnostics go through the `piccolo-obs` stderr sink; `--log-level quiet` (or
//! `error`/`warn`/`info`/`debug`) controls them (`docs/observability.md`). Tables and
//! check verdicts stay on stdout. `--events PATH` (optionally capped with
//! `--events-max-bytes N`) streams the harness's span tree — a `bench` root,
//! one `bench_figure` span per timing loop, plus the campaign/unit spans inside
//! each sample — as the same checksummed `piccolo-events/v1` log `repro` writes;
//! `graphtool events-check` validates it. Common flags are the shared driver surface
//! ([`piccolo_bench::cli`]); only `--json`/`--check`/`--allow-regression`/
//! `--update-ratchet` are the harness's own.

#![forbid(unsafe_code)]

use piccolo::campaign::{PlannedCampaign, Shard};
use piccolo::experiments::{self, Scale};
use piccolo::sweep::{ExperimentSpec, SweepRunner};
use piccolo_algo::Algorithm;
use piccolo_bench::cli::{CliParser, CommonOpts, FlagSet};
use piccolo_bench::{
    bench_json, check_floors, check_trajectory, speedup_metrics, updated_trajectory, FigureBench,
};
use piccolo_graph::Dataset;
use piccolo_obs as obs;
use std::path::Path;
use std::time::{Duration, Instant};

fn tiny() -> Scale {
    Scale {
        scale_shift: 13,
        seed: 7,
        max_iterations: 2,
    }
}

/// The benched figure set: every spec at a tiny scale with one dataset/algorithm.
fn bench_specs() -> Vec<ExperimentSpec> {
    let ds = [Dataset::Sinaweibo];
    let algs = [Algorithm::Bfs];
    vec![
        experiments::fig03_spec(tiny(), &ds),
        experiments::fig09_spec(),
        experiments::fig10_spec(tiny(), &ds, &algs),
        experiments::fig11_spec(tiny(), &ds, &algs),
        experiments::fig12_spec(tiny(), &ds, &algs),
        experiments::fig13_spec(tiny(), &ds, &algs),
        experiments::fig14_spec(tiny(), &ds, &algs),
        experiments::fig15_spec(tiny(), Dataset::Sinaweibo, &algs),
        experiments::fig16_spec(tiny(), Dataset::Sinaweibo, &algs),
        experiments::fig17_spec(tiny(), Dataset::Sinaweibo, &algs),
        experiments::fig18_spec(tiny()),
        experiments::fig19a_spec(tiny(), &ds),
        experiments::fig19b_spec(5_000),
        experiments::fig20a_spec(tiny(), Dataset::Sinaweibo, &algs),
        experiments::fig20b_spec(tiny(), &ds),
        experiments::table2_spec(tiny()),
        experiments::area_spec(),
    ]
}

/// Times `f` for `samples` measured runs; returns (min, mean).
fn time_runs(samples: u32, mut f: impl FnMut()) -> (Duration, Duration) {
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed();
        min = min.min(dt);
        total += dt;
    }
    (min, total / samples.max(1))
}

/// The common flags the harness accepts — the shared driver surface minus the
/// output/progress knobs it replaces with `--json`.
fn flags() -> FlagSet {
    FlagSet {
        scale: true,
        jobs: true,
        external: true,
        snapshot_dir: true,
        events: true,
        log_level: true,
        ..FlagSet::default()
    }
}

fn parser() -> CliParser {
    CliParser::new(
        "bench",
        format!(
            "cargo bench -- [filter ...] {} [--json PATH] [--check PATH] \
             [--allow-regression] [--update-ratchet]",
            flags().usage_fragment()
        ),
    )
}

/// Resolves an input path against the cwd, the bench crate and the workspace root, in
/// that order — `cargo bench` runs this binary with cwd = `crates/bench`, but CI and
/// humans pass workspace-root-relative paths like `crates/bench/baselines.json`.
fn resolve_input(path: &str) -> std::path::PathBuf {
    let direct = std::path::PathBuf::from(path);
    if direct.exists() || direct.is_absolute() {
        return direct;
    }
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for base in [manifest.to_path_buf(), manifest.join("../..")] {
        let candidate = base.join(path);
        if candidate.exists() {
            return candidate;
        }
    }
    direct
}

fn main() {
    obs::init_stderr(obs::LevelFilter::Info);
    let cli = parser();
    let fail = |msg: &str| -> ! { cli.fail(msg) };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = CommonOpts::new(flags());
    opts.jobs = 1; // timing defaults to the sequential reference path
    let mut filter: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut allow_regression = false;
    let mut update_ratchet = false;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if opts.accept(arg, &mut it, &cli) {
            continue;
        }
        match arg.as_str() {
            "--allow-regression" => allow_regression = true,
            "--update-ratchet" => update_ratchet = true,
            "--json" => json_path = Some(cli.value("--json", &mut it).to_string()),
            "--check" => check_path = Some(cli.value("--check", &mut it).to_string()),
            // `cargo bench` passes --bench through to harness = false benches.
            "--bench" => {}
            other if other.starts_with("--") => cli.unknown_flag(other),
            other => filter.push(other.to_string()),
        }
    }

    // The events stream (`--events`, optionally rotation-capped): the same
    // checksummed `piccolo-events/v1` log as `repro`, so a coordinator-driven
    // bench run streams live per-worker spans. Attached before the warmup
    // campaign so the log covers every timing loop.
    opts.attach_sinks(&cli);
    let (quick, externals, snapshot_dir) = (
        opts.quick,
        opts.externals.clone(),
        opts.snapshot_dir.clone(),
    );

    let samples = if quick { 2 } else { 5 };
    let runner = SweepRunner::new(opts.jobs);
    let mut benched: Vec<FigureBench> = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    // External graphs join the bench set as the `external` figure (PR+BFS, both
    // engines, via `experiments::external_spec`), subject to the same name filter —
    // `cargo bench -- --external web=web.tsv external` benches only the real graph.
    // Anchor a relative --snapshot-dir at the workspace root (not the cwd cargo bench
    // sets, crates/bench), so `repro --snapshot-dir snaps` and the bench share a cache.
    let snapshot_dir = match snapshot_dir {
        Some(dir) if dir.is_relative() => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(dir),
        Some(dir) => dir,
        None => piccolo_io::default_snapshot_dir(),
    };
    // Skip the (potentially huge) load entirely when the name filter would drop the
    // external figure anyway — no point parsing gigabytes to discard the spec.
    let wants_external =
        filter.is_empty() || filter.iter().any(|p| "external".contains(p.as_str()));
    let external_datasets = if wants_external {
        // `cargo bench` runs with cwd = crates/bench; resolve graph paths like
        // `--check` does (cwd, then the bench crate, then the workspace root).
        let resolved: Vec<(String, std::path::PathBuf)> = externals
            .iter()
            .map(|(name, path)| (name.clone(), resolve_input(path)))
            .collect();
        piccolo_bench::load_externals(&resolved, &snapshot_dir).unwrap_or_else(|e| fail(&e))
    } else {
        Vec::new()
    };
    let mut all_specs = bench_specs();
    if !external_datasets.is_empty() {
        all_specs.push(experiments::external_spec(tiny(), &external_datasets));
    }
    let specs: Vec<ExperimentSpec> = all_specs
        .into_iter()
        .filter(|spec| filter.is_empty() || filter.iter().any(|p| spec.name().contains(p.as_str())))
        .collect();

    // The harness's own span tree (visible with --events): one `bench` root over
    // the whole run, one `bench_figure` span per figure's timing loop. The campaign
    // and unit spans inside stay balanced per sample, so `graphtool events-check`
    // passes on a bench-produced log exactly as on a repro-produced one.
    let bench_span = obs::span(
        "bench",
        vec![
            ("samples", (samples as u64).into()),
            ("jobs", (runner.jobs() as u64).into()),
        ],
    );

    // One campaign over every selected figure doubles as warmup and row capture for the
    // speedup metrics: each distinct graph is built exactly once across all figures.
    let campaign = PlannedCampaign::new(tiny(), specs);
    let capture = campaign
        .run(runner.jobs(), Shard::WHOLE, None)
        .expect("a run without a journal cannot fail");

    println!("{:<28} {:>12} {:>12}", "benchmark", "min", "mean");
    for (spec, figure) in campaign.specs().iter().zip(&capture.figures) {
        // Timed samples still run each figure standalone (a campaign of one), so
        // per-figure wall-clock stays comparable across history.
        let figure_span = obs::span_with_parent(
            "bench_figure",
            bench_span.id(),
            vec![("figure", spec.name().into())],
        );
        let (min, mean) = time_runs(samples, || {
            runner.run(spec);
        });
        figure_span.close(vec![
            ("min_ns", (min.as_nanos() as u64).into()),
            ("mean_ns", (mean.as_nanos() as u64).into()),
        ]);
        println!(
            "{:<28} {:>10.3}ms {:>10.3}ms",
            spec.name(),
            min.as_secs_f64() * 1e3,
            mean.as_secs_f64() * 1e3
        );
        metrics.extend(speedup_metrics(spec.name(), &figure.points));
        benched.push(FigureBench {
            name: spec.name().to_string(),
            title: spec.title().to_string(),
            rows: figure.points.len(),
            min_ms: min.as_secs_f64() * 1e3,
            mean_ms: mean.as_secs_f64() * 1e3,
        });
    }
    let stats = capture.stats;
    println!(
        "campaign capture: {} distinct graph(s) built once, {} build(s) saved vs per-figure scheduling; \
         phases: {} scatter / {} apply DRAM clock(s)",
        stats.graphs_built, stats.builds_saved, stats.scatter_mem_clocks, stats.apply_mem_clocks
    );

    bench_span.close(vec![("figures", (benched.len() as u64).into())]);

    if !metrics.is_empty() {
        println!();
        println!("{:<28} {:>12}", "metric", "value");
        for (name, value) in &metrics {
            println!("{name:<28} {value:>12.4}");
        }
    }

    if let Some(path) = &json_path {
        let doc = bench_json(samples, runner.jobs(), &benched, &metrics, &stats);
        if let Err(e) = std::fs::write(path, doc) {
            fail(&format!("cannot write {path}: {e}"));
        }
        obs::info(format!("wrote {path}"));
    }

    if let Some(path) = &check_path {
        let resolved = resolve_input(path);
        let text = std::fs::read_to_string(&resolved)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", resolved.display())));
        let mut baselines = piccolo::json::parse(&text)
            .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
        // A name filter skips figures entirely; their floors must not fail as "not
        // measured". Scope the check to the figures that actually ran (metric keys are
        // "<figure>/<metric>"). The unfiltered CI run still checks every floor.
        if !filter.is_empty() {
            if let piccolo::json::Json::Obj(pairs) = &mut baselines {
                pairs.retain(|(key, _)| {
                    benched
                        .iter()
                        .any(|f| key.starts_with(&format!("{}/", f.name)))
                });
            }
        }
        let failures = check_floors(&metrics, &baselines)
            .unwrap_or_else(|e| fail(&format!("bad baselines file {path}: {e}")));
        if failures.is_empty() {
            println!(
                "\nall {} regression floors hold",
                baselines.as_object().map(<[_]>::len).unwrap_or(0)
            );
        } else {
            obs::error(format!("speedup regression(s) against {path}:"));
            for f in &failures {
                obs::error(format!("  {f}"));
            }
            obs::flush_sinks();
            std::process::exit(1);
        }

        // Trajectory ratchet: the sibling trajectory.json carries the best committed
        // value of every tracked metric. Static floors above are the hard safety
        // net; the ratchet additionally refuses silent give-back of achieved model
        // quality (--allow-regression downgrades it to a warning, --update-ratchet
        // commits improvements).
        let trajectory_path = resolved.with_file_name("trajectory.json");
        if trajectory_path.exists() {
            let text = std::fs::read_to_string(&trajectory_path).unwrap_or_else(|e| {
                fail(&format!("cannot read {}: {e}", trajectory_path.display()))
            });
            let full = piccolo::json::parse(&text).unwrap_or_else(|e| {
                fail(&format!("cannot parse {}: {e}", trajectory_path.display()))
            });
            // Scope to the figures that ran, like the floors above.
            let mut trajectory = full.clone();
            if !filter.is_empty() {
                if let piccolo::json::Json::Obj(pairs) = &mut trajectory {
                    pairs.retain(|(key, _)| {
                        benched
                            .iter()
                            .any(|f| key.starts_with(&format!("{}/", f.name)))
                    });
                }
            }
            let (failures, improved) =
                check_trajectory(&metrics, &trajectory).unwrap_or_else(|e| {
                    fail(&format!(
                        "bad trajectory file {}: {e}",
                        trajectory_path.display()
                    ))
                });
            if failures.is_empty() {
                println!(
                    "trajectory ratchet holds ({} best value(s))",
                    trajectory.as_object().map(<[_]>::len).unwrap_or(0)
                );
            } else {
                let head = format!(
                    "trajectory regression(s) against {}:",
                    trajectory_path.display()
                );
                if allow_regression {
                    obs::warn(head);
                    for f in &failures {
                        obs::warn(format!("  {f}"));
                    }
                    obs::warn("continuing despite trajectory regressions (--allow-regression)");
                } else {
                    obs::error(head);
                    for f in &failures {
                        obs::error(format!("  {f}"));
                    }
                    obs::error("re-run with --allow-regression to downgrade these to warnings");
                    obs::flush_sinks();
                    std::process::exit(1);
                }
            }
            if update_ratchet && !improved.is_empty() {
                // Update against the unfiltered file so a name filter can never drop
                // other figures' committed bests.
                let mut doc = updated_trajectory(&metrics, &full).to_string();
                doc.push('\n');
                if let Err(e) = std::fs::write(&trajectory_path, doc) {
                    fail(&format!("cannot write {}: {e}", trajectory_path.display()));
                }
                println!(
                    "ratcheted {} metric(s) in {}",
                    improved.len(),
                    trajectory_path.display()
                );
            }
        }
    }
    obs::flush_sinks();
}
