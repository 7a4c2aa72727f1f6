//! Host-time benchmark of the Piccolo simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload pr-dense --seed 1 --seconds 60 --trace 0
//! ```
//!
//! Sets the workload up several times (reporting the median), then repeats passes while
//! the next should end within `--seconds` (at least two untraced passes, so every output
//! is checked against a repetition). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced pass runs the untraced
//! pass first and reports the difference as `trace.overhead_s`. See `README.md` for
//! what each metric means and which workload it should move.

mod campaign;
mod clock;
mod pr_dense;
mod replay;

use clock::{median, now};
use piccolo::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Seed used when `--seed` is not given; the held-out seed is 7 (see `README.md`).
const DEFAULT_SEED: u64 = 1;
/// Set-up runs at least `SETUP_REPS` times and `SETUP_MIN_S` seconds before the first
/// pass, and for at least `SETUP_PASS_S` seconds before each later one; `setup_s` is
/// the median of all of them.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_PASS_S: f64 = 0.1;
/// Fewest untraced passes per run, so each output is compared with a repetition.
const MIN_PASSES: usize = 2;

/// Per-layer values of one pass, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds of the pass.
    wall_s: f64,
    /// Σ `edges_processed` of the pass's simulations.
    sim_edges: u64,
    /// Per-layer values (traced passes only).
    layers: Layers,
}

/// Output checks: how many ran, and a description of each that failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed.push(describe());
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PrDense,
    Campaign,
}

impl Workload {
    const ALL: [(&'static str, Workload); 2] = [
        ("pr-dense", Workload::PrDense),
        ("campaign", Workload::Campaign),
    ];
}

/// The workload's inputs, built by set-up.
enum Inputs {
    PrDense(pr_dense::PrDense),
    Campaign(campaign::CampaignWorkload),
}

impl Inputs {
    fn setup(workload: Workload, seed: u64, work_dir: &std::path::Path) -> Self {
        match workload {
            Workload::PrDense => Inputs::PrDense(pr_dense::inputs(seed)),
            Workload::Campaign => Inputs::Campaign(campaign::CampaignWorkload::new(
                campaign::plan(),
                work_dir.join(format!("journal-{}.jsonl", std::process::id())),
                seed,
            )),
        }
    }

    fn pass(&mut self, traced: bool, checks: &mut Checks) -> std::io::Result<Pass> {
        match self {
            Inputs::PrDense(w) => Ok(w.pass(traced, checks)),
            Inputs::Campaign(w) => w.pass(traced, checks),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(name, _)| *name == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The end-to-end metrics with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_edges_per_s", "1/s"),
];

/// Every per-layer metric with its unit. A traced run prints all of them; a layer its
/// workload does not exercise reads 0 (`README.md` lists which workload fills which).
fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("graph.build_s", "s"),
        ("pipeline.scatter_s", "s"),
        ("pipeline.apply_s", "s"),
        ("pipeline.frontier_s", "s"),
        ("pipeline.iterations", "count"),
        ("pipeline.edges", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    let per_system = [
        ("accel.run_s", "s"),
        ("replay.stream_s", "s"),
        ("replay.coverage", "ratio"),
        ("cache.self_s", "s"),
        ("cache.accesses", "count"),
        ("cache.hit_rate", "ratio"),
        ("mshr.self_s", "s"),
        ("mshr.ops", "count"),
        ("mshr.items_per_op", "items/op"),
        ("dram.self_s", "s"),
        ("dram.requests", "count"),
        ("dram.batches", "count"),
        ("dram.ns_per_request", "ns"),
        ("dram.row_hit_rate", "ratio"),
        ("dram.sim_clocks", "clocks"),
    ];
    for (name, unit) in per_system {
        for (_, slug) in pr_dense::SYSTEMS {
            out.push((format!("{name}.{slug}"), unit));
        }
    }
    for (name, unit) in [
        ("campaign.execute_s", "s"),
        ("campaign.idle_s", "s"),
        ("campaign.unit_p50_ms", "ms"),
        ("campaign.unit_p90_ms", "ms"),
        ("campaign.graph_builds", "count"),
        ("codec.validate_s", "s"),
        ("journal.write_s", "s"),
        ("journal.bytes", "bytes"),
        ("journal.replay_s", "s"),
        ("report.evaluate_s", "s"),
        ("trace.overhead_s", "s"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// Sets the workload up at least `reps` times and for at least `min_s` seconds,
/// appending each set-up's host time to `times`; returns the last inputs.
fn timed_setups(
    args: &Args,
    work_dir: &std::path::Path,
    reps: usize,
    min_s: f64,
    times: &mut Vec<f64>,
) -> Inputs {
    let (mut n, mut total) = (0, 0.0);
    loop {
        let t = now();
        let inputs = Inputs::setup(args.workload, args.seed, work_dir);
        let dt = t.elapsed().as_secs_f64();
        times.push(dt);
        n += 1;
        total += dt;
        if n >= reps && total >= min_s {
            return inputs;
        }
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn run(args: &Args) -> Result<Json, String> {
    let work_dir = PathBuf::from(".bench_build").join("hostbench-work");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;

    // Graph generation (simulate workloads) or spec planning (campaign), repeated
    // before each pass as well so that `setup_s` spans the run like `wall_s` does.
    let mut setup_s = Vec::new();
    let mut inputs = timed_setups(args, &work_dir, SETUP_REPS, SETUP_MIN_S, &mut setup_s);

    let mut checks = Checks::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut overhead_s = Vec::new();
    let start = now();
    let min_passes = if args.trace { 1 } else { MIN_PASSES };
    let io = |e: std::io::Error| format!("campaign journal: {e}");
    // Start another pass only if it should end within `--seconds`.
    let mut last_s = 0.0;
    let mut peak_rss_kb = None;
    while passes.len() < min_passes || start.elapsed().as_secs_f64() + last_s <= args.seconds {
        let t = now();
        if !passes.is_empty() {
            timed_setups(args, &work_dir, 1, SETUP_PASS_S, &mut setup_s);
        }
        if args.trace {
            let plain = inputs.pass(false, &mut checks).map_err(io)?;
            let traced = inputs.pass(true, &mut checks).map_err(io)?;
            overhead_s.push(traced.wall_s - plain.wall_s);
            passes.push(traced);
        } else {
            passes.push(inputs.pass(false, &mut checks).map_err(io)?);
        }
        last_s = t.elapsed().as_secs_f64();
        if passes.len() == MIN_PASSES {
            // Sampled after a fixed number of passes: the allocator's high-water mark
            // creeps up with every extra pass, and the pass count depends on speed.
            peak_rss_kb = piccolo_bench::memory_stats().map(|m| m.peak_rss_kb);
        }
    }
    // The work directory is shared by concurrent runs; only the last one removes it.
    let _ = std::fs::remove_dir(&work_dir);

    // The machine's speed shifts between regimes lasting tens of seconds, and a run's
    // median pass lands in whichever regime held most of it; the mean weighs every
    // regime by its share of the run, which measured steadier across runs.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_s = walls.iter().sum::<f64>() / walls.len() as f64;
    eprintln!(
        "hostbench: {} passes (wall_s {walls:?}), {} checks, {} failed",
        passes.len(),
        checks.attempted,
        checks.failed.len()
    );
    for failure in &checks.failed {
        eprintln!("hostbench: check failed: {failure}");
    }

    let metrics: Vec<(String, Json)> = if args.trace {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for pass in &passes {
            for (name, v) in &pass.layers.0 {
                values.entry(name.clone()).or_default().push(*v);
            }
        }
        if args.workload != Workload::Campaign {
            values.insert("graph.build_s".into(), setup_s.clone());
        }
        values.insert("trace.overhead_s".into(), overhead_s);
        let catalog = per_layer_catalog();
        if let Some(stray) = values
            .keys()
            .find(|k| !catalog.iter().any(|(n, _)| n == *k))
        {
            return Err(format!(
                "metric {stray} is missing from the per-layer catalog"
            ));
        }
        catalog
            .into_iter()
            .map(|(name, unit)| {
                let v = values.get(&name).map_or(0.0, |v| median(v));
                (name, metric(v, unit))
            })
            .collect()
    } else {
        let peak_rss_mb = peak_rss_kb.ok_or("peak RSS needs /proc/self/status")? as f64 / 1024.0;
        let values = [
            wall_s,
            median(&setup_s),
            peak_rss_mb,
            passes[0].sim_edges as f64 / wall_s,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), metric(v, unit)))
            .collect()
    };
    Ok(Json::obj([
        ("correct", Json::Bool(checks.failed.is_empty())),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed.len() as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload pr-dense|campaign --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => println!("{}", report.to_string()),
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piccolo::json::parse;

    /// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let owned = |(n, u): (&str, &str)| (n.to_string(), u.to_string());
        assert_eq!(listed(&doc, "end_to_end"), END_TO_END.map(owned).to_vec());
        let layers: Vec<_> = per_layer_catalog()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            workloads,
            Workload::ALL.map(|(n, _)| n.to_string()).to_vec()
        );
    }
}
