//! The `campaign` workload: a quick-scale multi-figure campaign run the way
//! `piccolo-serve` runs one, through `PlannedCampaign`.
//!
//! One pass executes every unit on the worker pool, validates each result and journals
//! it, evaluates the figures into `results.json`, then replays the journal and
//! evaluates again. The execute path and the journal-replay path must produce the same
//! bytes, and so must every repetition.
//!
//! The campaign is the quick one users run, at `Scale::quick()` and its own graph seed.
//! The workload seed sets the order in which results arrive for validation and
//! journaling, as a coordinator receives them from its workers: varying the graph seed
//! instead changes the simulated work by up to 40 % between seeds, which would swamp
//! any host-time change the benchmark is meant to show.

use crate::clock::{now, percentile};
use crate::{Checks, Layers, Pass};
use piccolo::campaign::PlannedCampaign;
use piccolo::experiments::{default_spec, Scale};
use piccolo::json::parse;
use piccolo::report::results_json;
use piccolo_graph::rng::Rng64;
use piccolo_io::hash::fnv64;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// The figures of the campaign: many short units over one shared graph per figure.
const FIGURES: [&str; 6] = ["fig13", "fig15", "fig16", "fig17", "fig20a", "table2"];

/// Worker threads executing units.
const JOBS: usize = 2;

/// The planned campaign, its journal path and the first pass's `results.json` bytes.
pub struct CampaignWorkload {
    plan: PlannedCampaign,
    journal: PathBuf,
    /// Seeds the arrival order of results.
    seed: u64,
    first_doc: Option<Result<String, String>>,
}

/// Plans the campaign at `Scale::quick()`.
pub fn plan() -> PlannedCampaign {
    let scale = Scale::quick();
    let specs = FIGURES
        .iter()
        .map(|name| default_spec(name, scale).expect("every listed figure has a default spec"))
        .collect();
    PlannedCampaign::new(scale, specs)
}

impl CampaignWorkload {
    /// Wraps a planned campaign whose journal lives at `journal`; `seed` sets the order
    /// in which results arrive.
    pub fn new(plan: PlannedCampaign, journal: PathBuf, seed: u64) -> Self {
        Self {
            plan,
            journal,
            seed,
            first_doc: None,
        }
    }

    /// One pass. Every step is timed; a traced pass reports the step times as layers.
    pub fn pass(&mut self, traced: bool, checks: &mut Checks) -> std::io::Result<Pass> {
        let plan = &self.plan;
        let n = plan.num_units();
        // A stale journal from an interrupted run would pre-fill the replay.
        match std::fs::remove_file(&self.journal) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }

        let results = Mutex::new(Vec::with_capacity(n));
        let last_done: Mutex<Vec<(ThreadId, Instant)>> = Mutex::new(Vec::new());
        let start = now();
        let units: Vec<usize> = (0..n).collect();
        // A unit's host time is the gap since the previous unit finished on the same
        // worker thread (or since the pass started, for a thread's first unit).
        let on_unit = |gid: usize, json: &str| {
            let t = now();
            let id = std::thread::current().id();
            let gap = {
                let mut last = last_done
                    .lock()
                    .expect("no callback panics holding the lock");
                match last.iter_mut().find(|(tid, _)| *tid == id) {
                    Some((_, prev)) => (t - std::mem::replace(prev, t)).as_secs_f64(),
                    None => {
                        last.push((id, t));
                        (t - start).as_secs_f64()
                    }
                }
            };
            results
                .lock()
                .expect("no callback panics holding the lock")
                .push((gid, json.to_string(), gap));
        };
        let stats = plan
            .execute_units(JOBS, &units, &on_unit)
            .expect("the unit list is the plan's full grid");
        let execute_s = start.elapsed().as_secs_f64();
        let mut results = results.into_inner().expect("workers have finished");
        results.sort_by_key(|(gid, _, _)| *gid);
        Rng64::seed_from_u64(self.seed).shuffle(&mut results);

        let t_validate = now();
        let validated: Vec<(usize, Result<String, String>)> = results
            .iter()
            .map(|(gid, json, _)| (*gid, plan.validate_result(*gid, json)))
            .collect();
        let validate_s = t_validate.elapsed().as_secs_f64();
        let mut canonical = Vec::with_capacity(n);
        for (gid, result) in validated {
            checks.expect(result.is_ok(), || format!("unit {gid}: {result:?}"));
            if let Ok(c) = result {
                canonical.push((gid, c));
            }
        }

        let t_journal = now();
        {
            let journal = plan.open_journal(&self.journal)?;
            for (gid, c) in &canonical {
                journal.record_result(*gid, c);
            }
        }
        let journal_write_s = t_journal.elapsed().as_secs_f64();

        let t_evaluate = now();
        let doc = evaluate(plan, &canonical);
        checks.expect(doc.is_ok(), || format!("evaluate: {doc:?}"));
        let mut evaluate_s = t_evaluate.elapsed().as_secs_f64();

        let t_replay = now();
        let replay = plan.replay_journal(&self.journal)?;
        let replay_s = t_replay.elapsed().as_secs_f64();
        let t_evaluate = now();
        let replayed: Vec<(usize, String)> = replay.entries.into_iter().collect();
        let replay_doc = evaluate(plan, &replayed);
        evaluate_s += t_evaluate.elapsed().as_secs_f64();
        let wall_s = start.elapsed().as_secs_f64();

        checks.expect(
            replay.corrupt == 0 && replay.mismatched == 0 && replayed.len() == n,
            || {
                format!(
                    "journal replay recovered {} of {n} units ({} corrupt, {} mismatched)",
                    replayed.len(),
                    replay.corrupt,
                    replay.mismatched
                )
            },
        );
        checks.expect(replay_doc == doc, || {
            "journal-replay results.json differs from the execute path".into()
        });
        let first = self.first_doc.get_or_insert_with(|| {
            if let Ok(d) = &doc {
                println!("digest results.json {:016x}", fnv64(d.as_bytes()));
            }
            doc.clone()
        });
        checks.expect(*first == doc, || {
            "results.json differs from the first repetition".into()
        });

        let unit_s: Vec<f64> = results.iter().map(|(_, _, gap)| *gap).collect();
        let mut layers = Layers::default();
        if traced {
            layers.set("campaign.execute_s", execute_s);
            layers.set(
                "campaign.idle_s",
                JOBS as f64 * execute_s - unit_s.iter().sum::<f64>(),
            );
            layers.set("campaign.unit_p50_ms", percentile(&unit_s, 0.5) * 1e3);
            layers.set("campaign.unit_p90_ms", percentile(&unit_s, 0.9) * 1e3);
            layers.set("campaign.graph_builds", stats.graphs_built as f64);
            layers.set("codec.validate_s", validate_s);
            layers.set("journal.write_s", journal_write_s);
            layers.set(
                "journal.bytes",
                std::fs::metadata(&self.journal)?.len() as f64,
            );
            layers.set("journal.replay_s", replay_s);
            layers.set("report.evaluate_s", evaluate_s);
        }
        std::fs::remove_file(&self.journal)?;
        Ok(Pass {
            wall_s,
            sim_edges: canonical.iter().map(|(_, c)| edges_processed(c)).sum(),
            layers,
        })
    }
}

/// `results.json` of a full grid of canonical results.
fn evaluate(plan: &PlannedCampaign, results: &[(usize, String)]) -> Result<String, String> {
    plan.evaluate(results)
        .map(|figures| results_json(plan.scale(), &figures))
}

/// `edges_processed` of a simulation unit's codec JSON; 0 for a measure unit.
fn edges_processed(canonical: &str) -> u64 {
    parse(canonical)
        .ok()
        .and_then(|v| v.get("edges_processed")?.as_str()?.parse().ok())
        .unwrap_or(0)
}
