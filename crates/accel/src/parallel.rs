//! The host-side phase profiler.
//!
//! A simulated run's interior is serial; the only parallelism is unit-level — the
//! sweep/campaign engine (`piccolo::sweep::run_indexed`) executes whole simulated runs
//! on `--jobs` worker threads. That is why the profiler keeps per-thread accumulators.
//!
//! The phase profiler attributes *host* wall-clock nanoseconds per pipeline phase
//! (scatter / apply / frontier rebuild). [`pipeline::run`](crate::pipeline::run)
//! measures each run locally and publishes one [`PhaseProfile`] via
//! [`record_run_profile`], which feeds **two** accumulators:
//!
//! * a process-wide one, read by [`phase_profile`] — the historical aggregate view
//!   the bench harness reports;
//! * a **thread-local** one, drained by [`take_thread_phase_profile`] — per-run
//!   attribution, so a campaign executing units on worker threads can charge
//!   wall-clock to the specific unit that spent it.
//!
//! The process-wide accumulator is cumulative across every run since the last
//! [`reset_phase_profile`]. That is deliberate for the bench harness (one run per
//! process step), but it means a caller timing *one* run among many must use the
//! thread-local seam — reading `phase_profile()` before and after a run observes
//! concurrent runs on other threads too. The observability layer does exactly that;
//! see `docs/observability.md`.
//!
//! These are measurements of the simulator on this machine, not of the simulated
//! accelerator, and they are deliberately kept out of
//! [`RunResult`](crate::RunResult) and every deterministic artifact.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static SCATTER_NS: AtomicU64 = AtomicU64::new(0);
static APPLY_NS: AtomicU64 = AtomicU64::new(0);
static FRONTIER_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_SCATTER_NS: Cell<u64> = const { Cell::new(0) };
    static THREAD_APPLY_NS: Cell<u64> = const { Cell::new(0) };
    static THREAD_FRONTIER_NS: Cell<u64> = const { Cell::new(0) };
}

/// Host wall-clock nanoseconds spent per pipeline phase.
///
/// These are measurements of the *simulator* on this machine, not of the simulated
/// accelerator; the simulated per-phase cycle breakdown lives in
/// [`PhaseBreakdown`](crate::pipeline::PhaseBreakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseProfile {
    /// Nanoseconds spent in the scatter phase (edge traversal + request generation).
    pub scatter_ns: u64,
    /// Nanoseconds spent in the apply phase (functional apply + apply traffic).
    pub apply_ns: u64,
    /// Nanoseconds spent rebuilding the frontier and per-iteration scratch.
    pub frontier_ns: u64,
}

impl PhaseProfile {
    /// Total profiled nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.scatter_ns + self.apply_ns + self.frontier_ns
    }
}

/// Publishes one completed run's phase timings: adds them to the process-wide
/// aggregate (read by [`phase_profile`]) and to the calling thread's local
/// accumulator (drained by [`take_thread_phase_profile`]).
///
/// Called once per run by [`pipeline::run`](crate::pipeline::run), on whichever
/// thread executed the run.
pub fn record_run_profile(profile: PhaseProfile) {
    SCATTER_NS.fetch_add(profile.scatter_ns, Ordering::Relaxed);
    APPLY_NS.fetch_add(profile.apply_ns, Ordering::Relaxed);
    FRONTIER_NS.fetch_add(profile.frontier_ns, Ordering::Relaxed);
    THREAD_SCATTER_NS.with(|c| c.set(c.get() + profile.scatter_ns));
    THREAD_APPLY_NS.with(|c| c.set(c.get() + profile.apply_ns));
    THREAD_FRONTIER_NS.with(|c| c.set(c.get() + profile.frontier_ns));
}

/// Snapshot of the accumulated host-side phase timings (process-wide, cumulative
/// across runs on every thread since the last [`reset_phase_profile`]).
///
/// For per-run attribution, use [`take_thread_phase_profile`] on the thread that
/// executes the run — this aggregate view cannot separate concurrent runs.
pub fn phase_profile() -> PhaseProfile {
    PhaseProfile {
        scatter_ns: SCATTER_NS.load(Ordering::Relaxed),
        apply_ns: APPLY_NS.load(Ordering::Relaxed),
        frontier_ns: FRONTIER_NS.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide phase profiler to zero (thread-local accumulators are
/// untouched — drain those with [`take_thread_phase_profile`]).
pub fn reset_phase_profile() {
    SCATTER_NS.store(0, Ordering::Relaxed);
    APPLY_NS.store(0, Ordering::Relaxed);
    FRONTIER_NS.store(0, Ordering::Relaxed);
}

/// Takes (returns and zeroes) the calling thread's phase-timing accumulator.
///
/// The per-run attribution seam: a scheduler that executes a unit on this thread
/// calls this immediately before the unit (discarding leftovers from earlier
/// work) and immediately after (capturing exactly that unit's phase timings),
/// immune to concurrent runs on other threads.
pub fn take_thread_phase_profile() -> PhaseProfile {
    PhaseProfile {
        scatter_ns: THREAD_SCATTER_NS.with(|c| c.replace(0)),
        apply_ns: THREAD_APPLY_NS.with(|c| c.replace(0)),
        frontier_ns: THREAD_FRONTIER_NS.with(|c| c.replace(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_feeds_both_the_global_and_the_thread_accumulator() {
        let before = phase_profile();
        let _ = take_thread_phase_profile();
        record_run_profile(PhaseProfile {
            scatter_ns: 5,
            apply_ns: 7,
            frontier_ns: 9,
        });
        let after = phase_profile();
        // Globals race with other tests, so only assert our own contribution.
        assert!(after.scatter_ns >= before.scatter_ns + 5);
        assert!(after.apply_ns >= before.apply_ns + 7);
        assert!(after.frontier_ns >= before.frontier_ns + 9);
        let local = take_thread_phase_profile();
        assert_eq!(
            local,
            PhaseProfile {
                scatter_ns: 5,
                apply_ns: 7,
                frontier_ns: 9
            }
        );
        assert_eq!(local.total_ns(), 21);
    }

    #[test]
    fn thread_profiles_attribute_per_run_even_across_threads() {
        // The cross-run accumulation footgun the thread-local seam fixes: two
        // "runs" on different threads each see exactly their own timings.
        let t1 = std::thread::spawn(|| {
            let _ = take_thread_phase_profile();
            record_run_profile(PhaseProfile {
                scatter_ns: 100,
                ..PhaseProfile::default()
            });
            take_thread_phase_profile()
        });
        let t2 = std::thread::spawn(|| {
            let _ = take_thread_phase_profile();
            record_run_profile(PhaseProfile {
                apply_ns: 200,
                ..PhaseProfile::default()
            });
            take_thread_phase_profile()
        });
        let p1 = t1.join().unwrap();
        let p2 = t2.join().unwrap();
        assert_eq!(p1.scatter_ns, 100);
        assert_eq!(p1.apply_ns, 0);
        assert_eq!(p2.apply_ns, 200);
        assert_eq!(p2.scatter_ns, 0);
        // A second take on a fresh thread is empty: takes drain.
        let drained = std::thread::spawn(take_thread_phase_profile)
            .join()
            .unwrap();
        assert_eq!(drained, PhaseProfile::default());
    }
}
