//! Smoke tests for the experiment-reproduction harness: every experiment
//! must run to completion in quick mode without touching the filesystem.

use std::sync::{PoisonError, RwLock};

use aging_bench::experiments::{run_experiment, ALL_EXPERIMENTS};
use aging_bench::scenarios;

/// Experiments whose hard gates compare timings: E11's streaming speedup
/// over re-running the batch detector, E12's 4-thread speedups, E15's
/// journal overhead between two loopback runs and E16's 4-shard
/// scale-out. A neighbouring test's load can tip any of them, so they
/// hold [`RUN_ALONE`] exclusively while every other test shares it.
const EXCLUSIVE: &[&str] = &["e11", "e12", "e15", "e16"];

static RUN_ALONE: RwLock<()> = RwLock::new(());

/// Runs `f` holding [`RUN_ALONE`]: exclusively when `alone`, else shared.
fn locked<T>(alone: bool, f: impl FnOnce() -> T) -> T {
    if alone {
        let _guard = RUN_ALONE.write().unwrap_or_else(PoisonError::into_inner);
        f()
    } else {
        let _guard = RUN_ALONE.read().unwrap_or_else(PoisonError::into_inner);
        f()
    }
}

/// One `#[test]` per experiment, so the harness runs them side by side,
/// and the list of ids they cover.
macro_rules! quick_mode_tests {
    ($($id:ident),*) => {
        mod every_experiment_runs_in_quick_mode {
            use super::*;

            $(
                #[test]
                fn $id() {
                    let id = stringify!($id);
                    locked(EXCLUSIVE.contains(&id), || run_experiment(id, true, None))
                        .unwrap_or_else(|e| panic!("{id} failed: {e}"));
                }
            )*
        }

        const QUICK_MODE_TESTS: &[&str] = &[$(stringify!($id)),*];
    };
}

quick_mode_tests!(e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15, e16, e17, e18);

#[test]
fn every_experiment_has_a_quick_mode_test() {
    assert_eq!(QUICK_MODE_TESTS, ALL_EXPERIMENTS);
}

#[test]
fn unknown_experiment_rejected() {
    assert!(run_experiment("e0", true, None).is_err());
    assert!(run_experiment("everything", true, None).is_err());
}

#[test]
fn csv_outputs_land_in_requested_directory() {
    let dir = std::env::temp_dir().join("holder-aging-harness-test");
    let _ = std::fs::remove_dir_all(&dir);
    locked(false, || run_experiment("e5", true, Some(dir.as_path()))).unwrap();
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("output dir created")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().to_string())
        .collect();
    assert!(
        entries.iter().any(|n| n.starts_with("e5_")),
        "no e5 CSVs in {entries:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleets_are_reproducible() {
    // The scenario builders must be deterministic: same call, same fleet.
    let a = scenarios::aging_fleet(6);
    let b = scenarios::aging_fleet(6);
    assert_eq!(a, b);
    assert_eq!(scenarios::machine_a(3), scenarios::machine_a(3));
}
