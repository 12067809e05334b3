//! Experiment harness: regenerates every table and figure of the paper's
//! characterization (§III) and evaluation (§VI).
//!
//! Each `experiments::figNN` module runs the simulations behind one figure
//! and renders the same rows/series the paper reports.
//! [`experiments::FIGURES`] names every figure; `--bin run_all`
//! regenerates them all (the data behind EXPERIMENTS.md) and
//! `run_all --only fig16` prints one.
//!
//! The seeded campaigns (`fuzz_sim` in `emcc-fuzz`, `crash_campaign`
//! here) share one driver and reproducer codec, [`campaign`]; the bench
//! binaries share one JSON writer and reader, [`json`].
//!
//! # Scale
//!
//! Set `EMCC_SCALE=test|small|paper` (default `small`) to trade fidelity
//! for runtime. `paper` uses the largest synthetic footprints and op
//! counts and takes tens of minutes for the full suite.

pub mod campaign;
pub mod crash_campaign;
pub mod experiments;
pub mod fault_campaign;
pub mod json;
pub mod pool;
pub mod runner;

pub use pool::{jobs_from_env, run_indexed_catching, EnvError, RunCache, RunRequest};
pub use runner::{scale_from_env, ExhaustedRun, ExpParams, FailedRun, Harness};
