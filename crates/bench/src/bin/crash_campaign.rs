//! Crash-recovery campaign for the secure-memory service.
//!
//! ```text
//! crash_campaign [--cases N] [--seed S] [--smoke] [--out FILE]
//!                [--repro-dir DIR] [--replay FILE]
//! ```
//!
//! Case `i` runs a seeded `CrashCase` over *both* backends (volatile and
//! file-backed) under the same crash schedule, then recovers and asserts
//! the crash-consistency invariant: every acknowledged write reads back
//! exactly, or the loss is detected — never silent. The shared campaign
//! driver (`emcc_bench::campaign`) writes one verdict line per case in
//! index order (byte-identical for any `EMCC_JOBS`), shrinks the first
//! failing case to a reproducer under the repro directory and exits 1;
//! `--replay` re-runs such a file. Exit 2 is reserved for usage and I/O
//! errors.
//!
//! The default 1000 cases give ≥1000 distinct crash schedules per
//! backend; `--smoke` runs the 64-case CI subset.

use emcc_bench::campaign;
use emcc_bench::crash_campaign::CrashCampaign;

fn main() -> std::process::ExitCode {
    campaign::main::<CrashCampaign>(&[], |_| Ok(None))
}
