//! Parallel fuzz campaigns over the oracle battery.
//!
//! ```text
//! fuzz_sim [--cases N] [--seed S] [--smoke] [--out FILE]
//!          [--repro-dir DIR] [--replay FILE]
//!          [--emit FILE --case-seed S]
//!          [--trace FILE [--case-seed S]]
//! ```
//!
//! Case `i` of a campaign fuzzes `FuzzCase::generate` of its case seed
//! through [`check_case`]. The shared campaign driver
//! (`emcc_bench::campaign`) writes one verdict line per case in index
//! order, so the file is byte-identical for any `EMCC_JOBS` (workers only
//! affect scheduling, never content — the same guarantee `run_all`
//! makes). On the first oracle failure it shrinks the case to a minimal
//! reproducer, persists it under the repro directory (default
//! `fuzz/corpus/`) and exits 1; `cargo test -p emcc-fuzz` then replays
//! the corpus red until the bug is fixed. Exit 2 is reserved for usage
//! and I/O errors.
//!
//! `--emit` materializes the case for one *case seed* (the `seed` column
//! of a verdict line) as a corpus file, so any campaign case can be
//! turned into a replayable regression file after the fact.
//!
//! `--trace` runs one case (case 0 of the campaign, or `--case-seed S`)
//! under EMCC/Morphable with the critical-path recorder on and writes
//! the per-access spans as Chrome-trace JSON (`chrome://tracing` /
//! Perfetto). The traced run is inline, so the file is byte-identical
//! for any `EMCC_JOBS`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use emcc::sim::rng::{mix64, GOLDEN_GAMMA};
use emcc_bench::campaign::{self, parse_seed, Args, Campaign};
use emcc_fuzz::oracle::check_case;
use emcc_fuzz::{corpus, FuzzCase};

/// The fuzzer as the campaign driver runs it.
struct FuzzCampaign;

impl Campaign for FuzzCampaign {
    type Case = FuzzCase;
    /// The battery's determinism digest.
    type Outcome = u64;

    const NAME: &'static str = "fuzz_sim";
    const CASES: usize = 100;
    const SMOKE_CASES: usize = 200;
    const SEED: u64 = 7;
    const SHRINK_BUDGET: usize = 3_000;
    const OUT: &'static str = "target/fuzz_verdicts.txt";
    const EXTRA_USAGE: &'static str = " [--emit FILE --case-seed S] [--trace FILE [--case-seed S]]";

    /// The corpus at the repo root, two levels above this crate.
    fn default_repro_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
    }

    /// The golden gamma is pre-added and the index scaled by the first
    /// finalizer multiplier — a different derivation from the crash
    /// campaign's, pinned by the verdict files.
    fn case_seed(seed: u64, index: u64) -> u64 {
        mix64(
            seed.wrapping_add(GOLDEN_GAMMA)
                .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
        )
    }

    fn generate(case_seed: u64) -> FuzzCase {
        FuzzCase::generate(case_seed)
    }

    fn seed_of(case: &FuzzCase) -> u64 {
        case.seed
    }

    fn judge(case: &FuzzCase, _scratch: &Path) -> (u64, Vec<String>) {
        let report = check_case(case);
        (report.digest, report.failures)
    }

    fn verdict_line(index: usize, case: &FuzzCase, digest: &u64, failures: &[String]) -> String {
        let verdict = if failures.is_empty() { "ok" } else { "FAIL" };
        format!(
            "case {index} seed {:#018x} digest {digest:016x} {verdict}",
            case.seed
        )
    }

    fn panic_line(index: usize, msg: &str) -> String {
        format!("case {index} PANIC {msg}")
    }

    fn encode(case: &FuzzCase) -> String {
        corpus::to_ron(case)
    }

    fn decode(text: &str) -> Result<FuzzCase, String> {
        corpus::from_ron(text)
    }

    fn repro_name(case: &FuzzCase) -> String {
        format!("shrunk-{:016x}.ron", case.seed)
    }
}

fn main() -> ExitCode {
    campaign::main::<FuzzCampaign>(&["--emit", "--trace", "--case-seed"], |args| {
        let case_seed = match args.extra("--case-seed") {
            Some(s) => Some(parse_seed(s).ok_or_else(|| format!("bad --case-seed value `{s}`"))?),
            None => None,
        };
        if let Some(path) = args.extra("--emit") {
            let case_seed =
                case_seed.ok_or("--emit needs --case-seed (the seed column of a verdict line)")?;
            let case = FuzzCase::generate(case_seed);
            std::fs::write(path, corpus::to_ron(&case))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("emitted case {case_seed:#x} to {path}");
            return Ok(Some(ExitCode::SUCCESS));
        }
        if let Some(path) = args.extra("--trace") {
            export_trace(Path::new(path), args, case_seed)?;
            return Ok(Some(ExitCode::SUCCESS));
        }
        Ok(None)
    })
}

/// Runs one case with the critical-path recorder enabled and writes its
/// Chrome-trace JSON. The run is inline (single-threaded), so the output
/// is byte-identical regardless of `EMCC_JOBS`.
fn export_trace(path: &Path, args: &Args, case_seed: Option<u64>) -> Result<(), String> {
    use emcc::counters::CounterDesign;
    use emcc::secmem::SecurityScheme;
    use emcc::system::SecureSystem;

    let case_seed = case_seed.unwrap_or_else(|| FuzzCampaign::case_seed(args.seed, 0));
    let case = FuzzCase::generate(case_seed);
    let cfg = case.system_config(SecurityScheme::Emcc, CounterDesign::Morphable);
    let (report, rec) =
        SecureSystem::new(cfg).run_traced(case.sources(), 0, case.ops_per_core, 65_536);
    std::fs::write(path, rec.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "traced case {case_seed:#018x}: {} accesses recorded ({} dropped), \
         {} attribution violations, wrote {}",
        rec.len(),
        rec.dropped(),
        report.crit_violations,
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_pinned() {
        // Captured from the smoke verdict file at the default seed: the
        // derivation must never drift, or every recorded verdict and
        // corpus seed goes stale.
        let want = [
            0x63cb_e1e4_5932_0dd7,
            0x3800_4700_5c67_c096,
            0xb5a7_c6fb_dbc4_2070,
            0xbeeb_cdfd_ae18_dfaf,
            0xdfdf_8c8f_b171_928b,
            0x1475_a9b3_85a7_654a,
            0x04f3_857e_0079_751e,
            0x512c_6e98_40a7_58cf,
        ];
        for (i, want) in want.into_iter().enumerate() {
            assert_eq!(
                FuzzCampaign::case_seed(FuzzCampaign::SEED, i as u64),
                want,
                "case {i}"
            );
        }
    }
}
