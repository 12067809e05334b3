//! Corpus files: replayable `.ron` serialization of [`FuzzCase`].
//!
//! The format is a stable, hand-editable RON subset — one `key: value`
//! per line, trace entries one per line — written and read by the record
//! codec every campaign reproducer shares
//! ([`emcc_bench::campaign::RecordWriter`] / [`read_record`]); this
//! module keeps only the field list. Parsing re-validates the case, so a
//! corrupted or hand-broken file fails with a message, never a simulator
//! panic.

use std::path::{Path, PathBuf};

use emcc_bench::campaign::{read_record, read_tagged, tuple, RecordWriter};

use crate::case::{FaultPlan, FuzzCase, FuzzOp};

/// A corpus file that failed to load: the path plus why.
///
/// Typed (rather than a bare string) so directory scans can *continue*
/// past a corrupted or truncated file, report every offender at once,
/// and still fail the replay suite — one bad file must never hide the
/// verdicts of the rest of the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusError {
    /// The offending file.
    pub path: PathBuf,
    /// Parse or I/O failure description (names the line for syntax
    /// errors).
    pub reason: String,
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.reason)
    }
}

impl std::error::Error for CorpusError {}

/// Loads every `*.ron` case under `dir` in sorted order, continuing past
/// files that fail to parse.
///
/// Returns the successfully loaded `(path, case)` pairs plus one
/// [`CorpusError`] per bad file. A missing or unreadable directory is a
/// single error entry for the directory itself.
pub fn load_dir(dir: &Path) -> (Vec<(PathBuf, FuzzCase)>, Vec<CorpusError>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) => {
            return (
                Vec::new(),
                vec![CorpusError {
                    path: dir.to_path_buf(),
                    reason: format!("corpus dir unreadable: {e}"),
                }],
            )
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ron"))
        .collect();
    paths.sort();
    let mut cases = Vec::new();
    let mut errors = Vec::new();
    for path in paths {
        match std::fs::read_to_string(&path) {
            Err(e) => errors.push(CorpusError {
                path,
                reason: e.to_string(),
            }),
            Ok(text) => match from_ron(&text) {
                Ok(case) => cases.push((path, case)),
                Err(reason) => errors.push(CorpusError { path, reason }),
            },
        }
    }
    (cases, errors)
}

/// Serializes a case to corpus text.
pub fn to_ron(case: &FuzzCase) -> String {
    let mut w = RecordWriter::new(
        "// emcc-fuzz corpus case — replays via `cargo test -p emcc-fuzz --test corpus_replay`\n\
         // or `fuzz_sim --replay <this file>`. See EXPERIMENTS.md (fuzzing section).\n",
        "FuzzCase",
    );
    w.field("seed", case.seed);
    w.field("cores", case.cores);
    w.field("ops_per_core", case.ops_per_core);
    w.field("data_lines", case.data_lines);
    w.field("l1_sets", case.l1_sets);
    w.field("l1_ways", case.l1_ways);
    w.field("l2_sets", case.l2_sets);
    w.field("l2_ways", case.l2_ways);
    w.field("llc_slices", case.llc_slices);
    w.field("llc_sets", case.llc_sets);
    w.field("llc_ways", case.llc_ways);
    w.field("mc_sets", case.mc_sets);
    w.field("mc_ways", case.mc_ways);
    w.field("channels", case.channels);
    w.field("xpt", case.xpt);
    w.field("inclusive", case.inclusive);
    w.field("prefetch", case.prefetch);
    w.field("aes_to_l2_pct", case.aes_to_l2_pct);
    w.field("budget_lines", case.budget_lines);
    w.field(
        "fault",
        match case.fault {
            FaultPlan::None => "None".to_string(),
            FaultPlan::Planted {
                line,
                class,
                on_read,
            } => tuple(
                "Planted",
                &[("line", &line), ("class", &class), ("on_read", &on_read)],
            ),
            FaultPlan::Uniform { class, rate_ppm } => {
                tuple("Uniform", &[("class", &class), ("rate_ppm", &rate_ppm)])
            }
        },
    );
    w.finish(
        "trace",
        case.trace.iter().map(|op| {
            tuple(
                "",
                &[
                    ("line", &op.line),
                    ("write", &op.write),
                    ("gap", &op.gap),
                    ("dep", &op.dep),
                ],
            )
        }),
    )
}

/// Parses corpus text back into a validated case.
///
/// # Errors
///
/// Returns a message naming the offending line for syntax errors and
/// duplicate keys, the key that is missing or has a bad value, or the
/// constraint a case fails in [`FuzzCase::validate`].
pub fn from_ron(text: &str) -> Result<FuzzCase, String> {
    let (f, trace) = read_record(text, "FuzzCase", "trace")?;
    let fault = match read_tagged(f.get("fault")?)? {
        ("None", _) => FaultPlan::None,
        ("Planted", a) => FaultPlan::Planted {
            line: a.parse("line")?,
            class: a.parse("class")?,
            on_read: a.parse("on_read")?,
        },
        ("Uniform", a) => FaultPlan::Uniform {
            class: a.parse("class")?,
            rate_ppm: a.parse("rate_ppm")?,
        },
        (tag, _) => return Err(format!("unknown fault plan `{tag}`")),
    };
    let trace = trace
        .iter()
        .map(|op| {
            Ok(FuzzOp {
                line: op.parse("line")?,
                write: op.parse("write")?,
                gap: op.parse("gap")?,
                dep: op.parse("dep")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let case = FuzzCase {
        seed: f.parse("seed")?,
        cores: f.parse("cores")?,
        ops_per_core: f.parse("ops_per_core")?,
        data_lines: f.parse("data_lines")?,
        l1_sets: f.parse("l1_sets")?,
        l1_ways: f.parse("l1_ways")?,
        l2_sets: f.parse("l2_sets")?,
        l2_ways: f.parse("l2_ways")?,
        llc_slices: f.parse("llc_slices")?,
        llc_sets: f.parse("llc_sets")?,
        llc_ways: f.parse("llc_ways")?,
        mc_sets: f.parse("mc_sets")?,
        mc_ways: f.parse("mc_ways")?,
        channels: f.parse("channels")?,
        xpt: f.parse("xpt")?,
        inclusive: f.parse("inclusive")?,
        prefetch: f.parse("prefetch")?,
        aes_to_l2_pct: f.parse("aes_to_l2_pct")?,
        budget_lines: f.parse("budget_lines")?,
        fault,
        trace,
    };
    case.validate()?;
    Ok(case)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_fault_plan() {
        for seed in [1u64, 2, 5, 8, 13, 21, 34, 55] {
            let case = FuzzCase::generate(seed);
            let text = to_ron(&case);
            let back = from_ron(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(case, back, "roundtrip drift for seed {seed}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let case = FuzzCase::generate(3);
        let text = format!("// header\n\n{}\n// trailer\n", to_ron(&case));
        assert_eq!(from_ron(&text).unwrap(), case);
    }

    #[test]
    fn missing_field_reported_by_name() {
        let case = FuzzCase::generate(3);
        let text = to_ron(&case)
            .replace("    cores: 1,\n", "")
            .replace("    cores: 2,\n", "");
        let err = from_ron(&text).unwrap_err();
        assert!(err.contains("cores"), "unhelpful error: {err}");
    }

    #[test]
    fn duplicate_field_rejected() {
        let case = FuzzCase::generate(3);
        let text = to_ron(&case).replace("    xpt:", "    channels: 1,\n    xpt:");
        let err = from_ron(&text).unwrap_err();
        assert!(err.contains("duplicate field `channels`"), "{err}");
    }

    #[test]
    fn invalid_case_rejected_on_load() {
        let mut case = FuzzCase::generate(3);
        case.trace[0].line = case.data_lines + 5;
        let err = from_ron(&to_ron(&case)).unwrap_err();
        assert!(err.contains("data space"), "unhelpful error: {err}");
    }

    #[test]
    fn syntax_error_names_the_line() {
        let err = from_ron("FuzzCase(\n  what even is this\n)").unwrap_err();
        assert!(err.contains("line 2"), "unhelpful error: {err}");
    }

    #[test]
    fn load_dir_continues_past_a_truncated_file() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-scratch")
            .join(format!("corpus-load-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = FuzzCase::generate(5);
        std::fs::write(dir.join("aa_good.ron"), to_ron(&good)).unwrap();
        // Truncate a valid file mid-trace-entry: the classic
        // crash-while-saving artifact that used to abort the whole replay
        // suite. (A cut on a line boundary would still parse, just with
        // fewer ops, so aim inside the final entry's tokens.)
        let full = to_ron(&FuzzCase::generate(6));
        let cut = full.rfind("(line:").expect("trace entry") + "(line: 1".len();
        std::fs::write(dir.join("bb_truncated.ron"), &full[..cut]).unwrap();
        std::fs::write(dir.join("cc_good.ron"), to_ron(&FuzzCase::generate(7))).unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a corpus file").unwrap();

        let (cases, errors) = load_dir(&dir);
        assert_eq!(cases.len(), 2, "good files must still load");
        assert_eq!(cases[0].1, good);
        assert_eq!(errors.len(), 1, "exactly the truncated file fails");
        assert!(errors[0].path.ends_with("bb_truncated.ron"));
        assert!(
            errors[0].to_string().contains("bb_truncated.ron"),
            "error must name the bad file: {}",
            errors[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_reports_missing_directory_as_one_error() {
        let (cases, errors) = load_dir(Path::new("does/not/exist-anywhere"));
        assert!(cases.is_empty());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].reason.contains("unreadable"));
    }
}
