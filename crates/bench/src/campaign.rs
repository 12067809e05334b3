//! The one driver behind the seeded campaigns (`fuzz_sim`,
//! `crash_campaign`), plus the record codec their reproducers share.
//!
//! A campaign implements [`Campaign`]; the driver owns the rest:
//!
//! * the CLI: `--cases N`, `--seed S` (decimal or `0x` hex), `--smoke`,
//!   `--out FILE`, `--repro-dir DIR`, `--replay FILE`, plus the
//!   campaign's own `--flag value` pairs;
//! * the parallel run on [`run_indexed_catching`] (a panicking case is a
//!   failing case) and the verdict file, one line per case in index
//!   order, so it is byte-identical for any `EMCC_JOBS`;
//! * shrinking the first failing case with [`minimize`], persisting the
//!   reproducer, and `--replay`;
//! * the `EMCC_FORCE_ORACLE_FAIL` hook (`*` or one case seed), which
//!   fails cases on purpose to exercise shrink → persist → replay;
//! * `BENCH_<name>.json` (cases per second) next to the verdict file;
//! * exit codes: 0 pass, 1 failing case, 2 usage or I/O error — the
//!   verdict file, reproducer and scratch directory never panic.
//!
//! Reproducers are a line-based RON subset: `Name(`, one `key: value,`
//! line per field (a value may be `Tag(k: v, ..)`), then one list of
//! `(k: v, ..)` items, one per line. `//` starts a comment.

use std::fmt::Display;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use proptest::shrink::{minimize, Shrink};

use crate::json::Obj;
use crate::pool::{jobs_from_env, run_indexed_catching};

/// A seeded campaign the driver can run, shrink and replay.
pub trait Campaign {
    /// One generated case.
    type Case: Clone + Send + Shrink;
    /// What judging a case produced besides its failures.
    type Outcome: Send;

    /// Binary name: log prefix, usage line and `BENCH_<NAME>.json`.
    const NAME: &'static str;
    /// Default case count.
    const CASES: usize;
    /// Case count under `--smoke`.
    const SMOKE_CASES: usize;
    /// Default campaign seed.
    const SEED: u64;
    /// Shrink candidates tested before accepting the current minimum.
    const SHRINK_BUDGET: usize;
    /// Default verdict file.
    const OUT: &'static str;
    /// Usage text of the campaign's own flags.
    const EXTRA_USAGE: &'static str = "";

    /// Default reproducer directory.
    fn default_repro_dir() -> PathBuf;
    /// The seed of case `index` of a campaign seeded with `seed`.
    fn case_seed(seed: u64, index: u64) -> u64;
    /// The case for one case seed. Pure.
    fn generate(case_seed: u64) -> Self::Case;
    /// The seed a case came from (shrink candidates keep it).
    fn seed_of(case: &Self::Case) -> u64;
    /// Runs one case; `scratch` is a directory path of its own (inside
    /// one the driver created). No failures means a pass.
    fn judge(case: &Self::Case, scratch: &Path) -> (Self::Outcome, Vec<String>);
    /// The verdict line of a judged case.
    fn verdict_line(i: usize, case: &Self::Case, out: &Self::Outcome, fails: &[String]) -> String;
    /// The verdict line of a case whose run panicked.
    fn panic_line(i: usize, msg: &str) -> String;
    /// Extra summary over the judged outcomes.
    fn tally(_outcomes: &[Self::Outcome]) -> String {
        String::new()
    }
    /// The reproducer text of a case.
    fn encode(case: &Self::Case) -> String;
    /// Parses and validates reproducer text.
    ///
    /// # Errors
    ///
    /// Says what is wrong, naming the line for syntax errors.
    fn decode(text: &str) -> Result<Self::Case, String>;
    /// The reproducer's file name.
    fn repro_name(case: &Self::Case) -> String;
}

/// A campaign's parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Cases to run.
    pub cases: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Verdict file.
    pub out: PathBuf,
    /// Where a shrunk reproducer goes.
    pub repro_dir: PathBuf,
    /// Replay this reproducer instead of running the campaign.
    pub replay: Option<PathBuf>,
    /// The campaign's own `(--flag, value)` pairs, in order.
    pub extra: Vec<(String, String)>,
}

impl Args {
    /// Parses `argv` (program name excluded); each of `extra_flags`
    /// takes one value.
    ///
    /// # Errors
    ///
    /// Names the flag that is unknown, lacks its value or has a bad one.
    pub fn parse<C: Campaign>(
        argv: impl IntoIterator<Item = String>,
        extra_flags: &[&str],
    ) -> Result<Args, String> {
        let mut args = Args {
            cases: C::CASES,
            seed: C::SEED,
            out: PathBuf::from(C::OUT),
            repro_dir: C::default_repro_dir(),
            replay: None,
            extra: Vec::new(),
        };
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.cases = C::SMOKE_CASES;
                continue;
            }
            let known = ["--cases", "--seed", "--out", "--repro-dir", "--replay"];
            if !known.contains(&flag.as_str()) && !extra_flags.contains(&flag.as_str()) {
                return Err(format!("unknown flag `{flag}`"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag} value `{value}`");
            match flag.as_str() {
                "--cases" => args.cases = value.parse().map_err(|_| bad())?,
                "--seed" => args.seed = parse_seed(&value).ok_or_else(bad)?,
                "--out" => args.out = value.into(),
                "--repro-dir" => args.repro_dir = value.into(),
                "--replay" => args.replay = Some(value.into()),
                _ => args.extra.push((flag, value)),
            }
        }
        Ok(args)
    }

    /// The last value of one of the campaign's own flags.
    pub fn extra(&self, flag: &str) -> Option<&str> {
        let found = self.extra.iter().rev().find(|(f, _)| f == flag);
        found.map(|(_, v)| v.as_str())
    }
}

/// Parses a seed: decimal, or hex after `0x`.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// A campaign binary's `main`. `extras` sees the parsed arguments first
/// and returns an exit code when it handled one of the campaign's own
/// modes; otherwise the driver replays or runs the campaign.
pub fn main<C: Campaign>(
    extra_flags: &[&str],
    extras: impl FnOnce(&Args) -> Result<Option<ExitCode>, String>,
) -> ExitCode {
    let args = match Args::parse::<C>(std::env::args().skip(1), extra_flags) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: {} [--cases N] [--seed S] [--smoke] [--out FILE] \
                 [--repro-dir DIR] [--replay FILE]{}",
                C::NAME,
                C::EXTRA_USAGE
            );
            return ExitCode::from(2);
        }
    };
    let result = extras(&args).and_then(|handled| match (handled, &args.replay) {
        (Some(code), _) => Ok(code),
        (None, Some(path)) => replay::<C>(path),
        (None, None) => drive::<C>(&args),
    });
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// A finished campaign, in case order.
pub struct Report<C: Campaign> {
    /// The verdict file's text.
    pub verdicts: String,
    /// `(index, case, failures)` of every failing case.
    pub failures: Vec<(usize, C::Case, Vec<String>)>,
    /// [`Campaign::tally`] of the judged cases.
    pub tally: String,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// Runs cases `0..cases` of campaign `seed` on `jobs` workers; case `i`
/// gets `scratch/case_i`.
pub fn run_campaign<C: Campaign>(
    cases: usize,
    seed: u64,
    jobs: usize,
    scratch: &Path,
) -> Report<C> {
    let t0 = Instant::now();
    let results = run_indexed_catching(cases, jobs, |i| {
        let case = C::generate(C::case_seed(seed, i as u64));
        let (outcome, failures) = judge::<C>(&case, &scratch.join(format!("case_{i}")));
        (case, outcome, failures)
    });
    let elapsed = t0.elapsed();
    let (mut verdicts, mut failed, mut outcomes) = (String::new(), Vec::new(), Vec::new());
    for (i, result) in results.into_iter().enumerate() {
        let (case, failures) = match result {
            Ok((case, outcome, failures)) => {
                verdicts += &C::verdict_line(i, &case, &outcome, &failures);
                outcomes.push(outcome);
                (case, failures)
            }
            Err(msg) => {
                verdicts += &C::panic_line(i, &msg);
                let case = C::generate(C::case_seed(seed, i as u64));
                (case, vec![format!("panicked: {msg}")])
            }
        };
        verdicts.push('\n');
        if !failures.is_empty() {
            failed.push((i, case, failures));
        }
    }
    let tally = C::tally(&outcomes);
    Report {
        verdicts,
        failures: failed,
        tally,
        elapsed,
    }
}

/// [`Campaign::judge`] plus the `EMCC_FORCE_ORACLE_FAIL` hook: `*` fails
/// every case, a number the case of that seed — which shrinking keeps,
/// as it would a real seed-determined bug.
fn judge<C: Campaign>(case: &C::Case, scratch: &Path) -> (C::Outcome, Vec<String>) {
    let (outcome, mut failures) = C::judge(case, scratch);
    let forced = std::env::var("EMCC_FORCE_ORACLE_FAIL");
    if forced.is_ok_and(|v| v == "*" || v == C::seed_of(case).to_string()) {
        failures.push("forced failure (EMCC_FORCE_ORACLE_FAIL)".to_string());
    }
    (outcome, failures)
}

/// Creates this process's scratch directory under the workspace
/// `target/`, so concurrent campaigns never share one.
fn scratch_dir<C: Campaign>() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/campaign_scratch")
        .join(format!("{}-{}", C::NAME, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn drive<C: Campaign>(args: &Args) -> Result<ExitCode, String> {
    // Open the verdict file first, so an unwritable --out fails before
    // the campaign spends its time.
    let out_err = |e: std::io::Error| format!("cannot write {}: {e}", args.out.display());
    if let Some(parent) = args.out.parent() {
        std::fs::create_dir_all(parent).map_err(out_err)?;
    }
    let mut out = std::fs::File::create(&args.out).map_err(out_err)?;
    let jobs = jobs_from_env();
    let (name, cases) = (C::NAME, args.cases);
    eprintln!("{name}: {cases} cases, seed {}, {jobs} workers", args.seed);
    let scratch = scratch_dir::<C>()?;
    let report = run_campaign::<C>(cases, args.seed, jobs, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!("{name}: campaign took {:.1?}", report.elapsed);
    write_telemetry::<C>(args, jobs, report.elapsed);
    out.write_all(report.verdicts.as_bytes()).map_err(out_err)?;
    for (i, _, failures) in &report.failures {
        for f in failures {
            eprintln!("case {i}: {f}");
        }
    }
    eprintln!(
        "{name}: {}/{cases} cases passed{}, verdicts in {}",
        cases - report.failures.len(),
        report.tally,
        args.out.display()
    );
    let Some((index, case, failures)) = report.failures.into_iter().next() else {
        return Ok(ExitCode::SUCCESS);
    };
    shrink_and_persist::<C>(index, case, &failures, &args.repro_dir)?;
    Ok(ExitCode::from(1))
}

/// `BENCH_<NAME>.json` next to the verdict file. Best effort: an
/// unwritable path never fails a green campaign.
fn write_telemetry<C: Campaign>(args: &Args, jobs: usize, elapsed: Duration) {
    let secs = elapsed.as_secs_f64();
    let per_sec = if secs > 0.0 {
        args.cases as f64 / secs
    } else {
        0.0
    };
    let json = Obj::new()
        .num("cases", args.cases)
        .num("seed", args.seed)
        .num("jobs", jobs)
        .fixed("sims_per_sec", per_sec, 3)
        .num("campaign_ns", elapsed.as_nanos());
    let dir = args.out.parent().unwrap_or(Path::new("."));
    let path = dir.join(format!("BENCH_{}.json", C::NAME));
    if let Err(e) = std::fs::write(&path, json.render()) {
        eprintln!("{}: telemetry {}: {e}", C::NAME, path.display());
    }
}

fn shrink_and_persist<C: Campaign>(
    index: usize,
    case: C::Case,
    failures: &[String],
    repro_dir: &Path,
) -> Result<(), String> {
    // Fail before shrinking if the reproducer has nowhere to go.
    std::fs::create_dir_all(repro_dir)
        .map_err(|e| format!("cannot create {}: {e}", repro_dir.display()))?;
    let name = C::NAME;
    eprintln!(
        "{name}: shrinking case {index} (budget {})...",
        C::SHRINK_BUDGET
    );
    let t0 = Instant::now();
    let scratch = scratch_dir::<C>()?;
    let m = minimize(case, C::SHRINK_BUDGET, |cand| {
        let fails = || !judge::<C>(cand, &scratch.join("shrink")).1.is_empty();
        catch_unwind(AssertUnwindSafe(fails)).unwrap_or(true)
    });
    let _ = std::fs::remove_dir_all(&scratch);
    let (steps, tested) = (m.steps, m.tested);
    eprintln!(
        "{name}: shrunk in {steps} steps ({tested} candidates, {:.1?})",
        t0.elapsed()
    );
    let path = repro_dir.join(C::repro_name(&m.value));
    let mut text = C::encode(&m.value);
    for f in failures {
        text += &format!("// failed: {f}\n");
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let path = path.display();
    eprintln!("{name}: reproducer in {path}; replay with `{name} --replay {path}`");
    Ok(())
}

fn replay<C: Campaign>(path: &Path) -> Result<ExitCode, String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{shown}: {e}"))?;
    let case = C::decode(&text).map_err(|e| format!("{shown}: {e}"))?;
    let scratch = scratch_dir::<C>()?;
    let (outcome, failures) = judge::<C>(&case, &scratch.join("replay"));
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!(
        "replay {shown}: {}",
        C::verdict_line(0, &case, &outcome, &failures)
    );
    for f in &failures {
        eprintln!("replay {shown}: {f}");
    }
    Ok(ExitCode::from(u8::from(!failures.is_empty())))
}

/// Writes a record: header comments, `Name(`, fields, one closing list.
pub struct RecordWriter(String);

impl RecordWriter {
    /// Starts a record after the verbatim `header`.
    pub fn new(header: &str, name: &str) -> Self {
        RecordWriter(format!("{header}{name}(\n"))
    }

    /// Appends `key: value,`.
    pub fn field(&mut self, key: &str, value: impl Display) {
        self.0 += &format!("    {key}: {value},\n");
    }

    /// Appends the list under `key` and closes the record.
    pub fn finish(mut self, key: &str, items: impl IntoIterator<Item = String>) -> String {
        self.0 += &format!("    {key}: [\n");
        for item in items {
            self.0 += &format!("        {item},\n");
        }
        self.0 + "    ],\n)\n"
    }
}

/// `Tag(k: v, ..)`; an empty `tag` gives a bare tuple.
pub fn tuple(tag: &str, fields: &[(&str, &dyn Display)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k}: {v}")).collect();
    format!("{tag}({})", body.join(", "))
}

/// The `key: value` pairs of a record, list item or tag.
#[derive(Debug, Clone, Default)]
pub struct Fields(Vec<(String, String)>);

impl Fields {
    /// Parses `k: v, k: v` found on line `line`.
    fn parse_line(body: &str, line: usize) -> Result<Fields, String> {
        let mut fields = Fields::default();
        if !body.trim().is_empty() {
            for part in body.split(',') {
                fields.push(part, line)?;
            }
        }
        Ok(fields)
    }

    /// Adds one `k: v`; a repeated key is an error. Errors name `line`
    /// unless it is 0 (a tag's fields, whose line is not known).
    fn push(&mut self, part: &str, line: usize) -> Result<(), String> {
        let at = if line == 0 {
            String::new()
        } else {
            format!("line {line}: ")
        };
        let (k, v) = part
            .split_once(':')
            .ok_or_else(|| format!("{at}expected `key: value`, got `{}`", part.trim()))?;
        let k = k.trim();
        if self.0.iter().any(|(have, _)| have == k) {
            return Err(format!("{at}duplicate field `{k}`"));
        }
        self.0.push((k.to_string(), v.trim().to_string()));
        Ok(())
    }

    /// The raw value of `key`.
    ///
    /// # Errors
    ///
    /// Names the missing key.
    pub fn get(&self, key: &str) -> Result<&str, String> {
        let found = self.0.iter().find(|(k, _)| k == key);
        found
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// The value of `key`, parsed.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or its value does not parse.
    pub fn parse<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key)?;
        v.parse()
            .map_err(|_| format!("field `{key}` has bad value `{v}`"))
    }
}

/// Parses a [`RecordWriter`] record into its fields and the items of its
/// list `list_key`. Comments and blank lines are skipped.
///
/// # Errors
///
/// Names the line of the first syntax error or repeated key.
pub fn read_record(
    text: &str,
    name: &str,
    list_key: &str,
) -> Result<(Fields, Vec<Fields>), String> {
    let (open, list_open) = (format!("{name}("), format!("{list_key}: ["));
    let (mut fields, mut list, mut in_list) = (Fields::default(), Vec::new(), false);
    for (n, raw) in text.lines().enumerate() {
        let line = raw.find("//").map_or(raw, |i| &raw[..i]).trim();
        let body = line.strip_suffix(',').unwrap_or(line);
        if line.is_empty() || line == open || line == ")" {
            continue;
        }
        if line == list_open || (in_list && body == "]") {
            in_list = !in_list;
        } else if in_list {
            let item = body.strip_prefix('(').and_then(|s| s.strip_suffix(')'));
            let item =
                item.ok_or_else(|| format!("line {}: expected `(key: value, ..)`", n + 1))?;
            list.push(Fields::parse_line(item, n + 1)?);
        } else {
            fields.push(body, n + 1)?;
        }
    }
    Ok((fields, list))
}

/// Splits a `Tag(k: v, ..)` or bare `Tag` value.
///
/// # Errors
///
/// Says what was expected when `v` is neither.
pub fn read_tagged(v: &str) -> Result<(&str, Fields), String> {
    let (tag, body) = match v.split_once('(') {
        Some((tag, rest)) => (tag, rest.strip_suffix(')')),
        None => (v, Some("")),
    };
    match body {
        Some(body) if !tag.is_empty() && tag.chars().all(|c| c.is_ascii_alphanumeric()) => {
            Ok((tag, Fields::parse_line(body, 0)?))
        }
        _ => Err(format!("expected `Tag(key: value, ..)`, got `{v}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut w = RecordWriter::new("// header\n", "Thing");
        w.field("seed", 7);
        w.field("plan", tuple("Some", &[("a", &1), ("b", &true)]));
        let items = [
            tuple("", &[("x", &1)]),
            tuple("", &[("x", &2), ("y", &"z")]),
        ];
        w.finish("items", items)
    }

    #[test]
    fn records_round_trip() {
        let text = sample();
        assert_eq!(
            text,
            "// header\nThing(\n    seed: 7,\n    plan: Some(a: 1, b: true),\n    \
             items: [\n        (x: 1),\n        (x: 2, y: z),\n    ],\n)\n"
        );
        let (fields, list) = read_record(&text, "Thing", "items").unwrap();
        assert_eq!(fields.parse::<u64>("seed"), Ok(7));
        let (tag, plan) = read_tagged(fields.get("plan").unwrap()).unwrap();
        assert_eq!((tag, plan.parse::<bool>("b")), ("Some", Ok(true)));
        assert_eq!(read_tagged("None").unwrap().0, "None");
        assert_eq!(list[1].get("y"), Ok("z"));
        assert!(fields.parse::<u64>("nope").unwrap_err().contains("nope"));
    }

    #[test]
    fn record_errors_name_the_line() {
        let dup = sample().replace("    plan:", "    seed: 8,\n    plan:");
        let err = read_record(&dup, "Thing", "items").unwrap_err();
        assert!(err.contains("line 4: duplicate field `seed`"), "{err}");
        let err = read_record("Thing(\n  junk\n)", "Thing", "items").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(read_tagged("Some(a: 1").is_err() && read_tagged("(a: 1)").is_err());
    }

    #[test]
    fn seeds_parse_decimal_and_hex() {
        assert_eq!(parse_seed("51365"), Some(51365));
        assert_eq!(parse_seed("0xC4A5"), Some(0xC4A5));
        assert_eq!(parse_seed("0xZZ"), None);
    }
}
