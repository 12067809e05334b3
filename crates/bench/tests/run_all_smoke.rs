//! Tier-2 snapshot guard for `run_all --smoke`.
//!
//! The smoke pass runs every figure at `Test` scale, which is fast and
//! bit-deterministic, so its stdout can be diffed byte-for-byte against
//! a committed snapshot. Any change to a figure's numbers — intended or
//! not — must come with a reviewed snapshot update:
//!
//! ```text
//! EMCC_BLESS=1 cargo test -p emcc-bench --test run_all_smoke -- --ignored
//! ```

use std::path::PathBuf;
use std::process::Command;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/run_all_smoke.txt")
}

#[test]
#[ignore = "tier-2: runs the full figure pipeline (~a minute at Test scale)"]
fn run_all_smoke_matches_snapshot() {
    // Run from a scratch directory so the BENCH_run_all.json telemetry
    // drop does not land in the repo.
    let scratch = std::env::temp_dir().join(format!("emcc-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("--smoke")
        .current_dir(&scratch)
        .env_remove("EMCC_SCALE")
        .env("EMCC_JOBS", "1")
        .output()
        .expect("spawn run_all");
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        output.status.success(),
        "run_all --smoke failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("stdout is UTF-8");

    let path = snapshot_path();
    let bless = std::env::var("EMCC_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create snapshot dir");
        std::fs::write(&path, &actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "snapshot {} unreadable ({e}) — run EMCC_BLESS=1 cargo test -p emcc-bench \
             --test run_all_smoke -- --ignored to create it",
            path.display()
        )
    });
    if actual != expected {
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e)
            .map(|(n, (a, e))| format!("line {}: got `{a}`, snapshot `{e}`", n + 1))
            .unwrap_or_else(|| {
                format!(
                    "lengths differ ({} vs {} lines)",
                    actual.lines().count(),
                    expected.lines().count()
                )
            });
        panic!(
            "run_all --smoke stdout drifted from the committed snapshot \
             (EMCC_BLESS=1 regenerates after review):\n{first_diff}"
        );
    }
}

#[test]
fn only_prints_exactly_one_snapshot_section() {
    // Fig 3 needs no simulations, so this runs in tier 1.
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--smoke", "--only", "fig03"])
        .env_remove("EMCC_SCALE")
        .output()
        .expect("spawn run_all");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let section = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let snapshot = std::fs::read_to_string(snapshot_path()).expect("snapshot");
    assert!(section.starts_with("== Figure 3:"), "{section}");
    let at = snapshot
        .find(&section)
        .expect("the section appears verbatim in the snapshot");
    // It is the whole section: the timelines end right before it and
    // Fig 2 starts right after it.
    assert!(snapshot[..at].ends_with("\n\n"));
    assert!(snapshot[at + section.len()..].starts_with("== Figure 2:"));
}

#[test]
fn only_with_an_unknown_name_exits_2_listing_the_names() {
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--only", "fig99"])
        .output()
        .expect("spawn run_all");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    for name in [
        "fig02",
        "fig24",
        "timelines",
        "ablations",
        "race",
        "extensions",
    ] {
        assert!(stderr.contains(name), "`{name}` not listed: {stderr}");
    }
}
