//! CLI-level tests for `fuzz_sim --replay`: a missing or unparseable
//! reproducer must exit 2 (config error) with a pointed message — never
//! a green "0 cases run" verdict — and a real reproducer round-trips
//! through `--emit` and replays green.

use std::process::Command;

#[test]
fn replay_missing_file_exits_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_fuzz_sim"))
        .args(["--replay", "/nonexistent/emcc-no-such-case.ron"])
        .output()
        .expect("spawn fuzz_sim");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error"), "stderr: {stderr}");
}

#[test]
fn replay_unparseable_file_exits_2() {
    let path = std::env::temp_dir().join(format!("emcc-bad-case-{}.ron", std::process::id()));
    std::fs::write(&path, "FuzzCase( this is not valid\n").expect("write garbage case");
    let output = Command::new(env!("CARGO_BIN_EXE_fuzz_sim"))
        .args(["--replay", path.to_str().expect("utf-8 temp path")])
        .output()
        .expect("spawn fuzz_sim");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error"), "stderr: {stderr}");
}

#[test]
fn emitted_case_replays_green() {
    let path = std::env::temp_dir().join(format!("emcc-emit-case-{}.ron", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let emit = Command::new(env!("CARGO_BIN_EXE_fuzz_sim"))
        .args(["--emit", path_str, "--case-seed", "7"])
        .output()
        .expect("spawn fuzz_sim --emit");
    assert!(
        emit.status.success(),
        "emit failed: {}",
        String::from_utf8_lossy(&emit.stderr)
    );
    let replay = Command::new(env!("CARGO_BIN_EXE_fuzz_sim"))
        .args(["--replay", path_str])
        .output()
        .expect("spawn fuzz_sim --replay");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert_eq!(replay.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("ok"), "stderr: {stderr}");
}

#[test]
fn output_errors_exit_2_and_hex_seed_parses() {
    let bin = env!("CARGO_BIN_EXE_fuzz_sim");
    let tmp = std::env::temp_dir().join(format!(
        "emcc-output_errors_exit_2_and_hex_seed_parses-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&tmp).expect("scratch dir");
    // A regular file: nothing can be created below it, on any platform.
    let blocker = tmp.join("not-a-dir");
    std::fs::write(&blocker, "").expect("write blocker");
    let run = |forced: &str, args: &[&str], out: &std::path::Path, repro: &std::path::Path| {
        let o = Command::new(bin)
            .args(args)
            .arg("--out")
            .arg(out)
            .arg("--repro-dir")
            .arg(repro)
            .env("EMCC_FORCE_ORACLE_FAIL", forced)
            .output()
            .expect("spawn campaign");
        (
            o.status.code(),
            String::from_utf8_lossy(&o.stderr).into_owned(),
        )
    };
    // An unwritable verdict file or reproducer dir is exit 2, not a panic.
    let (code, err) = run("", &["--cases", "1"], &blocker.join("v.txt"), &tmp);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("cannot write"), "{err}");
    let (code, err) = run(
        "*",
        &["--cases", "1"],
        &tmp.join("v.txt"),
        &blocker.join("r"),
    );
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("cannot create"), "{err}");
    // `--seed` takes hex as well as decimal.
    let (hex, dec) = (tmp.join("hex.txt"), tmp.join("dec.txt"));
    let n = "1";
    assert_eq!(
        run("", &["--cases", n, "--seed", "0x2a"], &hex, &tmp).0,
        Some(0)
    );
    assert_eq!(
        run("", &["--cases", n, "--seed", "42"], &dec, &tmp).0,
        Some(0)
    );
    assert_eq!(std::fs::read(hex).unwrap(), std::fs::read(dec).unwrap());
    let _ = std::fs::remove_dir_all(&tmp);
}
