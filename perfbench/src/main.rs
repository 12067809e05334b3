//! Benchmark command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures-test|svc-durable \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Prints the host fingerprint, the checks
//! and every metric with its unit, then as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Service files, the
//! host record and the spans of a traced run go to `.perfbench/`.
//! `EMCC_FORCE_PANIC=<benchmark>|*` makes matching simulations panic;
//! they are counted as failed and the run carries on.
//!
//! Exit status: 0 when every check passed, 1 when a check failed, 2 on a
//! usage error.

use std::path::PathBuf;

use emcc_perfbench::{host::Host, metrics, run, Opts, Size, Workload};

const USAGE: &str = "usage: emcc-perfbench --workload figures-test|svc-durable \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut workload = None;
    let mut opts = Opts {
        workload: Workload::FiguresTest,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        force_panic: std::env::var("EMCC_FORCE_PANIC")
            .ok()
            .filter(|v| !v.is_empty()),
        fail_appends_every: 0,
        work_dir: PathBuf::from(".perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage_error(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed takes an unsigned integer"))
            }
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .unwrap_or_else(|| usage_error("--seconds takes a number in (0, 3600]"))
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                }
            }
            _ => usage_error(&format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage_error("--workload is required"));
    opts
}

fn main() {
    let opts = parse_args();
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("error: cannot create {}: {e}", opts.work_dir.display());
        std::process::exit(2);
    }
    let host = Host::probe();
    println!("host: {}", host.line());
    if let Some(w) = host.check_same_host(&opts.work_dir) {
        println!("{w}");
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );

    let out = run(&opts);

    for n in &out.notes {
        println!("{n}");
    }
    if let Some(spans) = &out.spans {
        let path = opts.work_dir.join(format!(
            "spans-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        let header = format!(
            "{} seed {}; {}",
            opts.workload.name(),
            opts.seed,
            host.line()
        );
        match std::fs::write(&path, spans.to_json(&header)) {
            Ok(()) => println!(
                "wrote {} ({} spans kept)",
                path.display(),
                spans.spans.len()
            ),
            Err(e) => println!("cannot write {}: {e}", path.display()),
        }
    }
    for m in out.metrics.iter() {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        metrics::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    std::process::exit(if out.correct { 0 } else { 1 });
}
