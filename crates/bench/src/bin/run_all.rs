//! Regenerates every figure in one pass — the data source for
//! EXPERIMENTS.md — or one figure with `--only NAME`.
//!
//! ```sh
//! EMCC_SCALE=small EMCC_JOBS=4 cargo run --release -p emcc-bench --bin run_all
//! EMCC_SCALE=small cargo run --release -p emcc-bench --bin run_all -- --only fig16
//! ```
//!
//! `--smoke` forces `Test` scale regardless of `EMCC_SCALE` — the fast,
//! deterministic pass CI diffs against the committed snapshot
//! (`crates/bench/tests/snapshots/run_all_smoke.txt`).
//!
//! `--only NAME` prints one entry of [`experiments::FIGURES`] (`fig02` …
//! `fig24`, `timelines`, `ablations`, `race`, or `extensions`, the §IV-F
//! table outside the full pass), exactly as the full pass prints it.
//!
//! `--trace FILE` additionally exports a Chrome-trace JSON of one
//! representative EMCC run's critical-path attribution (open in
//! `chrome://tracing` or Perfetto). The traced run is inline, so the
//! file is byte-identical for any `EMCC_JOBS`.
//!
//! The full pass has two phases:
//!
//! 1. **Schedule** — every figure declares its run-matrix as
//!    [`RunRequest`](emcc_bench::RunRequest)s; the union is executed on
//!    the work-stealing pool (`EMCC_JOBS` workers). Requests shared
//!    between figures (the Table I schemes dominate) simulate once.
//! 2. **Render** — figures print serially in table order from the
//!    run-cache, so stdout is byte-identical no matter the worker count.
//!
//! Phase timings and the cache hit/miss counters are written to
//! `BENCH_run_all.json`, the race figure to `BENCH_race.json`.

use std::time::Instant;

use emcc::prelude::WorkloadScale;
use emcc_bench::json::{self, Obj};
use emcc_bench::{experiments, ExhaustedRun, ExpParams, FailedRun, Harness};

const USAGE: &str = "usage: run_all [--smoke] [--trace FILE] [--only NAME]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut smoke = false;
    let mut trace: Option<String> = None;
    let mut only: Option<&'static experiments::Figure> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--trace" => {
                trace = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--trace needs a path")),
                )
            }
            "--only" => {
                let name = it
                    .next()
                    .unwrap_or_else(|| usage_error("--only needs a name"));
                only = Some(experiments::find(&name).unwrap_or_else(|| {
                    let names: Vec<&str> = experiments::FIGURES.iter().map(|f| f.name).collect();
                    usage_error(&format!(
                        "unknown figure `{name}`; valid names: {}",
                        names.join(" ")
                    ))
                }));
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    if let Some(path) = &trace {
        if let Err(e) = export_trace(path) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote critical-path trace to {path}");
    }
    let h = if smoke {
        Harness::new(ExpParams::for_scale(WorkloadScale::Test))
    } else {
        Harness::from_env()
    };
    if let Some(fig) = only {
        h.execute(&(fig.requests)());
        exit_on_failures(&h, 0.0);
        print!("{}", (fig.render)(&h));
        return;
    }

    let scale = h.params().scale;
    let t0 = Instant::now();
    println!(
        "EMCC reproduction: regenerating all figures at {scale:?} scale \
         ({} warmup + {} measured mem-ops/core)\n",
        h.params().warmup_ops,
        h.params().measure_ops
    );
    eprintln!(
        "[{:>7.1}s] scheduling all figures on {} worker(s)...",
        t0.elapsed().as_secs_f64(),
        h.jobs()
    );

    // Phase 1: collect every figure's run-matrix and execute the union.
    // The same batch backs `perf_gate`, so the sims/sec recorded below is
    // directly comparable to the gated baseline.
    let requests = experiments::all_requests();
    h.execute(&requests);
    let (sched_hits, sched_misses) = h.cache_stats();
    let sim_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "[{sim_secs:>7.1}s] simulated {sched_misses} unique runs \
         ({} requested, {sched_hits} shared)",
        requests.len()
    );

    // Crash isolation: a panicking simulation was contained by the pool
    // and recorded as telemetry. Rendering would read poisoned holes out
    // of the cache, so write the telemetry trail and bail nonzero.
    let failures = h.failures();
    if !failures.is_empty() {
        let total_secs = t0.elapsed().as_secs_f64();
        let exhausted = h.recovery_exhausted();
        let json = bench_json(
            &h,
            requests.len(),
            sim_secs,
            total_secs,
            &failures,
            &exhausted,
        );
        write_json("BENCH_run_all.json", &json, total_secs);
        exit_on_failures(&h, total_secs);
    }

    // Phase 2: render serially in table order; every run is a cache hit.
    for fig in experiments::FIGURES.iter().filter(|f| f.in_full_pass) {
        eprintln!(
            "[{:>7.1}s] rendering {}...",
            t0.elapsed().as_secs_f64(),
            fig.name
        );
        print!("{}", (fig.render)(&h));
    }
    write_json(
        "BENCH_race.json",
        &race_json(&experiments::race::figure(&h)),
        t0.elapsed().as_secs_f64(),
    );

    let total_secs = t0.elapsed().as_secs_f64();
    let (hits, misses) = h.cache_stats();
    let exhausted = h.recovery_exhausted();
    for e in &exhausted {
        // A run that completed but poisoned deliveries is worth a warning
        // even though the figures still render — the counter below keeps
        // it visible in the telemetry file.
        eprintln!(
            "[{total_secs:>7.1}s] WARNING: {} / {} exhausted its integrity-retry \
             budget ({} unrecovered deliveries)",
            e.bench, e.scheme, e.unrecovered
        );
    }
    let json = bench_json(&h, requests.len(), sim_secs, total_secs, &[], &exhausted);
    write_json("BENCH_run_all.json", &json, total_secs);
    eprintln!("[{total_secs:>7.1}s] done ({misses} simulations, {hits} cache hits)");
}

/// Reports every failed simulation and exits 1 when there are any.
fn exit_on_failures(h: &Harness, secs: f64) {
    let failures = h.failures();
    if failures.is_empty() {
        return;
    }
    for f in &failures {
        eprintln!(
            "[{secs:>7.1}s] FAILED run: {} / {}: {}",
            f.bench, f.scheme, f.error
        );
    }
    eprintln!(
        "[{secs:>7.1}s] aborting render: {} runs failed",
        failures.len()
    );
    std::process::exit(1);
}

/// Telemetry is best effort: an unwritable file is reported, not fatal.
fn write_json(path: &str, json: &Obj, secs: f64) {
    match std::fs::write(path, json.render()) {
        Ok(()) => eprintln!("[{secs:>7.1}s] wrote {path}"),
        Err(e) => eprintln!("[{secs:>7.1}s] {path}: {e}"),
    }
}

/// Writes a Chrome-trace JSON (`chrome://tracing` / Perfetto) of one
/// representative EMCC run: canneal at Test scale on the Table I
/// configuration. The traced run executes inline — never on the worker
/// pool — so the file is byte-identical for any `EMCC_JOBS`.
fn export_trace(path: &str) -> std::io::Result<()> {
    use emcc::prelude::*;
    let cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    let sources = Benchmark::Canneal.build_scaled(7, cfg.cores, WorkloadScale::Test);
    let (_, rec) = SecureSystem::new(cfg).run_traced(sources, 0, 2_000, 8_192);
    std::fs::write(path, rec.chrome_json())
}

/// Timing + cache telemetry, the failed-run trail (empty on a clean
/// pass), and runs that completed with an exhausted integrity-retry
/// budget (kept distinct from `failed_runs`: their reports are valid and
/// rendered).
fn bench_json(
    h: &Harness,
    requested: usize,
    sim_secs: f64,
    total_secs: f64,
    failures: &[FailedRun],
    exhausted: &[ExhaustedRun],
) -> Obj {
    let (hits, misses) = h.cache_stats();
    // The perf trajectory: unique simulations per second of simulate
    // phase — the number `perf_gate` compares against its committed
    // baseline. Phase durations repeat in integer nanoseconds so
    // trajectory tooling never reparses rounded seconds.
    let sims_per_sec = if sim_secs > 0.0 {
        misses as f64 / sim_secs
    } else {
        0.0
    };
    let ns = |secs: f64| (secs.max(0.0) * 1e9) as u64;
    let run = |bench: &str, scheme: &str| Obj::new().str("bench", bench).str("scheme", scheme);
    Obj::new()
        .str("scale", &format!("{:?}", h.params().scale))
        .num("jobs", h.jobs())
        .num("requested_runs", requested)
        .num("unique_runs", misses)
        .num("cache_hits", hits)
        .num("cache_misses", misses)
        .fixed("simulate_seconds", sim_secs, 3)
        .fixed("total_seconds", total_secs, 3)
        .fixed("sims_per_sec", sims_per_sec, 3)
        .num("simulate_ns", ns(sim_secs))
        .num("render_ns", ns(total_secs - sim_secs))
        .num("total_ns", ns(total_secs))
        .rows(
            "failed_runs",
            failures
                .iter()
                .map(|f| run(&f.bench, &f.scheme).str("error", &f.error)),
        )
        .num("recovery_exhausted_count", exhausted.len())
        .rows(
            "recovery_exhausted_runs",
            exhausted
                .iter()
                .map(|e| run(&e.bench, &e.scheme).num("unrecovered", e.unrecovered)),
        )
}

/// The race figure as machine-readable telemetry (`BENCH_race.json`):
/// one row per benchmark (plus the mean), one normalized value per
/// scheme, in `all()` order. CI uploads this as an artifact so the
/// placement race is plottable without reparsing stdout.
fn race_json(fig: &experiments::FigureData) -> Obj {
    let rows = fig.rows.iter().zip(&fig.values).map(|(name, values)| {
        let normalized = values.iter().map(|&v| json::fixed(v, 6));
        Obj::new()
            .str("benchmark", name)
            .list("normalized", normalized)
    });
    Obj::new()
        .str("title", &fig.title)
        .list("schemes", fig.cols.iter().map(|c| json::quote(c)))
        .rows("rows", rows)
}
