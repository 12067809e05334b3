//! Tiny-size runs of every workload: every declared metric is emitted
//! with its declared unit, output checks pass, and failures are counted
//! without aborting the run.

use std::path::PathBuf;
use std::sync::Mutex;

use emcc_perfbench::metrics::Metrics;
use emcc_perfbench::{run, Opts, Outcome, Size, Workload, END_TO_END, PER_LAYER};

/// Span recording is process-wide: runs in this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
        size: Size::Tiny,
        force_panic: None,
        fail_appends_every: 0,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test"),
    }
}

fn run_serial(opts: &Opts) -> Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::fs::create_dir_all(&opts.work_dir).expect("create work dir");
    run(opts)
}

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(name, unit)` of every entry of the `key` array of BENCHMARK.json
/// (units are empty for workloads).
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |entry: &str, f: &str| {
        entry
            .split_once(&format!("\"{f}\": \""))
            .map(|(_, rest)| rest[..rest.find('"').expect("string closes")].to_string())
            .unwrap_or_default()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_and_workloads_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), pairs(&PER_LAYER));
    let names: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, ["figures-test", "svc-durable"]);
    assert!(names.iter().all(|n| Workload::parse(n).is_some()));
}

/// The workload whose layers a per-layer metric measures, or `None` for
/// the ones every traced run measures: primitive kernels, the bare
/// functional memory and the tracing overhead.
fn owner(name: &str, kernels: &Metrics) -> Option<Workload> {
    if kernels.get(name).is_some()
        || name.starts_with("secmem.functional_")
        || name == "trace.overhead_pct"
    {
        None
    } else if name.starts_with("service.")
        || ["self.service_ms", "self.backend_ms", "self.recover_ms"].contains(&name)
    {
        Some(Workload::SvcDurable)
    } else {
        Some(Workload::FiguresTest)
    }
}

/// Exact counts that are 0 on a correct run of the tiny sizes: the
/// service sees no overload, retry, rollback or verification failure,
/// and the eight headline cells at Test scale are too short to hit in the
/// LLC, write back, overflow a counter or invalidate an L2 counter.
const ZERO_ON_TINY: [&str; 11] = [
    "service.overloaded",
    "service.retries",
    "service.rollbacks",
    "service.verify_failures",
    "core.xpt_wasted",
    "cache.llc_data_hits",
    "secmem.l2_ctr_invalidations",
    "counters.overflows_l0",
    "counters.overflows_higher",
    "counters.overflow_stalls",
    "dram.writebacks",
];

#[test]
fn every_workload_emits_every_declared_metric_in_both_modes() {
    let mut kernels = Metrics::default();
    emcc_perfbench::kernels::measure(&mut kernels);
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run_serial(&tiny(w, trace));
            assert!(out.correct, "{} trace={trace}: {:#?}", w.name(), out.notes);
            assert!(out.attempted > 0 && out.failed == 0, "{}", w.name());
            let emitted: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            let want = if trace {
                pairs(&PER_LAYER)
            } else {
                pairs(&END_TO_END)
            };
            assert_eq!(emitted, want, "{} trace={trace}", w.name());
            // A layer the workload bypasses reports 0; every other metric
            // must have been measured.
            let wrong: Vec<String> = out
                .metrics
                .iter()
                .filter(|m| {
                    let name = m.name.as_str();
                    let bypassed = trace && owner(name, &kernels).is_some_and(|o| o != w);
                    let zero = bypassed || ZERO_ON_TINY.contains(&name);
                    zero != (m.value == 0.0)
                })
                .map(|m| format!("{} = {}", m.name, m.value))
                .collect();
            assert!(wrong.is_empty(), "{} trace={trace}: {wrong:#?}", w.name());
        }
    }
}

#[test]
fn traced_sim_run_reproduces_the_untraced_counts() {
    let out = run_serial(&tiny(Workload::FiguresTest, true));
    assert!(out.correct, "{:#?}", out.notes);
    let get = |n: &str| out.metrics.get(n).expect("declared");
    assert!(get("core.mem_ops") > 0.0 && get("workloads.next_op_calls") > 0.0);
    assert!(
        get("secmem.decrypted_at_l2") > 0.0,
        "EMCC cells decrypt at L2"
    );
    assert!(out.notes.iter().any(|n| n.contains("paper: 7% mean")));
    let spans = out.spans.expect("traced run keeps spans");
    for name in ["sim", "workloads.build", "core.new", "core.run"] {
        assert_eq!(spans.total(name).count, 8, "{name}: one span per cell");
    }
}

#[test]
fn forced_sim_panics_are_counted_and_the_run_completes() {
    let mut opts = tiny(Workload::FiguresTest, false);
    opts.force_panic = Some("mcf".into());
    let out = run_serial(&opts);
    // Both mcf cells fail in every pass; the other six complete.
    assert!(out.attempted >= 8, "{:#?}", out.notes);
    assert_eq!(out.failed * 4, out.attempted, "{:#?}", out.notes);
    assert!(out.notes.iter().any(|n| n.starts_with("FAILED sim: mcf")));
    assert_eq!(out.metrics.iter().count(), END_TO_END.len());
    assert!(out.metrics.get("throughput_per_s").unwrap_or(0.0) > 0.0);

    opts.force_panic = Some("*".into());
    let out = run_serial(&opts);
    assert_eq!(out.failed, out.attempted, "every simulation panicked");
}
#[test]
fn failing_appends_are_counted_and_never_lose_acknowledged_writes() {
    let mut opts = tiny(Workload::SvcDurable, false);
    opts.fail_appends_every = 7;
    let out = run_serial(&opts);
    assert!(out.failed > 0, "injected append failures must fail ops");
    assert!(out.failed < out.attempted);
    // Failed writes roll back; every acknowledged one reads back after
    // the restart.
    assert!(out.correct, "{:#?}", out.notes);
}
