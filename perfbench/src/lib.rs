//! End-to-end and per-layer benchmark of the EMCC reproduction.
//!
//! Workloads, each run from outside through the crates' public APIs (see
//! `README.md` for why each exists and which layers it stresses or
//! bypasses):
//!
//! - `figures-test`: the whole `run_all` matrix at Test scale, one
//!   worker; its figures must match the committed smoke snapshot.
//! - `svc-durable`: the secure-memory service over a file backend with
//!   two closed-loop clients, ending in a checked restart.
//!
//! An untraced run reports [`END_TO_END`]; a traced run (`--trace 1`)
//! repeats the work with spans around every layer call and reports
//! [`PER_LAYER`]. A layer a workload bypasses reports 0.

pub mod host;
pub mod kernels;
pub mod metrics;
pub mod sims;
pub mod svc;
pub mod trace;

use std::path::PathBuf;

use metrics::Metrics;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every figure at Test scale.
    FiguresTest,
    /// The durable secure-memory service.
    SvcDurable,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::FiguresTest, Workload::SvcDurable];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresTest => "figures-test",
            Workload::SvcDurable => "svc-durable",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: `Full` is the benchmark; `Tiny` is for this package's
/// tests (the headline cells of the figure matrix, short service runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// As declared in `BENCHMARK.json`.
    Full,
    /// Seconds-long smoke size.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Benchmark name whose simulations panic, or `*` for all — the
    /// `EMCC_FORCE_PANIC` hook.
    pub force_panic: Option<String>,
    /// Fail every n-th journal append of the service (0 = never).
    pub fail_appends_every: u64,
    /// Directory for service files, spans and the host record.
    pub work_dir: PathBuf,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Simulations or service operations attempted.
    pub attempted: u64,
    /// Of those, panicked simulations or failed/refused operations.
    pub failed: u64,
    /// The reported metrics, completed by [`run`] to the declared set.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub spans: Option<trace::Collected>,
}

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("mem_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 79] = [
    ("workloads.build_ms", "ms"),
    ("workloads.next_op_calls", "count"),
    ("workloads.next_op_ns", "ns"),
    ("core.new_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.host_ns_per_mem_op", "ns"),
    ("core.mem_ops", "count"),
    ("core.instructions", "count"),
    ("core.sim_elapsed_ns", "sim_ns"),
    ("core.xpt_forwards", "count"),
    ("core.xpt_wasted", "count"),
    ("cache.l1_hits", "count"),
    ("cache.l2_accesses", "count"),
    ("cache.l2_data_misses", "count"),
    ("cache.llc_data_hits", "count"),
    ("cache.llc_data_misses", "count"),
    ("cache.prefetches", "count"),
    ("cache.insert_touch_ns", "ns"),
    ("sim.queue_push_pop_ns", "ns"),
    ("noc.ctr_reqs_to_llc", "count"),
    ("noc.latency_lookup_ns", "ns"),
    ("secmem.ctr_from_l2", "count"),
    ("secmem.ctr_from_mc", "count"),
    ("secmem.ctr_from_llc", "count"),
    ("secmem.ctr_from_dram", "count"),
    ("secmem.decrypted_at_l2", "count"),
    ("secmem.decrypted_at_mc", "count"),
    ("secmem.l2_ctr_invalidations", "count"),
    ("counters.overflows_l0", "count"),
    ("counters.overflows_higher", "count"),
    ("counters.overflow_stalls", "count"),
    ("counters.morphable_encode_ns", "ns"),
    ("counters.morphable_decode_ns", "ns"),
    ("dram.data_reads", "count"),
    ("dram.writebacks", "count"),
    ("dram.row_hits", "count"),
    ("dram.row_conflicts", "count"),
    ("dram.enqueue_pump_ns", "ns"),
    ("crit.l2_lookup_ns", "sim_ns"),
    ("crit.noc_ns", "sim_ns"),
    ("crit.llc_lookup_ns", "sim_ns"),
    ("crit.mc_queue_ns", "sim_ns"),
    ("crit.dram_row_hit_ns", "sim_ns"),
    ("crit.dram_row_miss_ns", "sim_ns"),
    ("crit.ctr_fetch_ns", "sim_ns"),
    ("crit.aes_ns", "sim_ns"),
    ("crit.verify_ns", "sim_ns"),
    ("crit.other_ns", "sim_ns"),
    ("crypto.aes_block_ns", "ns"),
    ("crypto.encrypt_line_ns", "ns"),
    ("crypto.mac_line_ns", "ns"),
    ("secmem.functional_write_ns", "ns"),
    ("secmem.functional_read_ns", "ns"),
    ("service.backend_append_ns", "ns"),
    ("service.backend_append_calls", "count"),
    ("service.journal_bytes_per_write", "bytes"),
    ("service.checkpoint_ms", "ms"),
    ("service.checkpoints", "count"),
    ("service.recover_replayed_records", "count"),
    ("service.recover_reverified_lines", "count"),
    ("service.overhead_ns", "ns"),
    ("service.overloaded", "count"),
    ("service.retries", "count"),
    ("service.rollbacks", "count"),
    ("service.verify_failures", "count"),
    ("service.write_p50_us", "us"),
    ("service.write_p99_us", "us"),
    ("service.guarded_p50_us", "us"),
    ("service.guarded_p99_us", "us"),
    ("service.read_p50_us", "us"),
    ("service.read_p99_us", "us"),
    ("service.recover_s", "s"),
    ("self.bench_ms", "ms"),
    ("self.workloads_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.service_ms", "ms"),
    ("self.backend_ms", "ms"),
    ("self.recover_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Span names summed into each `self.*_ms` metric.
const SELF_GROUPS: [(&str, &[&str]); 6] = [
    ("self.bench_ms", &["sim"]),
    (
        "self.workloads_ms",
        &["workloads.build", "workloads.next_op"],
    ),
    ("self.core_ms", &["core.new", "core.run"]),
    (
        "self.service_ms",
        &["svc.setup", "svc.write", "svc.guarded", "svc.read"],
    ),
    (
        "self.backend_ms",
        &[
            "backend.append",
            "backend.checkpoint",
            "backend.truncate",
            "backend.read_journal",
            "backend.read_checkpoint",
        ],
    ),
    ("self.recover_ms", &["svc.recover"]),
];

/// Runs one workload and returns its outcome with exactly the declared
/// metrics of its mode.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = match opts.workload {
        Workload::FiguresTest => sims::run(opts),
        Workload::SvcDurable => svc::run(opts),
    };
    if opts.trace {
        // Primitive costs do not depend on the workload: every traced run
        // measures them.
        kernels::measure(&mut out.metrics);
        if out.metrics.get("secmem.functional_write_ns").is_none() {
            let (w, r) = svc::functional_ns(0x5E4B ^ opts.seed);
            out.metrics.put("secmem.functional_write_ns", w, "ns");
            out.metrics.put("secmem.functional_read_ns", r, "ns");
        }
        if let Some(spans) = &out.spans {
            for (metric, names) in SELF_GROUPS {
                let ns: u64 = names.iter().map(|n| spans.total(n).self_ns).sum();
                out.metrics.put(metric, ns as f64 / 1e6, "ms");
            }
        }
    }
    let declared: &[(&str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut complete = Metrics::default();
    for &(name, unit) in declared {
        complete.put(name, out.metrics.get(name).unwrap_or(0.0), unit);
    }
    for m in out.metrics.iter() {
        assert!(
            complete.get(&m.name).is_some(),
            "metric {} is not declared",
            m.name
        );
    }
    out.metrics = complete;
    out
}
