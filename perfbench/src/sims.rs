//! The simulator workload `figures-test`.
//!
//! Untraced passes run every cell through `ExpParams::run`, the call
//! `run_all`'s harness makes per simulation, timing each call; the first
//! pass goes through `Harness::run` itself so the figures render from its
//! reports. The traced pass makes the calls `ExpParams::run` makes —
//! `Benchmark::build_scaled` (workloads), `SecureSystem::new` and
//! `run_with_warmup` (core and everything below it) — one by one inside
//! spans, with every `TraceSource` behind a timing decorator, and must
//! reproduce the untraced reports exactly; its host time is compared
//! with a plain pass run cell by cell alongside it. Simulated counts come
//! from the `SimReport`s. A traced run also simulates the paper's
//! headline cells once at Small scale, untimed, for their speedup.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use emcc::prelude::*;
use emcc::sim::trace::Component;
use emcc::sim::Rng64;
use emcc::workloads::kernels::GraphKernel;
use emcc::workloads::{MemOp, TraceSource};
use emcc_bench::{experiments, ExpParams, Harness, RunRequest};

use crate::metrics::{median, percentile, ratio, Digest, Metrics};
use crate::{peak_rss_mb, trace, Opts, Outcome, Size};

/// `run_all --smoke` output the `figures-test` matrix must reproduce.
const SNAPSHOT: &str = include_str!("../../crates/bench/tests/snapshots/run_all_smoke.txt");

/// Untraced passes per run at least; host-time metrics take each cell's
/// median time over the passes.
const MIN_PASSES: usize = 3;

/// A fixed list of simulations and the parameters they run under.
struct Matrix {
    cells: Vec<RunRequest>,
    params: ExpParams,
    /// Whether the cells are the complete `run_all` matrix, so the
    /// rendered figures can be compared with the committed snapshot.
    renders: bool,
}

/// The unique requests of `run_all`, in first-request order, at Test
/// scale. `Tiny` keeps only the headline cells, so the tests still run
/// the EMCC L2 path and the counter stream.
fn figures_matrix(size: Size) -> Matrix {
    let mut seen = std::collections::HashSet::new();
    let mut cells: Vec<RunRequest> = experiments::all_requests()
        .into_iter()
        .filter(|r| seen.insert(r.clone()))
        .collect();
    if size == Size::Tiny {
        let headline = headline_cells();
        cells.retain(|c| headline.contains(c));
    }
    Matrix {
        cells,
        params: ExpParams::for_scale(WorkloadScale::Test),
        renders: size == Size::Full,
    }
}

/// The paper's headline comparison: canneal, mcf, omnetpp and BFS under
/// the Morphable ctr-in-LLC baseline and EMCC, as `(bench, [ctr, emcc])`.
fn headline() -> [(Benchmark, [RunRequest; 2]); 4] {
    [
        Benchmark::Canneal,
        Benchmark::Mcf,
        Benchmark::Omnetpp,
        Benchmark::Graph(GraphKernel::Bfs),
    ]
    .map(|b| {
        (
            b,
            [SecurityScheme::CtrInLlc, SecurityScheme::Emcc]
                .map(|s| RunRequest::new(b, SystemConfig::table_i(s))),
        )
    })
}

/// The eight cells of [`headline`].
fn headline_cells() -> Vec<RunRequest> {
    headline()
        .into_iter()
        .flat_map(|(_, cells)| cells)
        .collect()
}

/// A seeded permutation of `0..n`: the order a pass runs its cells in.
///
/// The matrix is fixed by the figures, so the seed permutes the run
/// order rather than the inputs, and host-time spread reflects the host,
/// not a change of inputs. Each untraced pass of a run uses its own order, and all must
/// produce the same reports.
fn run_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng64::new(seed ^ 0x0BE4_C4ED);
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Counts `next_op` calls and their host time; hands the totals to the
/// enclosing span when the simulation drops its sources.
struct TimedSource {
    inner: Box<dyn TraceSource>,
    calls: u64,
    ns: u64,
}

impl TraceSource for TimedSource {
    fn next_op(&mut self) -> MemOp {
        let t = Instant::now();
        let op = self.inner.next_op();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl Drop for TimedSource {
    fn drop(&mut self) {
        trace::leaf("workloads.next_op", self.calls, self.ns);
    }
}

/// Turns a caught panic into its message.
fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Runs `f` for one cell, honouring the `EMCC_FORCE_PANIC` hook with the
/// meaning `ExpParams::run` gives it; a panic becomes `Err(message)`.
fn contained<T>(req: &RunRequest, force: Option<&str>, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if force.is_some_and(|f| f == "*" || f == req.bench.name()) {
            panic!("EMCC_FORCE_PANIC: simulated crash in {}", req.bench);
        }
        f()
    }))
    .map_err(panic_message)
}

/// `ExpParams::run`, one layer call per span, sources behind
/// [`TimedSource`].
fn run_traced(req: &RunRequest, p: &ExpParams) -> SimReport {
    let _sim = trace::span("sim");
    let sources = trace::in_span("workloads.build", || {
        req.bench
            .build_scaled(p.seed, req.cfg.cores, p.scale)
            .into_iter()
            .map(|inner| {
                Box::new(TimedSource {
                    inner,
                    calls: 0,
                    ns: 0,
                }) as Box<dyn TraceSource>
            })
            .collect()
    });
    let sys = trace::in_span("core.new", || SecureSystem::new(req.cfg.clone()));
    trace::in_span("core.run", || {
        sys.run_with_warmup(sources, p.warmup_ops, p.measure_ops)
    })
}

/// One completed simulation and its host time.
struct Done {
    /// Dropped once a later pass is checked, so peak RSS does not grow
    /// with the pass count.
    report: Option<SimReport>,
    ns: u64,
}

/// How a pass runs its cells.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Through a fresh figure harness, which keeps the reports (and
    /// leaks them: one harness per run keeps peak RSS independent of the
    /// pass count).
    Harness,
    /// Through `ExpParams::run`.
    Plain,
    /// Layer by layer inside spans.
    Traced,
}

/// One pass over the matrix in `order`.
struct Pass {
    /// Per cell (matrix order): the simulation, or `None` if it failed.
    done: Vec<Option<Done>>,
    failures: Vec<String>,
    /// Host time of the pass's simulations.
    secs: f64,
    /// The harness a [`Mode::Harness`] pass ran through.
    harness: Option<Harness>,
}

impl Pass {
    /// One pass per mode over the cells in `order`, the modes back to back
    /// for each cell, so every mode sees the same stretch of host time
    /// (the traced-vs-untraced overhead is then not a difference between
    /// two stretches).
    fn run(m: &Matrix, order: &[usize], modes: &[Mode], force: Option<&str>) -> Vec<Pass> {
        let mut passes: Vec<Pass> = modes
            .iter()
            .map(|&mode| Pass {
                done: (0..m.cells.len()).map(|_| None).collect(),
                failures: Vec::new(),
                secs: 0.0,
                harness: (mode == Mode::Harness).then(|| Harness::with_jobs(m.params, 1)),
            })
            .collect();
        for &i in order {
            let req = &m.cells[i];
            for (pass, &mode) in passes.iter_mut().zip(modes) {
                trace::set_enabled(mode == Mode::Traced);
                let t = Instant::now();
                let result = contained(req, force, || match (mode, &pass.harness) {
                    (Mode::Harness, Some(h)) => h.run(req.bench, req.cfg.clone()).clone(),
                    (Mode::Traced, _) => run_traced(req, &m.params),
                    _ => m.params.run(req.bench, req.cfg.clone()),
                });
                let ns = t.elapsed().as_nanos() as u64;
                trace::set_enabled(false);
                pass.secs += ns as f64 / 1e9;
                match result {
                    Ok(report) => {
                        pass.done[i] = Some(Done {
                            report: Some(report),
                            ns,
                        })
                    }
                    Err(e) => pass
                        .failures
                        .push(format!("{} / {}: {e}", req.bench, req.cfg.scheme)),
                }
            }
        }
        passes
    }

    fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.done.iter().flatten().filter_map(|d| d.report.as_ref())
    }

    fn complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Digest of every report's canonical JSON in matrix order.
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in self.reports() {
            d.update(r.canonical_json().as_bytes());
        }
        d.value()
    }

    /// Simulated memory operations, warm-up included.
    fn mem_ops(&self, m: &Matrix) -> u64 {
        self.done
            .iter()
            .zip(&m.cells)
            .filter_map(|(d, c)| {
                let r = d.as_ref()?.report.as_ref()?;
                Some(r.mem_ops + m.params.warmup_ops * c.cfg.cores as u64)
            })
            .sum()
    }

    /// Checks this pass against `first` — same report digest, every
    /// report's invariants — into `errors`, then drops its reports.
    fn check_and_shed(&mut self, first: &Pass, errors: &mut Vec<String>) {
        errors.extend(self.reports().filter_map(invariant_errors));
        if first.complete() && self.complete() && self.digest() != first.digest() {
            errors.push("report digests differ between passes".into());
        }
        for d in self.done.iter_mut().flatten() {
            d.report = None;
        }
    }
}

/// Builds every cell's workload and system without running it; returns
/// the seconds taken. Each sweep uses its own workload seed so cached
/// graphs never hide the build cost.
fn setup_sweep(m: &Matrix, rep: u64) -> f64 {
    let seed = m.params.seed ^ (rep << 32);
    let t = Instant::now();
    for c in &m.cells {
        let sources = c.bench.build_scaled(seed, c.cfg.cores, m.params.scale);
        let sys = SecureSystem::new(c.cfg.clone());
        std::hint::black_box((&sources, &sys));
    }
    t.elapsed().as_secs_f64()
}

/// Per-report invariants every simulation must satisfy.
fn invariant_errors(r: &SimReport) -> Option<String> {
    let bad = [
        ("crit_violations", r.crit_violations),
        ("shadow_mismatches", r.shadow_mismatches),
        ("integrity_unrecovered", r.integrity_unrecovered),
    ];
    let msg: Vec<String> = bad
        .iter()
        .filter(|(_, v)| *v != 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    (!msg.is_empty()).then(|| format!("{} / {}: {}", r.benchmark, r.scheme, msg.join(", ")))
}

/// Renders the figures exactly as `run_all --smoke` prints them.
fn render(h: &Harness) -> String {
    use experiments::*;
    let mut s = String::new();
    let p = h.params();
    let _ = writeln!(
        s,
        "EMCC reproduction: regenerating all figures at {:?} scale \
         ({} warmup + {} measured mem-ops/core)\n",
        p.scale, p.warmup_ops, p.measure_ops
    );
    let mut fig = |text: String| {
        s.push_str(&text);
        s.push('\n');
    };
    fig(timelines::render_all());
    fig(fig03::run().render());
    fig(fig02::run(h).render());
    fig(fig06_07::run_fig06(h).render());
    fig(fig06_07::run_fig07(h).render());
    let ec = emcc_ctr::run(h);
    fig(ec.fig11.render());
    fig(ec.fig12.render());
    fig(ec.fig23.render());
    fig(fig15::run(h).render());
    let rows = perf::run_suite(h);
    fig(format!(
        "{}headline: EMCC speeds up Morphable by {:.1}% on average (paper: 7%)\n",
        perf::fig16(&rows).render(),
        perf::mean_emcc_speedup(&rows) * 100.0
    ));
    fig(perf::fig17(&rows).render());
    fig(fig18::run(h).render());
    fig(fig19::run(h).render());
    fig(fig20::run(h).render());
    let ch = fig21_22::run(h);
    fig(ch.fig21.render());
    fig(ch.fig22.render());
    fig(fig24::run(h).render());
    fig(ablations::l2_budget(h).render());
    fig(ablations::aes_wait(h).render());
    fig(ablations::xpt(h).render());
    s.push_str(&race::figure(h).render());
    s
}

/// Renders every figure from a complete untraced pass and compares the
/// rendering with the committed snapshot. Returns the error, if any.
fn check_figures(pass: &Pass, dump: &std::path::Path) -> Option<String> {
    let out = render(
        pass.harness
            .as_ref()
            .expect("the first pass keeps its harness"),
    );
    if out == SNAPSHOT {
        return None;
    }
    let line = out
        .lines()
        .zip(SNAPSHOT.lines())
        .position(|(a, b)| a != b)
        .map_or_else(|| "length".to_string(), |n| format!("line {}", n + 1));
    let _ = std::fs::write(dump, &out);
    Some(format!(
        "figures differ from run_all_smoke.txt at {line} (rendering written to {})",
        dump.display()
    ))
}

/// Exact simulated counts, summed over a pass.
type Count = (&'static str, fn(&SimReport) -> u64);

const COUNTS: [Count; 25] = [
    ("core.mem_ops", |r| r.mem_ops),
    ("core.instructions", |r| r.instructions),
    ("core.xpt_forwards", |r| r.xpt_forwards),
    ("core.xpt_wasted", |r| r.xpt_wasted),
    ("cache.l1_hits", |r| r.l1_hits),
    ("cache.l2_accesses", |r| r.l2_accesses),
    ("cache.l2_data_misses", |r| r.l2_data_misses),
    ("cache.llc_data_hits", |r| r.llc_data_hits),
    ("cache.llc_data_misses", |r| r.llc_data_misses),
    ("cache.prefetches", |r| r.prefetches),
    ("noc.ctr_reqs_to_llc", |r| {
        r.l2_ctr_reqs_to_llc + r.mc_ctr_reqs_to_llc
    }),
    ("secmem.ctr_from_l2", |r| r.ctr_source[0]),
    ("secmem.ctr_from_mc", |r| r.ctr_source[1]),
    ("secmem.ctr_from_llc", |r| r.ctr_source[2]),
    ("secmem.ctr_from_dram", |r| r.ctr_source[3]),
    ("secmem.decrypted_at_l2", |r| r.decrypted_at_l2),
    ("secmem.decrypted_at_mc", |r| r.decrypted_at_mc),
    ("secmem.l2_ctr_invalidations", |r| r.l2_ctr_invalidations),
    ("counters.overflows_l0", |r| r.overflows_l0),
    ("counters.overflows_higher", |r| r.overflows_higher),
    ("counters.overflow_stalls", |r| r.overflow_stalls),
    ("dram.data_reads", |r| r.dram_data_reads),
    ("dram.writebacks", |r| r.writebacks),
    ("dram.row_hits", |r| r.dram.row_hits),
    ("dram.row_conflicts", |r| r.dram.row_conflicts),
];

/// The exact per-layer metrics of one pass.
fn exact_metrics(pass: &Pass) -> Metrics {
    let mut m = Metrics::default();
    for (name, get) in COUNTS {
        m.put(name, pass.reports().map(get).sum::<u64>() as f64, "count");
    }
    let elapsed_ps: u64 = pass.reports().map(|r| r.elapsed.as_ps()).sum();
    m.put("core.sim_elapsed_ns", elapsed_ps as f64 / 1e3, "sim_ns");
    let reads: u64 = pass.reports().map(|r| r.crit_path.accesses()).sum();
    for c in Component::ALL {
        let ps: u64 = pass.reports().map(|r| r.crit_path.sum_ps(c)).sum();
        m.put(
            format!("crit.{}_ns", c.label()),
            ratio(ps as f64, reads as f64) / 1e3,
            "sim_ns",
        );
    }
    m
}

/// EMCC over ctr-in-LLC for canneal, mcf, omnetpp and BFS at `scale`,
/// next to the paper's figures; `report` finds a cell's report.
fn speedup_notes<'a>(
    scale: WorkloadScale,
    report: impl Fn(&RunRequest) -> Option<&'a SimReport>,
) -> Vec<String> {
    let mut notes = vec![format!(
        "simulated EMCC speedup over Morphable ctr-in-LLC ({scale:?} scale, exact, not gated; \
         paper: 7% mean, 12.5% canneal; the model is otherwise unvalidated):"
    )];
    let mut speedups = Vec::new();
    for (b, [ctr, emcc]) in headline() {
        if let (Some(ctr), Some(emcc)) = (report(&ctr), report(&emcc)) {
            let s = ctr.elapsed.as_ns_f64() / emcc.elapsed.as_ns_f64() - 1.0;
            notes.push(format!("  {:<10} {:+6.2}%", b.name(), s * 100.0));
            speedups.push(s);
        }
    }
    if !speedups.is_empty() {
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        notes.push(format!("  {:<10} {:+6.2}%", "mean", mean * 100.0));
    }
    notes
}

/// Runs `figures-test`.
pub fn run(opts: &Opts) -> Outcome {
    let m = figures_matrix(opts.size);
    let force = opts.force_panic.as_deref();
    let mut out = Outcome::default();
    let mut errors = Vec::new();

    // The first set-up sweep also fills the graph cache the passes use.
    let mut setups = vec![setup_sweep(&m, 0)];
    let order = |k: usize| run_order(m.cells.len(), opts.seed.wrapping_add(k as u64));
    let t = Instant::now();
    let (mut passes, traced) = if opts.trace {
        // One pass per mode, interleaved cell by cell: the harness pass
        // renders the figures; the traced pass is compared with the plain
        // one, which makes the same calls untraced.
        let mut p = Pass::run(
            &m,
            &order(0),
            &[Mode::Harness, Mode::Plain, Mode::Traced],
            force,
        );
        let traced = p.pop().expect("three modes");
        let plain = p.pop().expect("three modes");
        (p, Some((plain, traced)))
    } else {
        (Pass::run(&m, &order(0), &[Mode::Harness], force), None)
    };
    if traced.is_none() {
        // Untraced passes: at least MIN_PASSES, more while the next one
        // still fits in the budget, with a set-up sweep after each.
        loop {
            setups.push(setup_sweep(&m, setups.len() as u64));
            let spent = t.elapsed().as_secs_f64();
            let last = passes.last().map_or(0.0, |p| p.secs);
            if passes.len() >= MIN_PASSES && spent + last > opts.seconds {
                break;
            }
            let mut p = Pass::run(&m, &order(passes.len()), &[Mode::Plain], force)
                .pop()
                .expect("one mode, one pass");
            p.check_and_shed(&passes[0], &mut errors);
            passes.push(p);
        }
    }
    let extra: Vec<&Pass> = traced.iter().flat_map(|(p, t)| [p, t]).collect();

    for p in passes.iter().chain(extra.iter().copied()) {
        out.attempted += m.cells.len() as u64;
        out.failed += p.failures.len() as u64;
        for f in &p.failures {
            out.notes.push(format!("FAILED sim: {f}"));
        }
        errors.extend(p.reports().filter_map(invariant_errors));
    }
    let first = &passes[0];
    let complete = passes
        .iter()
        .chain(extra.iter().copied())
        .all(|p| p.complete());
    if complete {
        let digest = first.digest();
        if extra.iter().any(|p| p.digest() != digest) {
            errors.push("traced or plain reports differ from the harness pass".into());
        }
        out.notes.push(format!(
            "report digest {digest:016x} over {} sims",
            m.cells.len()
        ));
        if m.renders {
            match check_figures(first, &opts.work_dir.join("figures-test.txt")) {
                None => out
                    .notes
                    .push("figures match crates/bench/tests/snapshots/run_all_smoke.txt".into()),
                Some(e) => errors.push(e),
            }
        }
    } else {
        out.notes
            .push("output checks that need every simulation were skipped".into());
    }
    out.notes.extend(speedup_notes(m.params.scale, |req| {
        let i = m.cells.iter().position(|c| c == req)?;
        first.done[i].as_ref()?.report.as_ref()
    }));
    if traced.is_some() && opts.size == Size::Full {
        // The headline cells once more at Small scale, where the counter
        // stream carries real work: exact reports for the speedup, not
        // timed.
        let small = ExpParams::for_scale(WorkloadScale::Small);
        let mut reports = Vec::new();
        for req in headline_cells() {
            out.attempted += 1;
            match contained(&req, force, || small.run(req.bench, req.cfg.clone())) {
                Ok(r) => {
                    errors.extend(invariant_errors(&r));
                    reports.push((req, r));
                }
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!(
                        "FAILED sim: {} / {} (Small scale): {e}",
                        req.bench, req.cfg.scheme
                    ));
                }
            }
        }
        out.notes.extend(speedup_notes(small.scale, |req| {
            reports.iter().find(|(c, _)| c == req).map(|(_, r)| r)
        }));
    }

    // End-to-end, from the untraced passes: each cell's median host time.
    let cell_ns: Vec<Option<f64>> = (0..m.cells.len())
        .map(|i| {
            let t: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.done[i].as_ref())
                .map(|d| d.ns as f64)
                .collect();
            (!t.is_empty()).then(|| median(&t))
        })
        .collect();
    let total_secs = cell_ns.iter().flatten().sum::<f64>() / 1e9;
    let mut sim_ms: Vec<f64> = cell_ns.iter().flatten().map(|ns| ns / 1e6).collect();
    sim_ms.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "{} untraced pass(es) of {} sims ({:.3?} s): {} per-sim medians; {} set-up sweep(s) ({:.3?} s)",
        passes.len(),
        m.cells.len(),
        passes.iter().map(|p| p.secs).collect::<Vec<_>>(),
        sim_ms.len(),
        setups.len(),
        setups
    ));
    let mut e2e = Metrics::default();
    e2e.put(
        "throughput_per_s",
        ratio(sim_ms.len() as f64, total_secs),
        "1/s",
    );
    e2e.put(
        "mem_ops_per_s",
        ratio(first.mem_ops(&m) as f64, total_secs),
        "1/s",
    );
    e2e.put("latency_p50_ms", percentile(&sim_ms, 0.5), "ms");
    e2e.put("latency_p95_ms", percentile(&sim_ms, 0.95), "ms");
    e2e.put("setup_s", median(&setups), "s");
    e2e.put("peak_rss_mb", peak_rss_mb(), "MB");

    if let Some((plain, tp)) = &traced {
        let spans = trace::take();
        let mut pl = Metrics::default();
        let build = spans.total("workloads.build");
        let next = spans.total("workloads.next_op");
        pl.put("workloads.build_ms", build.self_ns as f64 / 1e6, "ms");
        pl.put("workloads.next_op_calls", next.count as f64, "count");
        // Includes one clock read per call: `next_op` itself is too short
        // to time apart from the clock.
        pl.put(
            "workloads.next_op_ns",
            ratio(next.total_ns as f64, next.count as f64),
            "ns",
        );
        let run = spans.total("core.run");
        pl.put(
            "core.new_ms",
            spans.total("core.new").self_ns as f64 / 1e6,
            "ms",
        );
        pl.put("core.run_ms", run.self_ns as f64 / 1e6, "ms");
        pl.put(
            "core.host_ns_per_mem_op",
            ratio(run.self_ns as f64, tp.mem_ops(&m) as f64),
            "ns",
        );
        pl.extend(exact_metrics(first));
        pl.put(
            "trace.overhead_pct",
            (ratio(tp.secs, plain.secs) - 1.0) * 100.0,
            "%",
        );
        out.notes
            .push("host self time by span over the traced pass:".to_string());
        for (name, t) in &spans.totals {
            out.notes.push(format!(
                "  {name:<20} calls {:>10}  self {:>10.3} ms",
                t.count,
                t.self_ns as f64 / 1e6
            ));
        }
        out.spans = Some(spans);
        out.metrics = pl;
    } else {
        out.metrics = e2e.clone();
    }
    // The human report shows the end-to-end numbers under the names the
    // metric map uses for this workload, whichever mode ran.
    out.notes.push(format!(
        "sims_per_s = {:.4} 1/s; mem_ops_per_s = {:.0} 1/s; sim_ms_p50 = {:.3} ms; sim_ms_p95 = {:.3} ms (n = {}); \
         setup_s = {:.4} s; peak_rss_mb = {:.1} MB; failed_frac = {:.4}",
        e2e.get("throughput_per_s").unwrap_or(0.0),
        e2e.get("mem_ops_per_s").unwrap_or(0.0),
        e2e.get("latency_p50_ms").unwrap_or(0.0),
        e2e.get("latency_p95_ms").unwrap_or(0.0),
        sim_ms.len(),
        e2e.get("setup_s").unwrap_or(0.0),
        e2e.get("peak_rss_mb").unwrap_or(0.0),
        ratio(out.failed as f64, out.attempted as f64),
    ));
    out.correct = errors.is_empty();
    out.notes
        .extend(errors.into_iter().map(|e| format!("CHECK FAILED: {e}")));
    out
}
