//! The `svc-durable` workload: `SecureMemoryService` over `FileBackend`.
//!
//! Two closed-loop clients (each sends its next op only when the last one
//! returned) replay the `service_bench` mix — 60 % single-line batch
//! writes, 20 % guarded writes, 20 % 4-line batch reads — on interleaved
//! stripes, so they share counter blocks but never a line. Every read is
//! checked against the issuing client's model. The run then checkpoints,
//! appends a fixed tail of writes, restarts through `recover()` and reads
//! every line back, so an acknowledged write that is lost fails the run.
//!
//! The backend sits under a [`Probe`] decorator that counts journal and
//! checkpoint traffic and, when tracing, opens a span per backend call.
//! `FileBackend` never fsyncs: the numbers are page-cache numbers.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use emcc::counters::CounterDesign;
use emcc::crypto::DataBlock;
use emcc::secmem::service::{
    recover, BackendError, FileBackend, MemoryAdt, Region, SecureMemoryService, ServiceConfig,
    ServiceError, StorageBackend,
};
use emcc::secmem::FunctionalSecureMemory;
use emcc::sim::LineAddr;

use crate::metrics::{median, ratio, LogHistogram, Metrics};
use crate::{peak_rss_mb, trace, Opts, Outcome, Size};

/// Line space of the service.
const LINES: u64 = 1 << 14;
/// Closed-loop clients.
const CLIENTS: u64 = 2;
/// Acknowledged writes between automatic checkpoints.
const CHECKPOINT_EVERY: u64 = 16_384;
/// Slices of the closed loop; a set-up batch runs before the first slice
/// and after each.
const SLICES: u32 = 20;
/// Service constructions per set-up batch; `setup_s` is the median over
/// the batches of their mean construction time.
const SETUP_PER_BATCH: usize = 200;
/// Restarts per run; `recover_s` is their median.
const RECOVER_REPS: usize = 3;

fn tail_writes(size: Size) -> u64 {
    match size {
        Size::Full => 10_000,
        Size::Tiny => 200,
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Client `c` owns the stripe `{ l | l % CLIENTS == c }`.
fn owned_line(c: u64, r: u64) -> LineAddr {
    LineAddr::new((r % (LINES / CLIENTS)) * CLIENTS + c)
}

/// One client operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(LineAddr, DataBlock),
    Guarded(LineAddr, DataBlock),
    Read([LineAddr; 4]),
}

const WRITE: usize = 0;
const GUARDED: usize = 1;
const READ: usize = 2;
const KINDS: [&str; 3] = ["write", "guarded", "read"];

impl Op {
    /// The `i`-th op of client `c`'s script (the `service_bench` mix).
    fn script(seed: u64, c: u64, i: u64) -> Op {
        let r = mix(seed ^ c.wrapping_mul(0x9049).wrapping_add(i));
        let line = owned_line(c, r >> 16);
        let val = DataBlock::from_words([r; 8]);
        match r % 10 {
            0..=5 => Op::Write(line, val),
            6 | 7 => Op::Guarded(line, val),
            _ => Op::Read(std::array::from_fn(|k| owned_line(c, (r >> 16) + k as u64))),
        }
    }

    fn kind(&self) -> usize {
        match self {
            Op::Write(..) => WRITE,
            Op::Guarded(..) => GUARDED,
            Op::Read(..) => READ,
        }
    }

    /// Lines read or written.
    fn lines(&self) -> u64 {
        match self {
            Op::Write(..) => 1,
            Op::Guarded(..) => 2,
            Op::Read(a) => a.len() as u64,
        }
    }
}

/// Counting (and, when tracing, timing) decorator over a backend; can
/// fail every n-th append to exercise the service's failure paths.
#[derive(Debug)]
pub struct Probe<B> {
    inner: B,
    fail_every: u64,
    /// Journal appends attempted.
    pub appends: u64,
    /// Bytes of successful appends.
    pub append_bytes: u64,
    /// Checkpoint images installed.
    pub checkpoints: u64,
}

impl<B> Probe<B> {
    /// Wraps `inner`; `fail_every == 0` never fails.
    pub fn new(inner: B, fail_every: u64) -> Self {
        Probe {
            inner,
            fail_every,
            appends: 0,
            append_bytes: 0,
            checkpoints: 0,
        }
    }
}

impl<B: StorageBackend> StorageBackend for Probe<B> {
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), BackendError> {
        let _s = trace::span("backend.append");
        self.appends += 1;
        if self.fail_every > 0 && self.appends.is_multiple_of(self.fail_every) {
            return Err(BackendError::Io("injected append failure".into()));
        }
        self.inner.append_journal(bytes)?;
        self.append_bytes += bytes.len() as u64;
        Ok(())
    }

    fn journal_bytes(&self) -> Result<Vec<u8>, BackendError> {
        let _s = trace::span("backend.read_journal");
        self.inner.journal_bytes()
    }

    fn truncate_journal(&mut self) -> Result<(), BackendError> {
        let _s = trace::span("backend.truncate");
        self.inner.truncate_journal()
    }

    fn install_checkpoint(&mut self, bytes: &[u8]) -> Result<(), BackendError> {
        let _s = trace::span("backend.checkpoint");
        self.inner.install_checkpoint(bytes)?;
        self.checkpoints += 1;
        Ok(())
    }

    fn checkpoint_bytes(&self) -> Result<Option<Vec<u8>>, BackendError> {
        let _s = trace::span("backend.read_checkpoint");
        self.inner.checkpoint_bytes()
    }

    fn corrupt_byte(
        &mut self,
        region: Region,
        offset: usize,
        xor: u8,
    ) -> Result<bool, BackendError> {
        self.inner.corrupt_byte(region, offset, xor)
    }
}

type Service = SecureMemoryService<Probe<FileBackend>>;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        ..ServiceConfig::default()
    }
}

fn open_service(dir: &Path, seed: u64, fail_every: u64) -> Result<Service, String> {
    let backend = FileBackend::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    Ok(SecureMemoryService::with_design(
        Probe::new(backend, fail_every),
        seed,
        LINES,
        CounterDesign::Morphable,
        service_config(),
    ))
}

/// What one client saw.
#[derive(Default)]
struct Client {
    model: HashMap<LineAddr, DataBlock>,
    /// Host latency per op kind.
    lat: [LogHistogram; 3],
    attempted: u64,
    failed: u64,
    lines: u64,
    errors: Vec<String>,
}

impl Client {
    /// Issues `op`, checks what came back, and updates the model.
    fn issue(&mut self, svc: &Service, op: Op) {
        self.attempted += 1;
        let t = Instant::now();
        let result: Result<(), ServiceError> = {
            let _s = trace::span(["svc.write", "svc.guarded", "svc.read"][op.kind()]);
            match op {
                Op::Write(line, val) => svc.batch_write(&[(line, val)]).map(|_| {
                    self.model.insert(line, val);
                }),
                Op::Guarded(line, val) => {
                    let guard = self.model.get(&line).copied();
                    svc.guarded_write((line, guard), &[(line, val)])
                        .map(|seen| {
                            if seen != guard {
                                self.errors
                                    .push(format!("{line:?}: guard saw a foreign value"));
                            }
                            self.model.insert(line, val);
                        })
                }
                Op::Read(addrs) => svc.batch_read(&addrs).map(|got| {
                    for (a, g) in addrs.iter().zip(got) {
                        if g.as_ref() != self.model.get(a) {
                            self.errors
                                .push(format!("{a:?}: read does not match the model"));
                        }
                    }
                }),
            }
        };
        let ns = t.elapsed().as_nanos() as u64;
        match result {
            Ok(()) => {
                self.lat[op.kind()].add(ns);
                self.lines += op.lines();
            }
            Err(e) => {
                self.failed += 1;
                if matches!(e, ServiceError::Corruption(_)) {
                    self.errors.push(format!("verification failed: {e}"));
                }
            }
        }
    }
}

/// One service lifetime: construct, closed loop, restart, read back.
struct Segment {
    secs: f64,
    setups: Vec<f64>,
    clients: Vec<Client>,
    /// The post-window writes recovery replays.
    tail: Client,
    recovers: Vec<f64>,
    replayed: u64,
    reverified: u64,
    stats: emcc::secmem::service::StatsSnapshot,
    appends: u64,
    append_bytes: u64,
    checkpoints: u64,
    errors: Vec<String>,
}

impl Segment {
    fn ops(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted - c.failed).sum()
    }

    /// Latencies of one kind, or of all kinds with `None`.
    fn latencies(&self, kind: Option<usize>) -> LogHistogram {
        let mut h = LogHistogram::default();
        for c in &self.clients {
            for (k, l) in c.lat.iter().enumerate() {
                if kind.is_none_or(|x| x == k) {
                    h.merge(l);
                }
            }
        }
        h
    }

    fn run(opts: &Opts, dir: &Path, seconds: f64, traced: bool) -> Result<Segment, String> {
        let seed = 0x5E4B ^ opts.seed;
        let fail = opts.fail_appends_every;
        trace::set_enabled(traced);
        // Set-up opens an existing, empty store: creating a directory
        // costs more than the whole construction on some file systems and
        // slows down as the file system ages, which would swamp it.
        let store = dir.join("setup");
        std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
        let set_up = || -> Result<f64, String> {
            let mut ns = 0;
            for _ in 0..SETUP_PER_BATCH {
                let t = Instant::now();
                let svc = trace::in_span("svc.setup", || open_service(&store, seed, fail))?;
                ns += t.elapsed().as_nanos() as u64;
                drop(svc);
            }
            Ok(ns as f64 / 1e9 / SETUP_PER_BATCH as f64)
        };

        // The closed loop runs in slices with a set-up batch before the
        // first and after each: the host's speed drifts over seconds, so
        // batches spread over the run see the same mix of its states as
        // the clients do.
        let svc = open_service(&dir.join("svc"), seed, fail)?;
        let mut setups = vec![set_up()?];
        let mut clients: Vec<Client> = (0..CLIENTS).map(|_| Client::default()).collect();
        let mut secs = 0.0;
        let slice = Duration::from_secs_f64(seconds / SLICES as f64);
        for _ in 0..SLICES {
            let t = Instant::now();
            let deadline = t + slice;
            std::thread::scope(|s| {
                for (c, client) in (0..CLIENTS).zip(clients.iter_mut()) {
                    let svc = &svc;
                    s.spawn(move || {
                        while Instant::now() < deadline {
                            client.issue(svc, Op::script(seed, c, client.attempted));
                        }
                        trace::flush_thread();
                    });
                }
            });
            secs += t.elapsed().as_secs_f64();
            setups.push(set_up()?);
        }

        // A fixed journal for the restart: checkpoint, then a tail of
        // writes recovery must replay.
        let mut errors = Vec::new();
        if let Err(e) = svc.checkpoint() {
            errors.push(format!("checkpoint: {e}"));
        }
        // The tail runs outside the measured window: its ops count as
        // attempted but carry no latency or throughput.
        let mut tail = Client {
            model: std::mem::take(&mut clients[0].model),
            ..Client::default()
        };
        for j in 0..tail_writes(opts.size) {
            let r = mix(seed ^ 0x7A11_0000 ^ j);
            tail.issue(
                &svc,
                Op::Write(owned_line(0, r >> 16), DataBlock::from_words([r; 8])),
            );
        }
        let tail_acked = tail.attempted - tail.failed;
        clients[0].model = std::mem::take(&mut tail.model);
        let stats = svc.stats();
        let mut backend = svc.into_backend();
        let (appends, append_bytes, checkpoints) =
            (backend.appends, backend.append_bytes, backend.checkpoints);
        if checkpoints != stats.checkpoints {
            errors.push(format!(
                "backend saw {checkpoints} checkpoints, service counted {}",
                stats.checkpoints
            ));
        }
        if stats.verify_failures != 0 {
            errors.push(format!("{} verification failures", stats.verify_failures));
        }

        let mut recovers = Vec::new();
        let mut recovered = None;
        for _ in 0..RECOVER_REPS {
            let t = Instant::now();
            let (svc, report) = trace::in_span("svc.recover", || {
                recover(
                    backend,
                    seed,
                    LINES,
                    CounterDesign::Morphable,
                    service_config(),
                )
            })
            .map_err(|e| format!("recover: {e}"))?;
            recovers.push(t.elapsed().as_secs_f64());
            backend = svc.into_backend();
            recovered = Some(report);
        }
        let report = recovered.expect("at least one restart");
        if report.replayed_records as u64 != tail_acked
            || report.degraded
            || !report.quarantined.is_empty()
        {
            errors.push(format!(
                "recovery replayed {} of {tail_acked} tail records (degraded {}, {} quarantined)",
                report.replayed_records,
                report.degraded,
                report.quarantined.len()
            ));
        }
        let (svc, _) = recover(
            backend,
            seed,
            LINES,
            CounterDesign::Morphable,
            service_config(),
        )
        .map_err(|e| format!("recover: {e}"))?;
        let all: Vec<LineAddr> = (0..LINES).map(LineAddr::new).collect();
        for chunk in all.chunks(64) {
            let got = svc
                .batch_read(chunk)
                .map_err(|e| format!("read-back: {e}"))?;
            for (a, g) in chunk.iter().zip(got) {
                if g.as_ref() != clients[(a.get() % CLIENTS) as usize].model.get(a) {
                    errors.push(format!("{a:?}: acknowledged write lost across restart"));
                }
            }
        }
        trace::set_enabled(false);
        for c in clients.iter_mut().chain([&mut tail]) {
            errors.append(&mut c.errors);
        }
        errors.truncate(20);
        Ok(Segment {
            secs,
            setups,
            clients,
            tail,
            recovers,
            replayed: report.replayed_records as u64,
            reverified: report.reverified_lines as u64,
            stats,
            appends,
            append_bytes,
            checkpoints,
            errors,
        })
    }
}

/// Mean ns per line of client 0's script on a bare
/// `FunctionalSecureMemory`: (write, read).
pub(crate) fn functional_ns(seed: u64) -> (f64, f64) {
    let mut mem = FunctionalSecureMemory::with_design(seed, LINES, CounterDesign::Morphable);
    let (mut w, mut wn, mut r, mut rn) = (0u64, 0u64, 0u64, 0u64);
    let t_all = Instant::now();
    let mut i = 0;
    while t_all.elapsed() < Duration::from_millis(300) || wn == 0 || rn == 0 {
        let op = Op::script(seed, 0, i);
        i += 1;
        let (line, val) = match op {
            Op::Write(l, v) | Op::Guarded(l, v) => (l, v),
            Op::Read(addrs) => {
                for a in addrs.into_iter().filter(|a| mem.raw(*a).is_some()) {
                    let t = Instant::now();
                    std::hint::black_box(mem.read_checked(a).expect("bare memory verifies"));
                    r += t.elapsed().as_nanos() as u64;
                    rn += 1;
                }
                continue;
            }
        };
        let t = Instant::now();
        mem.write(line, val);
        w += t.elapsed().as_nanos() as u64;
        wn += 1;
    }
    (ratio(w as f64, wn as f64), ratio(r as f64, rn as f64))
}

fn add_segment_counts(out: &mut Outcome, seg: &Segment) {
    for c in seg.clients.iter().chain([&seg.tail]) {
        out.attempted += c.attempted;
        out.failed += c.failed;
    }
}

/// Runs `svc-durable`.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let dir = opts.work_dir.join(format!("svc-{}", std::process::id()));
    let result = run_in(opts, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        out.correct = false;
        out.notes.push(format!("CHECK FAILED: {e}"));
    }
    out
}

fn run_in(opts: &Opts, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = Segment::run(opts, &dir.join("plain"), seconds, false)?;
    add_segment_counts(out, &plain);
    let traced = if opts.trace {
        let seg = Segment::run(opts, &dir.join("traced"), seconds, true)?;
        add_segment_counts(out, &seg);
        Some(seg)
    } else {
        None
    };

    let all = plain.latencies(None);
    let mut e2e = Metrics::default();
    e2e.put(
        "throughput_per_s",
        ratio(plain.ops() as f64, plain.secs),
        "1/s",
    );
    let lines: u64 = plain.clients.iter().map(|c| c.lines).sum();
    e2e.put("mem_ops_per_s", ratio(lines as f64, plain.secs), "1/s");
    e2e.put("latency_p50_ms", all.percentile(0.5) / 1e6, "ms");
    e2e.put("latency_p95_ms", all.percentile(0.95) / 1e6, "ms");
    e2e.put("setup_s", median(&plain.setups), "s");
    e2e.put("peak_rss_mb", peak_rss_mb(), "MB");

    let mut by_kind = Metrics::default();
    let mut line = String::new();
    for (k, name) in KINDS.iter().enumerate() {
        let v = plain.latencies(Some(k));
        let (p50, p99) = (v.percentile(0.5) / 1e3, v.percentile(0.99) / 1e3);
        by_kind.put(format!("service.{name}_p50_us"), p50, "us");
        by_kind.put(format!("service.{name}_p99_us"), p99, "us");
        line += &format!(
            "{name}_p50_us = {p50:.2} us; {name}_p99_us = {p99:.2} us (n = {}); ",
            v.count()
        );
    }
    by_kind.put("service.recover_s", median(&plain.recovers), "s");
    out.notes.push(format!(
        "ops_per_s = {:.0} 1/s over {:.2} s with {CLIENTS} closed-loop clients; {line}recover_s = {:.4} s \
         ({} records, median of {RECOVER_REPS}); setup_s = {:.3e} s; failed_frac = {:.4}",
        ratio(plain.ops() as f64, plain.secs),
        plain.secs,
        median(&plain.recovers),
        plain.replayed,
        median(&plain.setups),
        ratio(out.failed as f64, out.attempted as f64)
    ));

    let mut errors: Vec<String> = plain.errors.clone();
    if let Some(seg) = &traced {
        errors.extend(seg.errors.iter().cloned());
        let spans = trace::take();
        let (fw, fr) = functional_ns(0x5E4B ^ opts.seed);
        let mut pl = Metrics::default();
        pl.put("secmem.functional_write_ns", fw, "ns");
        pl.put("secmem.functional_read_ns", fr, "ns");
        let append = spans.total("backend.append");
        let ckpt = spans.total("backend.checkpoint");
        pl.put(
            "service.backend_append_ns",
            ratio(append.total_ns as f64, append.count as f64),
            "ns",
        );
        pl.put("service.backend_append_calls", seg.appends as f64, "count");
        pl.put(
            "service.journal_bytes_per_write",
            ratio(seg.append_bytes as f64, seg.stats.writes as f64),
            "bytes",
        );
        pl.put(
            "service.checkpoint_ms",
            ratio(ckpt.total_ns as f64, ckpt.count as f64) / 1e6,
            "ms",
        );
        pl.put("service.checkpoints", seg.checkpoints as f64, "count");
        pl.put(
            "service.recover_replayed_records",
            seg.replayed as f64,
            "count",
        );
        pl.put(
            "service.recover_reverified_lines",
            seg.reverified as f64,
            "count",
        );
        let write = spans.total("svc.write");
        pl.put(
            "service.overhead_ns",
            ratio(write.self_ns as f64, write.count as f64) - fw,
            "ns",
        );
        let s = seg.stats;
        pl.put("service.overloaded", s.overloaded as f64, "count");
        pl.put("service.retries", s.retries as f64, "count");
        pl.put("service.rollbacks", s.rollbacks as f64, "count");
        pl.put("service.verify_failures", s.verify_failures as f64, "count");
        pl.extend(by_kind);
        pl.put(
            "trace.overhead_pct",
            (ratio(
                ratio(plain.ops() as f64, plain.secs),
                ratio(seg.ops() as f64, seg.secs),
            ) - 1.0)
                * 100.0,
            "%",
        );
        out.notes
            .push("host self time by span over the traced segment:".into());
        for (name, t) in &spans.totals {
            out.notes.push(format!(
                "  {name:<22} calls {:>9}  self {:>10.3} ms",
                t.count,
                t.self_ns as f64 / 1e6
            ));
        }
        out.spans = Some(spans);
        out.metrics = pl;
    } else {
        out.metrics = e2e;
    }
    out.correct = errors.is_empty();
    out.notes
        .extend(errors.into_iter().map(|e| format!("CHECK FAILED: {e}")));
    Ok(())
}
