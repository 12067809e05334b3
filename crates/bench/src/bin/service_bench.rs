//! Multi-threaded throughput benchmark for the secure-memory service.
//!
//! ```text
//! service_bench [--smoke] [--threads LIST] [--ops N] [--out FILE]
//! ```
//!
//! Each configured thread count runs a fresh [`SecureMemoryService`] over
//! an [`InMemoryBackend`]: every thread replays a deterministic script of
//! batched writes, guarded writes and batched reads against its own
//! stripe of the line space (`line % threads == t`), so adjacent lines —
//! and therefore shared counter blocks — are contended across threads
//! while per-line values stay trivially checkable. Wall-clock ops/sec
//! per thread count lands in `BENCH_service.json` (`--out` overrides).
//!
//! `--smoke` shrinks the op count and thread list for CI. Exit 2 is
//! reserved for usage and output errors; a read-back mismatch panics
//! (exit 101).

use std::path::PathBuf;
use std::time::Instant;

use emcc::counters::CounterDesign;
use emcc::crypto::DataBlock;
use emcc::secmem::service::InMemoryBackend;
use emcc::secmem::{MemoryAdt, SecureMemoryService, SecurityScheme, ServiceConfig, ServiceError};
use emcc::sim::rng::{mix64, GOLDEN_GAMMA};
use emcc::sim::LineAddr;
use emcc_bench::json::Obj;

/// Benchmark seed: scripts are reproducible bit-for-bit.
const SEED: u64 = 0x5E4B;

/// Line space per service instance.
const LINES: u64 = 1 << 14;

struct Args {
    threads: Vec<usize>,
    ops: u64,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!("usage: service_bench [--smoke] [--threads LIST] [--ops N] [--out FILE]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: vec![1, 2, 4, 8],
        ops: 20_000,
        out: PathBuf::from("BENCH_service.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--smoke" => {
                args.threads = vec![1, 4];
                args.ops = 2_000;
            }
            "--threads" => {
                args.threads = value("a comma-separated list")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.threads.is_empty() || args.threads.contains(&0) {
                    usage()
                }
            }
            "--ops" => args.ops = value("a count").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = PathBuf::from(value("a path")),
            _ => usage(),
        }
    }
    args
}

fn block(v: u64) -> DataBlock {
    DataBlock::from_words([v; 8])
}

/// Thread `t` of `n` owns the interleaved stripe `{ l | l % n == t }`, so
/// counter blocks are shared across threads while ownership stays
/// disjoint (guards are authoritative without cross-thread coordination).
fn owned_line(thread: u64, n: u64, r: u64) -> LineAddr {
    LineAddr::new((r % (LINES / n)) * n + thread)
}

/// Retries `f` past backpressure; returns the result plus how many
/// `Overloaded` rejections were absorbed.
fn with_retry<T>(mut f: impl FnMut() -> Result<T, ServiceError>) -> (T, u64) {
    let mut rejected = 0;
    loop {
        match f() {
            Ok(v) => return (v, rejected),
            Err(ServiceError::Overloaded { .. }) => {
                rejected += 1;
                std::thread::yield_now();
            }
            Err(e) => panic!("service error: {e}"),
        }
    }
}

/// One measured cell: `threads` workers, `ops` operations each.
struct Cell {
    threads: usize,
    total_ops: u64,
    seconds: f64,
    ops_per_sec: f64,
    overloaded_absorbed: u64,
    service_retries: u64,
}

/// Runs one thread's deterministic script: 60% single-line batch writes,
/// 20% guarded writes (guard = the thread's own last value), 20% batched
/// reads checked against the thread's model.
fn run_thread(svc: &SecureMemoryService<InMemoryBackend>, thread: u64, n: u64, ops: u64) -> u64 {
    let mut last: std::collections::HashMap<LineAddr, DataBlock> = Default::default();
    let mut absorbed = 0;
    for i in 0..ops {
        let r =
            mix64((SEED ^ thread.wrapping_mul(0x9049).wrapping_add(i)).wrapping_add(GOLDEN_GAMMA));
        let line = owned_line(thread, n, r >> 16);
        let val = block(r);
        match r % 10 {
            0..=5 => {
                let (_, rej) = with_retry(|| svc.batch_write(&[(line, val)]));
                absorbed += rej;
                last.insert(line, val);
            }
            6 | 7 => {
                let guard = last.get(&line).copied();
                let (seen, rej) = with_retry(|| svc.guarded_write((line, guard), &[(line, val)]));
                absorbed += rej;
                assert_eq!(seen, guard, "line {line:?}: foreign write on owned stripe");
                last.insert(line, val);
            }
            _ => {
                let addrs: Vec<LineAddr> = (0..4)
                    .map(|k| owned_line(thread, n, (r >> 16) + k))
                    .collect();
                let (got, rej) = with_retry(|| svc.batch_read(&addrs));
                absorbed += rej;
                for (addr, g) in addrs.iter().zip(&got) {
                    assert_eq!(
                        g.as_ref(),
                        last.get(addr),
                        "line {addr:?}: read-back mismatch"
                    );
                }
            }
        }
    }
    absorbed
}

fn run_cell(threads: usize, ops: u64) -> Cell {
    let cfg = ServiceConfig {
        max_in_flight: threads * 2,
        ..ServiceConfig::default()
    };
    let svc = SecureMemoryService::with_design(
        InMemoryBackend::new(),
        SEED,
        LINES,
        CounterDesign::Morphable,
        cfg,
    );
    let t0 = Instant::now();
    let absorbed: u64 = std::thread::scope(|s| {
        let svc = &svc;
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || run_thread(svc, t as u64, threads as u64, ops)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    let seconds = t0.elapsed().as_secs_f64();
    let total_ops = ops * threads as u64;
    let stats = svc.stats();
    Cell {
        threads,
        total_ops,
        seconds,
        ops_per_sec: total_ops as f64 / seconds.max(1e-9),
        overloaded_absorbed: absorbed,
        service_retries: stats.retries,
    }
}

fn bench_json(ops: u64, cells: &[Cell]) -> Obj {
    let results = cells.iter().map(|c| {
        Obj::new()
            .num("threads", c.threads)
            .num("total_ops", c.total_ops)
            .fixed("seconds", c.seconds, 3)
            .fixed("ops_per_sec", c.ops_per_sec, 0)
            .num("overloaded_absorbed", c.overloaded_absorbed)
            .num("service_retries", c.service_retries)
    });
    Obj::new()
        .str("backend", "in-memory")
        .str("scheme", &SecurityScheme::Emcc.to_string())
        .num("data_lines", LINES)
        .num("ops_per_thread", ops)
        .rows("results", results)
}

fn main() {
    let args = parse_args();
    let mut cells = Vec::new();
    for &threads in &args.threads {
        let cell = run_cell(threads, args.ops);
        println!(
            "{:>2} thread(s): {:>10.0} ops/s ({} ops in {:.3}s, {} rejections absorbed)",
            cell.threads, cell.ops_per_sec, cell.total_ops, cell.seconds, cell.overloaded_absorbed
        );
        cells.push(cell);
    }
    if let Err(e) = std::fs::write(&args.out, bench_json(args.ops, &cells).render()) {
        eprintln!("error: cannot write {}: {e}", args.out.display());
        std::process::exit(2);
    }
    println!("wrote {}", args.out.display());
}
