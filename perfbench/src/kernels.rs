//! Primitive costs: the per-call host time of the substrate operations
//! every simulated event or service op is made of.
//!
//! Each kernel mirrors an entry of `crates/bench/benches/components.rs`
//! and reports the median ns per call over several timed batches. They
//! are independent of the workload, so every traced run measures them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use emcc::cache::{CacheConfig, SetAssocCache};
use emcc::counters::format::{decode_morphable, encode_morphable};
use emcc::counters::MorphFormat;
use emcc::crypto::{Aes128, BlockCipherKeys, DataBlock};
use emcc::dram::{Dram, DramConfig, DramRequest, RequestClass};
use emcc::noc::{Mesh, NocLatency};
use emcc::sim::{EventQueue, LineAddr, Rng64, Time};

use crate::metrics::{median, Metrics};

const BATCHES: usize = 7;
const MIN_BATCH: Duration = Duration::from_millis(2);

/// Median ns per call of `f` over [`BATCHES`] batches, each sized to
/// run at least [`MIN_BATCH`].
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters: u64 = 16;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= MIN_BATCH || iters >= 1 << 26 {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Measures every substrate kernel into `m`.
pub fn measure(m: &mut Metrics) {
    let aes = Aes128::new([7u8; 16]);
    assert_eq!(
        aes.encrypt([42u8; 16]),
        aes.encrypt_reference([42u8; 16]),
        "T-table and reference AES disagree"
    );
    m.put(
        "crypto.aes_block_ns",
        ns_per_call(|| {
            black_box(aes.encrypt(black_box([42u8; 16])));
        }),
        "ns",
    );

    let keys = BlockCipherKeys::from_seed(1);
    let plain = DataBlock::from_words([3; 8]);
    m.put(
        "crypto.encrypt_line_ns",
        ns_per_call(|| {
            black_box(keys.encrypt_block(black_box(0x40), black_box(9), &plain));
        }),
        "ns",
    );
    let cipher = keys.encrypt_block(0x40, 9, &plain);
    m.put(
        "crypto.mac_line_ns",
        ns_per_call(|| {
            black_box(keys.mac_block(black_box(0x40), black_box(9), &cipher));
        }),
        "ns",
    );

    let minors: [u16; 128] = std::array::from_fn(|i| (i % 8) as u16);
    m.put(
        "counters.morphable_encode_ns",
        ns_per_call(|| {
            black_box(encode_morphable(
                MorphFormat::Uniform3,
                5,
                black_box(&minors),
                0x99,
            ));
        }),
        "ns",
    );
    let bytes = encode_morphable(MorphFormat::Uniform3, 5, &minors, 0x99);
    assert!(decode_morphable(&bytes).is_some(), "morphable round trip");
    m.put(
        "counters.morphable_decode_ns",
        ns_per_call(|| {
            black_box(decode_morphable(black_box(&bytes)));
        }),
        "ns",
    );

    let mut cache: SetAssocCache<u8> = SetAssocCache::new(CacheConfig::new(1024 * 1024, 8));
    let mut rng = Rng64::new(3);
    m.put(
        "cache.insert_touch_ns",
        ns_per_call(|| {
            let a = LineAddr::new(rng.below(1 << 20));
            cache.insert(a, false, 0);
            black_box(cache.touch(a));
        }),
        "ns",
    );

    let mut q = EventQueue::with_capacity(1 << 14);
    let mut rng = Rng64::new(11);
    for _ in 0..10_000 {
        q.push(Time::from_ns(rng.below(1 << 20)), 0u64);
    }
    let mut now = Time::ZERO;
    m.put(
        "sim.queue_push_pop_ns",
        ns_per_call(|| {
            now += Time::from_ns(1);
            q.push(now + Time::from_ns(rng.below(1 << 10)), black_box(7u64));
            black_box(q.pop().expect("queue stays non-empty"));
        }),
        "ns",
    );

    let mesh = Mesh::xeon_w3175x();
    let lat = NocLatency::calibrated();
    let mut i = 0usize;
    m.put(
        "noc.latency_lookup_ns",
        ns_per_call(|| {
            i = (i + 1) % 28;
            black_box(lat.one_way(mesh.hops_core_to_core(i, 27 - i), true));
        }),
        "ns",
    );

    let mut dram = Dram::new(DramConfig::table_i(1));
    let mut rng = Rng64::new(5);
    let mut now = Time::ZERO;
    let mut id = 0u64;
    m.put(
        "dram.enqueue_pump_ns",
        ns_per_call(|| {
            id += 1;
            now += Time::from_ns(10);
            let line = LineAddr::new(rng.below(1 << 24));
            let _ = dram.enqueue(DramRequest::read(id, line, RequestClass::Data), now);
            black_box(dram.pump(now).completions.len());
        }),
        "ns",
    );
}
