//! Test-only reference for [`SetAssocCache`]: the straightforward layout
//! with one `Vec` of ways per set, and a differential test that drives it
//! and the flat array with the same seeded operation sequences.

use emcc_sim::{LineAddr, Rng64};

use crate::array::{CacheConfig, EvictedLine, SetAssocCache};

#[derive(Debug, Clone)]
struct Way<M> {
    addr: LineAddr,
    dirty: bool,
    meta: M,
    last_use: u64,
}

/// The per-set-`Vec` cache the flat array must behave exactly like.
struct VecSetCache<M> {
    config: CacheConfig,
    sets: Vec<Vec<Way<M>>>,
    clock: u64,
    resident: u64,
}

impl<M> VecSetCache<M> {
    fn new(config: CacheConfig) -> Self {
        let sets = (0..config.num_sets())
            .map(|_| Vec::with_capacity(config.ways() as usize))
            .collect();
        VecSetCache {
            config,
            sets,
            clock: 0,
            resident: 0,
        }
    }

    fn len(&self) -> u64 {
        self.resident
    }

    fn set_index(&self, addr: LineAddr) -> usize {
        (addr.get() & (self.config.num_sets() - 1)) as usize
    }

    fn touch(&mut self, addr: LineAddr) -> bool {
        self.get_mut(addr).is_some()
    }

    fn peek(&self, addr: LineAddr) -> Option<&M> {
        let set = &self.sets[self.set_index(addr)];
        set.iter().find(|w| w.addr == addr).map(|w| &w.meta)
    }

    fn is_dirty(&self, addr: LineAddr) -> Option<bool> {
        let set = &self.sets[self.set_index(addr)];
        set.iter().find(|w| w.addr == addr).map(|w| w.dirty)
    }

    fn get_mut(&mut self, addr: LineAddr) -> Option<&mut M> {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(addr);
        self.sets[idx].iter_mut().find(|w| w.addr == addr).map(|w| {
            w.last_use = clock;
            &mut w.meta
        })
    }

    fn mark_dirty(&mut self, addr: LineAddr) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(addr);
        match self.sets[idx].iter_mut().find(|w| w.addr == addr) {
            Some(w) => {
                w.dirty = true;
                w.last_use = clock;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, addr: LineAddr, dirty: bool, meta: M) -> Option<EvictedLine<M>> {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.config.ways() as usize;
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        if let Some(w) = set.iter_mut().find(|w| w.addr == addr) {
            w.dirty |= dirty;
            w.meta = meta;
            w.last_use = clock;
            return None;
        }
        let victim = if set.len() == ways {
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_use)
                .expect("set is full, victim exists");
            let w = set.swap_remove(vi);
            self.resident -= 1;
            Some(EvictedLine {
                addr: w.addr,
                dirty: w.dirty,
                meta: w.meta,
            })
        } else {
            None
        };
        set.push(Way {
            addr,
            dirty,
            meta,
            last_use: clock,
        });
        self.resident += 1;
        victim
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<EvictedLine<M>> {
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|w| w.addr == addr)?;
        let w = set.swap_remove(pos);
        self.resident -= 1;
        Some(EvictedLine {
            addr: w.addr,
            dirty: w.dirty,
            meta: w.meta,
        })
    }

    fn iter(&self) -> impl Iterator<Item = (LineAddr, bool, &M)> + '_ {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|w| (w.addr, w.dirty, &w.meta)))
    }

    fn lru_matching<F: Fn(LineAddr, &M) -> bool>(&self, pred: F) -> Option<LineAddr> {
        self.sets
            .iter()
            .flat_map(|s| s.iter())
            .filter(|w| pred(w.addr, &w.meta))
            .min_by_key(|w| w.last_use)
            .map(|w| w.addr)
    }
}

/// An address that usually lands in one of four hot sets, with tags from
/// a range three times the associativity, so sets fill, evict and refill.
fn pick_addr(rng: &mut Rng64, config: &CacheConfig) -> LineAddr {
    let sets = config.num_sets();
    let set = if rng.chance(0.9) {
        [0, 1, sets / 2, sets - 1][rng.index(4)]
    } else {
        rng.below(sets)
    };
    let tag = rng.below(u64::from(config.ways()) * 3 + 1);
    LineAddr::new(tag * sets + set)
}

/// Drives both caches with `steps` seeded random operations, comparing
/// every return value, `len()` and the full `iter()` order after each.
fn differential(name: &str, config: CacheConfig, seed: u64, steps: usize) {
    let mut flat: SetAssocCache<u32> = SetAssocCache::new(config);
    let mut reference: VecSetCache<u32> = VecSetCache::new(config);
    let mut rng = Rng64::new(seed);
    for step in 0..steps {
        let addr = pick_addr(&mut rng, &config);
        let op = rng.below(100);
        let what = match op {
            0..=29 => {
                let dirty = rng.chance(0.3);
                let meta = rng.below(8) as u32;
                assert_eq!(
                    flat.insert(addr, dirty, meta),
                    reference.insert(addr, dirty, meta),
                    "{name} step {step}"
                );
                "insert"
            }
            30..=44 => {
                assert_eq!(
                    flat.touch(addr),
                    reference.touch(addr),
                    "{name} step {step}"
                );
                "touch"
            }
            45..=54 => {
                let meta = rng.below(8) as u32;
                let a = flat.get_mut(addr).map(|m| std::mem::replace(m, meta));
                let b = reference.get_mut(addr).map(|m| std::mem::replace(m, meta));
                assert_eq!(a, b, "{name} step {step}");
                "get_mut"
            }
            55..=64 => {
                assert_eq!(
                    flat.mark_dirty(addr),
                    reference.mark_dirty(addr),
                    "{name} step {step}"
                );
                "mark_dirty"
            }
            65..=74 => {
                assert_eq!(
                    flat.invalidate(addr),
                    reference.invalidate(addr),
                    "{name} step {step}"
                );
                "invalidate"
            }
            75..=84 => {
                assert_eq!(flat.peek(addr), reference.peek(addr), "{name} step {step}");
                assert_eq!(flat.contains(addr), reference.peek(addr).is_some());
                "peek"
            }
            85..=92 => {
                assert_eq!(
                    flat.is_dirty(addr),
                    reference.is_dirty(addr),
                    "{name} step {step}"
                );
                "is_dirty"
            }
            _ => {
                let want = rng.below(8) as u32;
                assert_eq!(
                    flat.lru_matching(|_, &m| m == want),
                    reference.lru_matching(|_, &m| m == want),
                    "{name} step {step}"
                );
                "lru_matching"
            }
        };
        assert_eq!(
            flat.len(),
            reference.len(),
            "{name}: len after {what} at step {step}"
        );
        assert!(
            flat.iter().eq(reference.iter()),
            "{name}: iter order after {what} of {addr:?} at step {step}"
        );
    }
}

#[test]
fn flat_array_matches_per_set_vec_reference() {
    let shapes = [
        ("L1", CacheConfig::new(64 * 1024, 8)),
        ("L2", CacheConfig::new(1024 * 1024, 8)),
        ("LLC slice", CacheConfig::new(512 * 1024, 16)),
        ("MC cache", CacheConfig::new(128 * 1024, 32)),
        ("direct-mapped", CacheConfig::new(4 * 1024, 1)),
    ];
    for (i, (name, config)) in shapes.into_iter().enumerate() {
        for seed in 0..2u64 {
            differential(name, config, 0xCAC4E + 16 * i as u64 + seed, 4_000);
        }
    }
}
