//! Set-associative cache array with true-LRU replacement.

use emcc_sim::LineAddr;

/// Static shape of a cache: capacity and associativity over 64 B lines.
///
/// # Examples
///
/// ```
/// use emcc_cache::CacheConfig;
///
/// let l2 = CacheConfig::new(1024 * 1024, 8); // Table I: 1 MB, 8-way
/// assert_eq!(l2.num_sets(), 2048);
/// assert_eq!(l2.capacity_lines(), 16384);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    size_bytes: u64,
    ways: u32,
}

impl CacheConfig {
    /// Creates a config for a cache of `size_bytes` with `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics unless the implied number of sets is a positive power of two
    /// (index bits must be maskable).
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "need at least one way");
        let lines = size_bytes / emcc_sim::mem::LINE_BYTES;
        assert!(
            lines > 0 && lines.is_multiple_of(u64::from(ways)),
            "size/ways mismatch"
        );
        let sets = lines / u64::from(ways);
        assert!(
            sets.is_power_of_two(),
            "sets must be a power of two, got {sets}"
        );
        CacheConfig { size_bytes, ways }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.capacity_lines() / u64::from(self.ways)
    }

    /// Total capacity in 64 B lines.
    pub fn capacity_lines(&self) -> u64 {
        self.size_bytes / emcc_sim::mem::LINE_BYTES
    }
}

/// One resident cache line plus caller-defined metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine<M> {
    /// The line's address.
    pub addr: LineAddr,
    /// Whether the line was dirty (needs write-back).
    pub dirty: bool,
    /// Caller-defined metadata carried by the line.
    pub meta: M,
}

/// A set-associative, true-LRU cache array.
///
/// The array tracks presence, dirtiness and per-line metadata `M`; it does
/// not know about latency (the timing model charges that) or data contents
/// (the functional model lives in `emcc-secmem`).
///
/// # Layout
///
/// One structure-of-arrays allocation per field, `sets × ways` slots each:
/// set `s` owns slots `s * ways ..` and its `lens[s]` resident lines sit
/// at the front of that range, so a lookup scans one contiguous run of
/// tags. Insertion appends at the end of the run and removal moves the
/// run's last line into the hole (a per-set `Vec`'s `push` /
/// `swap_remove`), which fixes the order of [`Self::iter`].
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    config: CacheConfig,
    ways: usize,
    /// `num_sets() - 1`: the set index is the address's low bits.
    set_mask: u64,
    /// Resident lines per set.
    lens: Vec<u32>,
    tags: Vec<LineAddr>,
    /// LRU stamps: the value of `clock` at the line's last use.
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    /// `Some` exactly on resident slots.
    meta: Vec<Option<M>>,
    clock: u64,
    resident: u64,
}

impl<M> SetAssocCache<M> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets() as usize;
        let ways = config.ways() as usize;
        let slots = sets * ways;
        SetAssocCache {
            config,
            ways,
            set_mask: config.num_sets() - 1,
            lens: vec![0; sets],
            tags: vec![LineAddr::new(0); slots],
            stamps: vec![0; slots],
            dirty: vec![false; slots],
            meta: std::iter::repeat_with(|| None).take(slots).collect(),
            clock: 0,
            resident: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of lines currently resident.
    pub fn len(&self) -> u64 {
        self.resident
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// The set `addr` maps to and the first slot of that set.
    #[inline]
    fn set_of(&self, addr: LineAddr) -> (usize, usize) {
        let set = (addr.get() & self.set_mask) as usize;
        (set, set * self.ways)
    }

    /// Slot holding `addr`, if resident.
    #[inline]
    fn find(&self, addr: LineAddr) -> Option<usize> {
        let (set, base) = self.set_of(addr);
        let len = self.lens[set] as usize;
        self.tags[base..base + len]
            .iter()
            .position(|&t| t == addr)
            .map(|i| base + i)
    }

    /// Looks up `addr`, updating LRU state. Returns hit/miss.
    pub fn touch(&mut self, addr: LineAddr) -> bool {
        self.get_mut(addr).is_some()
    }

    /// Looks up `addr` without perturbing LRU state.
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.find(addr).is_some()
    }

    /// Reference to the line's metadata without touching LRU state.
    pub fn peek(&self, addr: LineAddr) -> Option<&M> {
        self.find(addr).and_then(|i| self.meta[i].as_ref())
    }

    /// Whether the line is present and dirty (no LRU update).
    pub fn is_dirty(&self, addr: LineAddr) -> Option<bool> {
        self.find(addr).map(|i| self.dirty[i])
    }

    /// Mutable access to the line's metadata, updating LRU state.
    pub fn get_mut(&mut self, addr: LineAddr) -> Option<&mut M> {
        self.clock += 1;
        let i = self.find(addr)?;
        self.stamps[i] = self.clock;
        self.meta[i].as_mut()
    }

    /// Marks a resident line dirty (e.g. a store hit), updating LRU state.
    ///
    /// Returns false if the line is not resident.
    pub fn mark_dirty(&mut self, addr: LineAddr) -> bool {
        self.clock += 1;
        match self.find(addr) {
            Some(i) => {
                self.dirty[i] = true;
                self.stamps[i] = self.clock;
                true
            }
            None => false,
        }
    }

    /// Inserts (or refreshes) a line, returning the LRU victim if the set
    /// was full.
    ///
    /// If `addr` is already resident its dirty bit is OR-ed and metadata
    /// replaced — the fill path and a racing store commute.
    pub fn insert(&mut self, addr: LineAddr, dirty: bool, meta: M) -> Option<EvictedLine<M>> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(i) = self.find(addr) {
            self.dirty[i] |= dirty;
            self.meta[i] = Some(meta);
            self.stamps[i] = clock;
            return None;
        }

        let (set, base) = self.set_of(addr);
        let victim = if self.lens[set] as usize == self.ways {
            let (vi, _) = self.stamps[base..base + self.ways]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .expect("set is full, victim exists");
            Some(self.swap_remove(set, base + vi))
        } else {
            None
        };

        let slot = base + self.lens[set] as usize;
        self.tags[slot] = addr;
        self.stamps[slot] = clock;
        self.dirty[slot] = dirty;
        self.meta[slot] = Some(meta);
        self.lens[set] += 1;
        self.resident += 1;
        victim
    }

    /// Removes a line, returning its state if it was resident.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<EvictedLine<M>> {
        let i = self.find(addr)?;
        let (set, _) = self.set_of(addr);
        Some(self.swap_remove(set, i))
    }

    /// Removes the line in `slot` of `set`, moving the set's last line
    /// into its place.
    fn swap_remove(&mut self, set: usize, slot: usize) -> EvictedLine<M> {
        let last = set * self.ways + self.lens[set] as usize - 1;
        let line = EvictedLine {
            addr: self.tags[slot],
            dirty: self.dirty[slot],
            meta: self.meta[slot].take().expect("resident slot has metadata"),
        };
        self.tags[slot] = self.tags[last];
        self.stamps[slot] = self.stamps[last];
        self.dirty[slot] = self.dirty[last];
        self.meta[slot] = self.meta[last].take();
        self.lens[set] -= 1;
        self.resident -= 1;
        line
    }

    /// Resident slots, set by set.
    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.lens.iter().enumerate().flat_map(move |(set, &len)| {
            let base = set * self.ways;
            base..base + len as usize
        })
    }

    /// Iterates over resident lines as `(addr, dirty, &meta)`.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, bool, &M)> + '_ {
        self.slots().map(move |i| {
            let meta = self.meta[i].as_ref().expect("resident slot has metadata");
            (self.tags[i], self.dirty[i], meta)
        })
    }

    /// Address of the least-recently-used resident line satisfying `pred`,
    /// across all sets.
    ///
    /// Used by EMCC's L2 to enforce its global 32 KB counter-line budget:
    /// when the budget is exceeded, the globally coldest counter line is
    /// dropped.
    pub fn lru_matching<F: Fn(LineAddr, &M) -> bool>(&self, pred: F) -> Option<LineAddr> {
        self.slots()
            .filter(|&i| {
                let meta = self.meta[i].as_ref().expect("resident slot has metadata");
                pred(self.tags[i], meta)
            })
            .min_by_key(|&i| self.stamps[i])
            .map(|i| self.tags[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache<u32> {
        // 4 sets x 2 ways.
        SetAssocCache::new(CacheConfig::new(8 * 64, 2))
    }

    #[test]
    fn config_shapes() {
        let c = CacheConfig::new(128 * 1024, 32); // MC counter cache
        assert_eq!(c.capacity_lines(), 2048);
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    #[should_panic]
    fn config_rejects_non_pow2_sets() {
        let _ = CacheConfig::new(3 * 64, 1);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(!c.touch(LineAddr::new(5)));
        assert!(c.insert(LineAddr::new(5), false, 1).is_none());
        assert!(c.touch(LineAddr::new(5)));
        assert_eq!(c.peek(LineAddr::new(5)), Some(&1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Addresses 0, 4, 8 map to set 0 (4 sets).
        c.insert(LineAddr::new(0), false, 0);
        c.insert(LineAddr::new(4), false, 0);
        c.touch(LineAddr::new(0)); // 4 becomes LRU
        let ev = c.insert(LineAddr::new(8), false, 0).expect("set full");
        assert_eq!(ev.addr, LineAddr::new(4));
        assert!(c.contains(LineAddr::new(0)));
        assert!(c.contains(LineAddr::new(8)));
    }

    #[test]
    fn dirty_propagates_through_eviction() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), false, 0);
        assert!(c.mark_dirty(LineAddr::new(0)));
        c.insert(LineAddr::new(4), false, 0);
        let ev = c.insert(LineAddr::new(8), false, 0).unwrap();
        assert_eq!(ev.addr, LineAddr::new(0));
        assert!(ev.dirty);
    }

    #[test]
    fn reinsert_merges_dirty_bit() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), true, 7);
        assert!(c.insert(LineAddr::new(0), false, 9).is_none());
        assert_eq!(c.is_dirty(LineAddr::new(0)), Some(true));
        assert_eq!(c.peek(LineAddr::new(0)), Some(&9));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(LineAddr::new(3), true, 2);
        let ev = c.invalidate(LineAddr::new(3)).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.meta, 2);
        assert!(!c.contains(LineAddr::new(3)));
        assert!(c.invalidate(LineAddr::new(3)).is_none());
    }

    #[test]
    fn mark_dirty_on_absent_line_fails() {
        let mut c = tiny();
        assert!(!c.mark_dirty(LineAddr::new(1)));
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), false, 0);
        c.insert(LineAddr::new(4), false, 0);
        // peek(0) must NOT refresh it; 0 stays LRU and gets evicted.
        assert!(c.peek(LineAddr::new(0)).is_some());
        let ev = c.insert(LineAddr::new(8), false, 0).unwrap();
        assert_eq!(ev.addr, LineAddr::new(0));
    }

    #[test]
    fn lru_matching_finds_global_coldest() {
        let mut c = tiny();
        c.insert(LineAddr::new(1), false, 10); // set 1, oldest matching
        c.insert(LineAddr::new(2), false, 20); // set 2
        c.insert(LineAddr::new(6), false, 10); // set 2

        // Coldest line with meta == 10 is addr 1.
        assert_eq!(c.lru_matching(|_, &m| m == 10), Some(LineAddr::new(1)));
        c.touch(LineAddr::new(1));
        assert_eq!(c.lru_matching(|_, &m| m == 10), Some(LineAddr::new(6)));
        assert_eq!(c.lru_matching(|_, &m| m == 99), None);
    }

    #[test]
    fn iter_sees_all_lines() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), false, 0);
        c.insert(LineAddr::new(1), true, 1);
        let mut v: Vec<_> = c.iter().map(|(a, d, &m)| (a.get(), d, m)).collect();
        v.sort();
        assert_eq!(v, vec![(0, false, 0), (1, true, 1)]);
    }

    #[test]
    fn capacity_is_respected_under_stress() {
        let mut c = tiny();
        let mut rng = emcc_sim::Rng64::new(1);
        for _ in 0..10_000 {
            c.insert(LineAddr::new(rng.below(64)), rng.chance(0.5), 0);
        }
        assert!(c.len() <= c.config().capacity_lines());
        // Every set holds at most `ways` lines.
        for s in 0..c.config().num_sets() {
            let in_set = c
                .iter()
                .filter(|(a, _, _)| a.get() % c.config().num_sets() == s)
                .count();
            assert!(in_set <= c.config().ways() as usize);
        }
    }
}
