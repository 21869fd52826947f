//! A plain true-LRU set-associative cache model, written independently of
//! `hdsmt_mem::Cache`, to check the simulator's L1-D hit/miss counts.

pub struct LruModel {
    line_shift: u32,
    set_mask: u64,
    ways: usize,
    /// Per set, resident line addresses, most recently used first.
    sets: Vec<Vec<u64>>,
}

impl LruModel {
    pub fn new(size_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        let n_sets = (size_bytes / line_bytes) as usize / ways;
        assert!(n_sets.is_power_of_two() && line_bytes.is_power_of_two());
        LruModel {
            line_shift: line_bytes.trailing_zeros(),
            set_mask: n_sets as u64 - 1,
            ways,
            sets: vec![Vec::with_capacity(ways); n_sets],
        }
    }

    /// Access `addr`, allocating on a miss. Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.insert(0, line);
            return true;
        }
        if set.len() == self.ways {
            set.pop();
        }
        set.insert(0, line);
        false
    }
}

/// Replay `addrs` through `hdsmt_mem::Cache` (access, fill on miss) and
/// through [`LruModel`] with the same geometry; `(hits, misses)` of each.
pub fn replay_both(cfg: hdsmt_mem::CacheConfig, addrs: &[u64]) -> ((u64, u64), (u64, u64)) {
    let mut sim = hdsmt_mem::Cache::new(cfg);
    let mut reference = LruModel::new(cfg.size_bytes, cfg.line_bytes, cfg.ways);
    let mut r = (0u64, 0u64);
    for &a in addrs {
        if !sim.access(a) {
            sim.fill(a);
        }
        if reference.access(a) {
            r.0 += 1;
        } else {
            r.1 += 1;
        }
    }
    let s = sim.stats();
    ((s.hits, s.misses), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used_line() {
        // 2 sets x 2 ways of 32-byte lines: lines 0, 2, 4 share set 0.
        let mut m = LruModel::new(128, 32, 2);
        let (a, b, c) = (0u64, 64, 128);
        assert!(!m.access(a));
        assert!(!m.access(b));
        assert!(m.access(a)); // a is now MRU, b LRU
        assert!(!m.access(c)); // evicts b
        assert!(m.access(a));
        assert!(!m.access(b));
        assert!(m.access(a + 8), "same line, other word");
    }

    #[test]
    fn agrees_with_the_simulator_cache_on_a_scrambled_stream() {
        let cfg = hdsmt_mem::CacheConfig { size_bytes: 1024, line_bytes: 32, ways: 4, banks: 2 };
        let mut x = 0x1234_5678_u64;
        let addrs: Vec<u64> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 4096) & !7
            })
            .collect();
        let (sim, reference) = replay_both(cfg, &addrs);
        assert_eq!(sim, reference);
        assert!(reference.0 > 0 && reference.1 > 0);
    }
}
