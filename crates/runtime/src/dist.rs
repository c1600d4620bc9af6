//! Block-distribution arithmetic.
//!
//! Paper §4: "matrices are distributed in row-contiguous fashion among
//! the memories of the processors, while vectors are distributed by
//! blocks". Both reduce to the same balanced block partition of `n`
//! items over `p` ranks: the first `n mod p` ranks get `⌈n/p⌉` items,
//! the rest get `⌊n/p⌋`. "Matrices of identical size are distributed
//! identically" falls out because the partition is a pure function of
//! `(n, p)`.

/// The balanced block partition of `n` items over `p` parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    pub n: usize,
    pub p: usize,
}

impl Block {
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p >= 1, "need at least one rank");
        Block { n, p }
    }

    /// Number of items rank `r` owns.
    pub fn count(&self, r: usize) -> usize {
        assert!(r < self.p, "rank {r} out of {}", self.p);
        let base = self.n / self.p;
        let rem = self.n % self.p;
        base + usize::from(r < rem)
    }

    /// Global index of rank `r`'s first item.
    pub fn start(&self, r: usize) -> usize {
        assert!(r < self.p, "rank {r} out of {}", self.p);
        let base = self.n / self.p;
        let rem = self.n % self.p;
        r * base + r.min(rem)
    }

    /// One past rank `r`'s last item.
    pub fn end(&self, r: usize) -> usize {
        self.start(r) + self.count(r)
    }

    /// Global index range owned by rank `r`.
    pub fn range(&self, r: usize) -> std::ops::Range<usize> {
        self.start(r)..self.end(r)
    }

    /// The rank owning global item `i` (the `ML_owner` computation).
    pub fn owner(&self, i: usize) -> usize {
        assert!(i < self.n, "item {i} out of {}", self.n);
        let base = self.n / self.p;
        let rem = self.n % self.p;
        let cutoff = rem * (base + 1);
        if i < cutoff {
            i / (base + 1)
        } else {
            rem + (i - cutoff) / base.max(1)
        }
    }

    /// Convert a global index to the owner's local offset.
    pub fn to_local(&self, i: usize) -> usize {
        i - self.start(self.owner(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_n() {
        for n in [0usize, 1, 5, 16, 17, 100, 2048] {
            for p in [1usize, 2, 3, 7, 8, 16] {
                let b = Block::new(n, p);
                let total: usize = (0..p).map(|r| b.count(r)).sum();
                assert_eq!(total, n, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn ranges_partition_contiguously() {
        for n in [1usize, 13, 64, 100] {
            for p in [1usize, 3, 5, 16] {
                let b = Block::new(n, p);
                let mut next = 0;
                for r in 0..p {
                    assert_eq!(b.start(r), next, "n={n} p={p} r={r}");
                    next = b.end(r);
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn owner_matches_ranges() {
        for n in [1usize, 13, 64, 100, 2048] {
            for p in [1usize, 3, 5, 7, 16] {
                let b = Block::new(n, p);
                for i in 0..n {
                    let o = b.owner(i);
                    assert!(b.range(o).contains(&i), "n={n} p={p} i={i} -> {o}");
                }
            }
        }
    }

    #[test]
    fn owner_is_unique_partition() {
        // Every item has exactly one owner — paper assumption 3
        // (owner-computes) depends on this.
        let b = Block::new(37, 8);
        let mut counts = vec![0usize; 37];
        for r in 0..8 {
            for i in b.range(r) {
                counts[i] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn to_local_round_trips() {
        let b = Block::new(23, 4);
        for i in 0..23 {
            let r = b.owner(i);
            let l = b.to_local(i);
            assert_eq!(b.start(r) + l, i);
            assert!(l < b.count(r));
        }
    }

    #[test]
    fn balance_within_one() {
        for n in [5usize, 16, 17, 100] {
            for p in [2usize, 3, 8] {
                let b = Block::new(n, p);
                let max = (0..p).map(|r| b.count(r)).max().unwrap();
                let min = (0..p).map(|r| b.count(r)).min().unwrap();
                assert!(max - min <= 1, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn more_ranks_than_items() {
        let b = Block::new(3, 8);
        assert_eq!((0..8).map(|r| b.count(r)).sum::<usize>(), 3);
        assert_eq!(b.count(0), 1);
        assert_eq!(b.count(3), 0);
        assert_eq!(b.owner(2), 2);
    }
}
