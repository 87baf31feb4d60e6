//! Distributed vectors: one `Vec<T>` per locale.

/// A vector partitioned across locales. The owner holds it outside
//  cluster execution; inside an epoch, access goes through RMA windows.
#[derive(Clone, Debug, PartialEq)]
pub struct DistVec<T> {
    parts: Vec<Vec<T>>,
}

impl<T> DistVec<T> {
    /// `n_locales` empty parts.
    pub fn new(n_locales: usize) -> Self {
        Self { parts: (0..n_locales).map(|_| Vec::new()).collect() }
    }

    /// Wraps existing per-locale parts.
    pub fn from_parts(parts: Vec<Vec<T>>) -> Self {
        Self { parts }
    }

    /// Number of parts (= locales).
    pub fn n_locales(&self) -> usize {
        self.parts.len()
    }

    /// One locale's part, read-only.
    pub fn part(&self, locale: usize) -> &[T] {
        &self.parts[locale]
    }

    /// One locale's part, mutable (owner access outside epochs).
    pub fn part_mut(&mut self, locale: usize) -> &mut Vec<T> {
        &mut self.parts[locale]
    }

    /// All parts in locale order.
    pub fn parts(&self) -> &[Vec<T>] {
        &self.parts
    }

    /// All parts, mutable.
    pub fn parts_mut(&mut self) -> &mut [Vec<T>] {
        &mut self.parts
    }

    /// Consumes the vector into its parts.
    pub fn into_parts(self) -> Vec<Vec<T>> {
        self.parts
    }

    /// Sum of all part lengths (the global dimension).
    pub fn total_len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Per-locale part lengths.
    pub fn lens(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.len()).collect()
    }

    /// Concatenates all parts in locale order.
    pub fn concat(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.total_len());
        for p in &self.parts {
            out.extend_from_slice(p);
        }
        out
    }
}

impl<T: Clone + Default> DistVec<T> {
    /// Parts sized according to `lens`, default-filled.
    pub fn zeros(lens: &[usize]) -> Self {
        Self { parts: lens.iter().map(|&l| vec![T::default(); l]).collect() }
    }
}

/// The block distribution of `total` elements over `locales` locales:
/// global indices `block_range(total, locales, l)` live on locale `l`.
/// Matches the range splitting used everywhere else in the workspace
/// (contiguous, sizes differing by at most one).
#[inline]
pub fn block_range(total: u64, locales: usize, locale: usize) -> (u64, u64) {
    debug_assert!(locale < locales);
    let l = locale as u128;
    let n = locales as u128;
    let t = total as u128;
    ((l * t / n) as u64, ((l + 1) * t / n) as u64)
}

/// Block-distribution descriptor with owner lookup.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlockLayout {
    /// Global element count.
    pub total: u64,
    /// Number of locales the elements are distributed over.
    pub locales: usize,
}

impl BlockLayout {
    /// The block distribution of `total` elements over `locales` locales.
    pub fn new(total: u64, locales: usize) -> Self {
        assert!(locales >= 1);
        Self { total, locales }
    }

    /// The `[lo, hi)` global range owned by `locale`.
    #[inline]
    pub fn range(&self, locale: usize) -> (u64, u64) {
        block_range(self.total, self.locales, locale)
    }

    /// Number of elements on `locale`.
    #[inline]
    pub fn len(&self, locale: usize) -> usize {
        let (lo, hi) = self.range(locale);
        (hi - lo) as usize
    }

    /// True when the layout holds no elements at all.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Which locale owns global index `i`.
    #[inline]
    pub fn owner(&self, i: u64) -> usize {
        debug_assert!(i < self.total);
        // Inverse of block_range: owner = floor((i+1) * L - 1 / total)…
        // simpler and safe: first candidate by proportion, then adjust.
        let mut l = ((i as u128 * self.locales as u128) / self.total as u128) as usize;
        loop {
            let (lo, hi) = self.range(l);
            if i < lo {
                l -= 1;
            } else if i >= hi {
                l += 1;
            } else {
                return l;
            }
        }
    }

    /// Global index -> (locale, local offset).
    #[inline]
    pub fn locate(&self, i: u64) -> (usize, usize) {
        let l = self.owner(i);
        let (lo, _) = self.range(l);
        (l, (i - lo) as usize)
    }

    /// All per-locale lengths.
    pub fn all_lens(&self) -> Vec<usize> {
        (0..self.locales).map(|l| self.len(l)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distvec_basics() {
        let mut v = DistVec::<u32>::new(3);
        v.part_mut(0).extend([1, 2]);
        v.part_mut(2).extend([5]);
        assert_eq!(v.total_len(), 3);
        assert_eq!(v.lens(), vec![2, 0, 1]);
        assert_eq!(v.concat(), vec![1, 2, 5]);
        let z = DistVec::<f64>::zeros(&[2, 3]);
        assert_eq!(z.part(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn block_ranges_partition() {
        for total in [0u64, 1, 7, 100, 1023] {
            for locales in [1usize, 2, 3, 8] {
                let layout = BlockLayout::new(total, locales);
                let mut covered = 0u64;
                for l in 0..locales {
                    let (lo, hi) = layout.range(l);
                    assert_eq!(lo, covered);
                    covered = hi;
                    // Sizes differ by at most one.
                    let base = total / locales as u64;
                    let len = hi - lo;
                    assert!(len == base || len == base + 1);
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn owner_agrees_with_ranges() {
        let layout = BlockLayout::new(101, 7);
        for i in 0..101u64 {
            let l = layout.owner(i);
            let (lo, hi) = layout.range(l);
            assert!(lo <= i && i < hi);
            let (ll, off) = layout.locate(i);
            assert_eq!(ll, l);
            assert_eq!(off as u64, i - lo);
        }
    }
}
