use amdj_storage::CostModel;

/// Configuration of an [`crate::RTree`].
#[derive(Clone, Debug)]
pub struct RTreeParams {
    /// Node page size in bytes (paper: 4096).
    pub page_size: usize,
    /// Byte budget of the LRU node buffer (paper: 512 KB by default,
    /// 64 KB – 1024 KB in §5.5). Zero disables buffering entirely.
    pub buffer_bytes: usize,
    /// Minimum node fill as a fraction of capacity (R*: 0.4).
    pub min_fill_ratio: f64,
    /// Fraction of entries re-inserted by R* overflow treatment (0.3).
    pub reinsert_ratio: f64,
    /// I/O cost model for the tree's backing disk.
    pub cost: CostModel,
}

impl RTreeParams {
    /// The paper's configuration: 4 KB pages, 512 KB buffer, R* constants,
    /// 1999-era disk cost model.
    pub fn paper_defaults() -> Self {
        RTreeParams {
            page_size: 4096,
            buffer_bytes: 512 * 1024,
            min_fill_ratio: 0.4,
            reinsert_ratio: 0.3,
            cost: CostModel::paper_1999_disk(),
        }
    }

    /// Small pages and a small buffer; drives deep trees out of small data
    /// sets, which is what unit tests want.
    pub fn for_tests() -> Self {
        RTreeParams {
            page_size: 256,
            buffer_bytes: 4 * 256,
            min_fill_ratio: 0.4,
            reinsert_ratio: 0.3,
            cost: CostModel {
                page_size: 256,
                ..CostModel::free()
            },
        }
    }

    /// Maximum entries per node for dimension `D`.
    ///
    /// Node layout: 8-byte header, then per entry `2·D` coordinates
    /// (8 bytes each) plus an 8-byte child/object id. Capped at
    /// `u16::MAX` so a node's cached sweep orders
    /// ([`Node::sweep_order`](crate::Node::sweep_order)) fit `u16` slots.
    pub fn capacity<const D: usize>(&self) -> usize {
        let entry = 16 * D + 8;
        let cap = (self.page_size - 8) / entry;
        assert!(
            cap >= 4,
            "page size {} too small for 4 entries of dim {D}",
            self.page_size
        );
        assert!(
            cap <= u16::MAX as usize,
            "page size {} holds more than {} entries of dim {D}",
            self.page_size,
            u16::MAX
        );
        cap
    }

    /// Minimum entries per non-root node for dimension `D`.
    pub fn min_fill<const D: usize>(&self) -> usize {
        ((self.capacity::<D>() as f64 * self.min_fill_ratio).floor() as usize).max(2)
    }

    /// Entries removed by a forced reinsert for dimension `D` (at least 1).
    pub fn reinsert_count<const D: usize>(&self) -> usize {
        ((self.capacity::<D>() as f64 * self.reinsert_ratio).floor() as usize).max(1)
    }
}

impl Default for RTreeParams {
    fn default() -> Self {
        RTreeParams::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_is_about_100() {
        let p = RTreeParams::paper_defaults();
        let cap = p.capacity::<2>();
        assert_eq!(cap, (4096 - 8) / 40);
        assert!(cap >= 100, "paper-like fanout, got {cap}");
        assert_eq!(p.min_fill::<2>(), (cap as f64 * 0.4) as usize);
    }

    #[test]
    fn capacity_scales_with_dimension() {
        let p = RTreeParams::paper_defaults();
        assert!(p.capacity::<3>() < p.capacity::<2>());
    }

    #[test]
    fn reinsert_count_at_least_one() {
        let mut p = RTreeParams::for_tests();
        p.reinsert_ratio = 0.0;
        assert_eq!(p.reinsert_count::<2>(), 1);
    }

    #[test]
    #[should_panic(expected = "more than 65535 entries")]
    fn huge_page_rejected() {
        let mut p = RTreeParams::for_tests();
        p.page_size = 8 + 40 * (u16::MAX as usize + 1);
        let _ = p.capacity::<2>();
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_page_rejected() {
        let mut p = RTreeParams::for_tests();
        p.page_size = 64;
        let _ = p.capacity::<2>();
    }
}
