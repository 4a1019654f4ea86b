//! STR (Sort-Tile-Recursive) bulk loading.
//!
//! The experiments build their indexes up front from full data sets, for
//! which STR packing produces well-clustered, nearly full nodes with
//! contiguous page allocation per level — so level-order scans are
//! sequential on the virtual disk, like a freshly built index file.

use amdj_geom::Rect;

use crate::{Entry, Node, RTree, RTreeParams};

impl<const D: usize> RTree<D> {
    /// Builds a tree from `(object MBR, object id)` pairs by STR packing.
    ///
    /// Duplicate object ids are permitted (the tree never interprets them).
    pub fn bulk_load(params: RTreeParams, items: Vec<(Rect<D>, u64)>) -> Self {
        let mut tree = RTree::new(params);
        if items.is_empty() {
            return tree;
        }
        tree.len = items.len() as u64;
        let cap = tree.params().capacity::<D>();

        // Build level 0 from the objects, then pack each level's nodes into
        // the next until one node remains: the root.
        let mut level_items: Vec<(Rect<D>, u64)> = items;
        let mut level: u32 = 0;
        loop {
            let nodes = pack_level(&mut level_items, cap);
            let single = nodes.len() == 1;
            let mut next: Vec<(Rect<D>, u64)> = Vec::with_capacity(nodes.len());
            for entries in nodes {
                let node = Node::with_entries(level, entries);
                let mbr = node.mbr();
                let pid = tree.alloc_page();
                tree.write_node(pid, &node);
                next.push((mbr, pid.0));
            }
            if single {
                tree.root = Some(amdj_storage::PageId(next[0].1));
                tree.height = level + 1;
                break;
            }
            level_items = next;
            level += 1;
        }
        tree.reset_stats();
        tree
    }
}

/// Orders `items` by STR tiling and cuts them into balanced chunks of at
/// most `cap` entries (all chunks within a factor ~1 of each other, so the
/// R* minimum fill holds whenever more than one node is needed).
fn pack_level<const D: usize>(items: &mut [(Rect<D>, u64)], cap: usize) -> Vec<Vec<Entry<D>>> {
    str_order(items, 0, cap);
    let n = items.len();
    let chunks = n.div_ceil(cap);
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut idx = 0;
    for c in 0..chunks {
        let size = base + usize::from(c < extra);
        let entries = items[idx..idx + size]
            .iter()
            .map(|&(mbr, child)| Entry { mbr, child })
            .collect();
        out.push(entries);
        idx += size;
    }
    debug_assert_eq!(idx, n);
    out
}

/// Recursive STR ordering: sort by center along `dim`, slice into slabs,
/// recurse on the remaining dimensions within each slab.
fn str_order<const D: usize>(items: &mut [(Rect<D>, u64)], dim: usize, cap: usize) {
    let n = items.len();
    if n <= cap || dim + 1 >= D {
        items.sort_by(|a, b| center(&a.0, dim.min(D - 1)).total_cmp(&center(&b.0, dim.min(D - 1))));
        return;
    }
    items.sort_by(|a, b| center(&a.0, dim).total_cmp(&center(&b.0, dim)));
    let pages = n.div_ceil(cap);
    let slabs = (pages as f64).powf(1.0 / (D - dim) as f64).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    let mut idx = 0;
    while idx < n {
        let end = (idx + slab_size).min(n);
        str_order(&mut items[idx..end], dim + 1, cap);
        idx = end;
    }
}

fn center<const D: usize>(r: &Rect<D>, dim: usize) -> f64 {
    0.5 * (r.lo()[dim] + r.hi()[dim])
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdj_geom::Point;

    fn grid_points(n_side: usize) -> Vec<(Rect<2>, u64)> {
        let mut v = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                let p = Point::new([i as f64, j as f64]);
                v.push((Rect::from_point(p), (i * n_side + j) as u64));
            }
        }
        v
    }

    #[test]
    fn builds_single_leaf_for_tiny_input() {
        let t = RTree::bulk_load(RTreeParams::for_tests(), grid_points(2));
        assert_eq!(t.len(), 4);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn builds_multi_level_tree() {
        let t = RTree::bulk_load(RTreeParams::for_tests(), grid_points(40));
        assert_eq!(t.len(), 1600);
        assert!(t.height() >= 2, "height = {}", t.height());
        assert_eq!(t.bounds().unwrap(), Rect::new([0.0, 0.0], [39.0, 39.0]));
        t.validate().expect("valid tree");
    }

    #[test]
    fn empty_input_gives_empty_tree() {
        let t: RTree<2> = RTree::bulk_load(RTreeParams::for_tests(), vec![]);
        assert!(t.is_empty());
    }

    #[test]
    fn stats_reset_after_build() {
        let t = RTree::bulk_load(RTreeParams::for_tests(), grid_points(20));
        assert_eq!(t.access_stats(), crate::AccessStats::default());
        assert_eq!(t.disk_stats().total_ios(), 0);
    }

    #[test]
    fn all_objects_reachable() {
        let t = RTree::bulk_load(RTreeParams::for_tests(), grid_points(15));
        let found = t.range_query(&Rect::new([-1.0, -1.0], [20.0, 20.0]));
        assert_eq!(found.len(), 225);
        let mut ids: Vec<u64> = found.iter().map(|f| f.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 225, "no duplicates, none missing");
    }

    #[test]
    fn respects_min_fill_everywhere() {
        for n in [5usize, 6, 7, 13, 50, 333, 1000] {
            let pts: Vec<(Rect<2>, u64)> = (0..n)
                .map(|i| {
                    (
                        Rect::from_point(Point::new([(i % 97) as f64, (i / 97) as f64])),
                        i as u64,
                    )
                })
                .collect();
            let t = RTree::bulk_load(RTreeParams::for_tests(), pts);
            t.validate().unwrap_or_else(|e| panic!("n={n}: {e:?}"));
        }
    }

    #[test]
    fn three_dimensional_build() {
        let pts: Vec<(Rect<3>, u64)> = (0..500)
            .map(|i| {
                let f = i as f64;
                (
                    Rect::from_point(Point::new([f % 8.0, (f / 8.0) % 8.0, f / 64.0])),
                    i as u64,
                )
            })
            .collect();
        let t = RTree::bulk_load(RTreeParams::for_tests(), pts);
        assert_eq!(t.len(), 500);
        t.validate().expect("valid 3-D tree");
    }
}
