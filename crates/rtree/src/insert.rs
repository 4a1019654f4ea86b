//! R*-tree insertion: ChooseSubtree, forced reinsert, and the R* split
//! (Beckmann et al., SIGMOD 1990) — the index construction path the paper
//! assumes for its R*-trees.

use amdj_geom::Rect;
use amdj_storage::PageId;

use crate::{Entry, Node, RTree};

impl<const D: usize> RTree<D> {
    /// Inserts one object by full R* insertion.
    pub fn insert(&mut self, mbr: Rect<D>, oid: u64) {
        self.len += 1;
        let entry = Entry { mbr, child: oid };
        if self.root.is_none() {
            let pid = self.alloc_page();
            self.write_node(pid, &Node::with_entries(0, vec![entry]));
            self.root = Some(pid);
            self.height = 1;
            return;
        }
        // Forced reinsert fires at most once per level per insert operation.
        let mut reinserted = vec![false; self.height as usize];
        let mut pending: Vec<(Entry<D>, u32)> = vec![(entry, 0)];
        while let Some((e, lvl)) = pending.pop() {
            self.insert_at_level(e, lvl, &mut reinserted, &mut pending);
        }
    }

    pub(crate) fn insert_at_level(
        &mut self,
        entry: Entry<D>,
        target_level: u32,
        reinserted: &mut Vec<bool>,
        pending: &mut Vec<(Entry<D>, u32)>,
    ) {
        // Descend from the root to the target level, recording the path.
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut pid = self.root.expect("insert_at_level needs a root");
        let mut node = (*self.fetch(pid)).clone();
        while node.level > target_level {
            let idx = choose_subtree(&node, &entry.mbr);
            path.push((pid, idx));
            pid = PageId(node.entries[idx].child);
            node = (*self.fetch(pid)).clone();
        }
        debug_assert_eq!(node.level, target_level, "tree levels must be consecutive");
        node.entries.push(entry);

        // Unwind, treating overflows on the way up.
        let cap = self.params().capacity::<D>();
        let min_fill = self.params().min_fill::<D>();
        let reinsert_n = self.params().reinsert_count::<D>();
        let mut carry: Option<Entry<D>> = None;
        loop {
            let is_root = path.is_empty();
            if node.entries.len() > cap {
                let lvl = node.level as usize;
                if !is_root && !reinserted[lvl] {
                    reinserted[lvl] = true;
                    for e in pick_reinsert(&mut node, reinsert_n) {
                        pending.push((e, node.level));
                    }
                } else {
                    let (keep, split_off) =
                        rstar_split(std::mem::take(&mut node.entries), min_fill);
                    node.entries = keep;
                    let sibling = Node::with_entries(node.level, split_off);
                    let spid = self.alloc_page();
                    let smbr = sibling.mbr();
                    self.write_node(spid, &sibling);
                    carry = Some(Entry {
                        mbr: smbr,
                        child: spid.0,
                    });
                }
            }
            self.write_node(pid, &node);
            let node_mbr = node.mbr();
            match path.pop() {
                None => {
                    if let Some(c) = carry.take() {
                        // Root split: grow the tree by one level.
                        let new_root = Node::with_entries(
                            node.level + 1,
                            vec![
                                Entry {
                                    mbr: node_mbr,
                                    child: pid.0,
                                },
                                c,
                            ],
                        );
                        let rpid = self.alloc_page();
                        self.write_node(rpid, &new_root);
                        self.root = Some(rpid);
                        self.height += 1;
                        // The new top level never force-reinserts (it only
                        // holds the root).
                        reinserted.push(true);
                    }
                    return;
                }
                Some((ppid, idx)) => {
                    let mut parent = (*self.fetch(ppid)).clone();
                    parent.entries[idx].mbr = node_mbr;
                    if let Some(c) = carry.take() {
                        parent.entries.push(c);
                    }
                    pid = ppid;
                    node = parent;
                }
            }
        }
    }
}

/// R* ChooseSubtree: for parents of leaves, minimize overlap enlargement
/// (ties: area enlargement, then area); above that, minimize area
/// enlargement (ties: area).
fn choose_subtree<const D: usize>(node: &Node<D>, mbr: &Rect<D>) -> usize {
    debug_assert!(!node.entries.is_empty());
    if node.level == 1 {
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in node.entries.iter().enumerate() {
            let enlarged = e.mbr.union(mbr);
            let mut overlap_delta = 0.0;
            for (j, other) in node.entries.iter().enumerate() {
                if i != j {
                    overlap_delta +=
                        enlarged.overlap_area(&other.mbr) - e.mbr.overlap_area(&other.mbr);
                }
            }
            let key = (overlap_delta, e.mbr.enlargement(mbr), e.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    } else {
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (i, e) in node.entries.iter().enumerate() {
            let key = (e.mbr.enlargement(mbr), e.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }
}

/// Removes the `n` entries whose centers lie farthest from the node's MBR
/// center, returning them in *increasing* distance order ("close reinsert",
/// which Beckmann et al. found best); the stack-based driver then reinserts
/// the closest last-removed entry first.
fn pick_reinsert<const D: usize>(node: &mut Node<D>, n: usize) -> Vec<Entry<D>> {
    let center = node.mbr().center();
    let mut tagged: Vec<(f64, Entry<D>)> = node
        .entries
        .drain(..)
        .map(|e| (e.mbr.center().dist_sq(&center), e))
        .collect();
    // Ascending by distance; the tail is removed.
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep_n = tagged.len() - n.min(tagged.len() - 1);
    let removed: Vec<Entry<D>> = tagged
        .split_off(keep_n)
        .into_iter()
        .map(|(_, e)| e)
        .collect();
    node.entries = tagged.into_iter().map(|(_, e)| e).collect();
    removed
}

/// The R* split: choose the split axis by minimum margin sum over all
/// allowed distributions, then the distribution with minimum overlap
/// (ties: minimum combined area).
fn rstar_split<const D: usize>(
    entries: Vec<Entry<D>>,
    min_fill: usize,
) -> (Vec<Entry<D>>, Vec<Entry<D>>) {
    let total = entries.len();
    debug_assert!(
        total >= 2 * min_fill,
        "split needs at least 2·min_fill entries"
    );

    // For each axis, two sort orders (by lo and by hi).
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..D {
        let mut margin = 0.0;
        for by_hi in [false, true] {
            let sorted = sorted_entries(&entries, axis, by_hi);
            let (prefix, suffix) = boundary_mbrs(&sorted);
            for k in min_fill..=(total - min_fill) {
                margin += prefix[k - 1].margin() + suffix[k].margin();
            }
        }
        if margin < best_margin {
            best_margin = margin;
            best_axis = axis;
        }
    }

    let mut best: Option<(f64, f64, Vec<Entry<D>>, usize)> = None;
    for by_hi in [false, true] {
        let sorted = sorted_entries(&entries, best_axis, by_hi);
        let (prefix, suffix) = boundary_mbrs(&sorted);
        for k in min_fill..=(total - min_fill) {
            let overlap = prefix[k - 1].overlap_area(&suffix[k]);
            let area = prefix[k - 1].area() + suffix[k].area();
            let better = match &best {
                None => true,
                Some((o, a, _, _)) => (overlap, area) < (*o, *a),
            };
            if better {
                best = Some((overlap, area, sorted.clone(), k));
            }
        }
    }
    let (_, _, sorted, k) = best.expect("at least one distribution");
    let mut left = sorted;
    let right = left.split_off(k);
    (left, right)
}

fn sorted_entries<const D: usize>(entries: &[Entry<D>], axis: usize, by_hi: bool) -> Vec<Entry<D>> {
    let mut v = entries.to_vec();
    v.sort_by(|a, b| {
        let (x, y) = if by_hi {
            (a.mbr.hi()[axis], b.mbr.hi()[axis])
        } else {
            (a.mbr.lo()[axis], b.mbr.lo()[axis])
        };
        x.total_cmp(&y)
    });
    v
}

/// `prefix[i]` bounds entries `0..=i`; `suffix[i]` bounds entries `i..`.
fn boundary_mbrs<const D: usize>(sorted: &[Entry<D>]) -> (Vec<Rect<D>>, Vec<Rect<D>>) {
    let n = sorted.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = sorted[0].mbr;
    for e in sorted {
        acc.union_assign(&e.mbr);
        prefix.push(acc);
    }
    let mut suffix = vec![sorted[n - 1].mbr; n];
    let mut acc = sorted[n - 1].mbr;
    for i in (0..n).rev() {
        acc.union_assign(&sorted[i].mbr);
        suffix[i] = acc;
    }
    (prefix, suffix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeParams;
    use amdj_geom::Point;

    fn pt(x: f64, y: f64) -> Rect<2> {
        Rect::from_point(Point::new([x, y]))
    }

    #[test]
    fn single_insert_creates_root() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        t.insert(pt(1.0, 2.0), 7);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.bounds().unwrap(), pt(1.0, 2.0));
        t.validate().expect("valid");
    }

    #[test]
    fn many_inserts_stay_valid() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        for i in 0..2000u64 {
            let x = ((i * 7919) % 1000) as f64;
            let y = ((i * 104729) % 1000) as f64;
            t.insert(pt(x, y), i);
        }
        assert_eq!(t.len(), 2000);
        assert!(t.height() >= 3, "height = {}", t.height());
        t.validate().expect("valid after many inserts");
    }

    #[test]
    fn clustered_inserts_stay_valid() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        let mut id = 0;
        for c in 0..10 {
            let cx = (c * 137) as f64;
            for i in 0..150 {
                t.insert(pt(cx + (i % 13) as f64 * 0.1, (i % 17) as f64 * 0.1), id);
                id += 1;
            }
        }
        t.validate().expect("valid clustered tree");
        assert_eq!(t.len(), 1500);
    }

    #[test]
    fn inserted_objects_are_all_findable() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        let n = 800u64;
        for i in 0..n {
            t.insert(pt((i % 29) as f64, (i % 31) as f64), i);
        }
        let found = t.range_query(&Rect::new([-1.0, -1.0], [40.0, 40.0]));
        assert_eq!(found.len(), n as usize);
        let mut ids: Vec<u64> = found.into_iter().map(|f| f.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_positions_are_kept() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        for i in 0..100 {
            t.insert(pt(5.0, 5.0), i);
        }
        assert_eq!(t.len(), 100);
        t.validate().expect("valid with duplicates");
        let found = t.range_query(&pt(5.0, 5.0));
        assert_eq!(found.len(), 100);
    }

    #[test]
    fn rects_not_just_points() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        for i in 0..300u64 {
            let x = (i % 20) as f64 * 3.0;
            let y = (i / 20) as f64 * 3.0;
            t.insert(Rect::new([x, y], [x + 2.5, y + 1.5]), i);
        }
        t.validate().expect("valid rect tree");
        let hits = t.range_query(&Rect::new([0.0, 0.0], [2.0, 2.0]));
        assert!(hits.iter().any(|h| h.0 == 0));
    }

    #[test]
    fn split_respects_min_fill() {
        let entries: Vec<Entry<2>> = (0..11)
            .map(|i| Entry {
                mbr: pt(i as f64, 0.0),
                child: i,
            })
            .collect();
        let (a, b) = rstar_split(entries, 4);
        assert!(a.len() >= 4 && b.len() >= 4);
        assert_eq!(a.len() + b.len(), 11);
        // Points on a line split cleanly: no overlap between halves.
        let am: Rect<2> = a.iter().skip(1).fold(a[0].mbr, |acc, e| acc.union(&e.mbr));
        let bm: Rect<2> = b.iter().skip(1).fold(b[0].mbr, |acc, e| acc.union(&e.mbr));
        assert_eq!(am.overlap_area(&bm), 0.0);
    }

    #[test]
    fn reinsert_removes_farthest() {
        let mut node: Node<2> = Node::new(0);
        for i in 0..10 {
            node.entries.push(Entry {
                mbr: pt(i as f64, 0.0),
                child: i,
            });
        }
        // Center x = 4.5; farthest are 0 and 9, then 1 and 8.
        let removed = pick_reinsert(&mut node, 2);
        let mut ids: Vec<u64> = removed.iter().map(|e| e.child).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 9]);
        assert_eq!(node.entries.len(), 8);
    }

    #[test]
    fn mixed_bulk_and_insert() {
        let pts: Vec<(Rect<2>, u64)> = (0..500)
            .map(|i| (pt((i % 50) as f64, (i / 50) as f64), i))
            .collect();
        let mut t = RTree::bulk_load(RTreeParams::for_tests(), pts);
        for i in 500..700u64 {
            t.insert(pt((i % 50) as f64 + 0.5, (i % 10) as f64 + 0.5), i);
        }
        assert_eq!(t.len(), 700);
        t.validate().expect("valid mixed tree");
    }
}
