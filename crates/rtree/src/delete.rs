//! R-tree deletion: FindLeaf + CondenseTree (Guttman) with R*-style
//! reinsertion of orphaned entries. Rounds out the index substrate so the
//! library supports full lifecycle workloads, not just bulk-loaded
//! read-only experiments.

use amdj_geom::Rect;
use amdj_storage::PageId;

use crate::{Entry, RTree};

impl<const D: usize> RTree<D> {
    /// Deletes one object identified by `(mbr, oid)`. Returns `false` (and
    /// changes nothing) when no such entry exists. When several identical
    /// entries exist, one of them is removed.
    pub fn delete(&mut self, mbr: &Rect<D>, oid: u64) -> bool {
        let Some(root) = self.root else {
            return false;
        };
        let mut path: Vec<(PageId, usize)> = Vec::new();
        if !self.find_leaf(root, mbr, oid, &mut path) {
            return false;
        }
        self.len -= 1;

        // Remove from the leaf, then condense upward.
        let (leaf_pid, entry_idx) = path.pop().expect("find_leaf pushes the leaf");
        let mut current = (*self.fetch(leaf_pid)).clone();
        current.entries.remove(entry_idx);
        let mut current_pid = leaf_pid;
        let min_fill = self.params().min_fill::<D>();
        let mut orphans: Vec<(Entry<D>, u32)> = Vec::new();

        loop {
            match path.pop() {
                None => {
                    // At the root.
                    if current.entries.is_empty() {
                        self.pages.free(current_pid);
                        self.root = None;
                        self.height = 0;
                    } else {
                        self.write_node(current_pid, &current);
                    }
                    break;
                }
                Some((ppid, idx)) => {
                    let mut parent = (*self.fetch(ppid)).clone();
                    if current.entries.len() < min_fill {
                        // Orphan the underfull node; its entries re-enter
                        // at their own level.
                        parent.entries.remove(idx);
                        let level = current.level;
                        orphans.extend(current.entries.drain(..).map(|e| (e, level)));
                        self.pages.free(current_pid);
                    } else {
                        self.write_node(current_pid, &current);
                        parent.entries[idx].mbr = current.mbr();
                    }
                    current = parent;
                    current_pid = ppid;
                }
            }
        }

        // Shrink the root while it is an internal node with a single child.
        while let Some(rpid) = self.root {
            let root_node = self.fetch(rpid);
            if root_node.is_leaf() || root_node.entries.len() != 1 {
                break;
            }
            let child = PageId(root_node.entries[0].child);
            self.pages.free(rpid);
            self.root = Some(child);
            self.height -= 1;
        }

        // Reinsert orphans (deepest levels first so the tree regrows from
        // the bottom). Each reinsertion may trigger forced reinserts and
        // splits of its own.
        orphans.sort_by_key(|&(_, level)| level);
        for (entry, level) in orphans {
            if self.root.is_none() {
                debug_assert_eq!(level, 0, "only leaf entries can seed an empty tree");
                let pid = self.alloc_page();
                self.write_node(pid, &crate::Node::with_entries(0, vec![entry]));
                self.root = Some(pid);
                self.height = 1;
                continue;
            }
            let mut flags = vec![false; self.height as usize];
            let mut pending = vec![(entry, level)];
            while let Some((e, lvl)) = pending.pop() {
                self.insert_at_level(e, lvl, &mut flags, &mut pending);
            }
        }
        true
    }

    /// Depth-first search for a leaf entry matching `(mbr, oid)`; fills
    /// `path` with `(page, child index)` steps, the last being the leaf
    /// and the entry's index.
    fn find_leaf(
        &mut self,
        pid: PageId,
        mbr: &Rect<D>,
        oid: u64,
        path: &mut Vec<(PageId, usize)>,
    ) -> bool {
        let node = self.fetch(pid);
        if node.is_leaf() {
            if let Some(i) = node
                .entries
                .iter()
                .position(|e| e.child == oid && e.mbr == *mbr)
            {
                path.push((pid, i));
                return true;
            }
            return false;
        }
        for (i, e) in node.entries.iter().enumerate() {
            if e.mbr.contains_rect(mbr) {
                path.push((pid, i));
                if self.find_leaf(PageId(e.child), mbr, oid, path) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeParams;
    use amdj_geom::Point;

    fn pt(x: f64, y: f64) -> Rect<2> {
        Rect::from_point(Point::new([x, y]))
    }

    fn grid_items(n: usize) -> Vec<(Rect<2>, u64)> {
        (0..n * n)
            .map(|i| (pt((i % n) as f64, (i / n) as f64), i as u64))
            .collect()
    }

    #[test]
    fn delete_missing_returns_false() {
        let mut t = RTree::bulk_load(RTreeParams::for_tests(), grid_items(5));
        assert!(!t.delete(&pt(100.0, 100.0), 0));
        assert!(!t.delete(&pt(0.0, 0.0), 999));
        assert_eq!(t.len(), 25);
        t.validate().expect("unchanged tree stays valid");
    }

    #[test]
    fn delete_single_object() {
        let mut t = RTree::bulk_load(RTreeParams::for_tests(), grid_items(6));
        assert!(t.delete(&pt(2.0, 3.0), 3 * 6 + 2));
        assert_eq!(t.len(), 35);
        t.validate().expect("valid after delete");
        let hits = t.range_query(&pt(2.0, 3.0));
        assert!(hits.is_empty(), "deleted object must be gone");
    }

    #[test]
    fn delete_half_keeps_rest_findable() {
        let items = grid_items(12);
        let mut t = RTree::bulk_load(RTreeParams::for_tests(), items.clone());
        for (mbr, id) in items.iter().filter(|(_, id)| id % 2 == 0) {
            assert!(t.delete(mbr, *id), "id {id}");
            t.validate()
                .unwrap_or_else(|e| panic!("after deleting {id}: {e:?}"));
        }
        assert_eq!(t.len(), 72);
        let found = t.range_query(&Rect::new([-1.0, -1.0], [20.0, 20.0]));
        assert_eq!(found.len(), 72);
        assert!(found.iter().all(|(id, _)| id % 2 == 1));
    }

    #[test]
    fn delete_everything_empties_the_tree() {
        let items = grid_items(8);
        let mut t = RTree::bulk_load(RTreeParams::for_tests(), items.clone());
        for (mbr, id) in &items {
            assert!(t.delete(mbr, *id));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.root_page().is_none());
        t.validate().expect("empty tree is valid");
        // And it can be refilled.
        t.insert(pt(1.0, 1.0), 7);
        assert_eq!(t.len(), 1);
        t.validate().expect("refilled tree is valid");
    }

    #[test]
    fn height_shrinks_after_mass_deletion() {
        let items = grid_items(20);
        let mut t = RTree::bulk_load(RTreeParams::for_tests(), items.clone());
        let tall = t.height();
        assert!(tall >= 3);
        for (mbr, id) in items.iter().take(390) {
            assert!(t.delete(mbr, *id));
        }
        t.validate().expect("valid after mass deletion");
        assert!(
            t.height() < tall,
            "height {} should shrink below {tall}",
            t.height()
        );
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn interleaved_insert_delete() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        // Deterministic churn: insert 3, delete 1, repeatedly.
        let mut live = Vec::new();
        let mut next_id = 0u64;
        for round in 0..300 {
            for _ in 0..3 {
                let mbr = pt((next_id % 31) as f64, ((next_id / 31) % 29) as f64);
                t.insert(mbr, next_id);
                live.push((mbr, next_id));
                next_id += 1;
            }
            let victim = live.remove((round * 7) % live.len());
            assert!(t.delete(&victim.0, victim.1));
        }
        assert_eq!(t.len() as usize, live.len());
        t.validate().expect("valid after churn");
        let found = t.range_query(&Rect::new([-1.0, -1.0], [40.0, 40.0]));
        assert_eq!(found.len(), live.len());
    }

    #[test]
    fn delete_rect_objects() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        let rects: Vec<(Rect<2>, u64)> = (0..200)
            .map(|i| {
                let x = (i % 14) as f64;
                let y = (i / 14) as f64;
                (Rect::new([x, y], [x + 0.6, y + 0.9]), i)
            })
            .collect();
        for &(mbr, id) in &rects {
            t.insert(mbr, id);
        }
        for &(mbr, id) in rects.iter().step_by(3) {
            assert!(t.delete(&mbr, id));
        }
        t.validate().expect("valid");
        assert_eq!(t.len(), 200 - rects.iter().step_by(3).count() as u64);
    }

    #[test]
    fn duplicate_entries_removed_one_at_a_time() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        for _ in 0..5 {
            t.insert(pt(3.0, 3.0), 42);
        }
        assert_eq!(t.len(), 5);
        for remaining in (0..5).rev() {
            assert!(t.delete(&pt(3.0, 3.0), 42));
            assert_eq!(t.len(), remaining);
        }
        assert!(!t.delete(&pt(3.0, 3.0), 42));
    }
}
