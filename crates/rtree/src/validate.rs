//! Structural invariant checking, used heavily by the test suites.

use amdj_storage::PageId;

use crate::RTree;

/// A violated R*-tree invariant.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// A child's level is not exactly one less than its parent's.
    LevelMismatch {
        /// Page of the offending child.
        page: u64,
        /// Expected level.
        expected: u32,
        /// Level found.
        found: u32,
    },
    /// A parent entry's MBR does not tightly bound its child node.
    LooseMbr {
        /// Page of the child whose MBR is stale.
        page: u64,
    },
    /// A non-root node's entry count is out of `[min_fill, capacity]`.
    BadFill {
        /// Offending page.
        page: u64,
        /// Its entry count.
        count: usize,
    },
    /// The number of reachable objects differs from `len()`.
    WrongObjectCount {
        /// Objects reachable from the root.
        found: u64,
        /// The tree's recorded length.
        expected: u64,
    },
    /// The root is recorded at the wrong height.
    WrongHeight {
        /// Root node's level + 1.
        found: u32,
        /// The tree's recorded height.
        expected: u32,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ValidationError {}

impl<const D: usize> RTree<D> {
    /// Checks every structural invariant: consecutive levels, tight parent
    /// MBRs, fill factors, object count, and height.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let Some(root) = self.root_page() else {
            return if self.is_empty() && self.height() == 0 {
                Ok(())
            } else {
                Err(ValidationError::WrongObjectCount {
                    found: 0,
                    expected: self.len(),
                })
            };
        };
        let cap = self.params().capacity::<D>();
        let min_fill = self.params().min_fill::<D>();
        let root_node = self.fetch(root);
        if root_node.level + 1 != self.height() {
            return Err(ValidationError::WrongHeight {
                found: root_node.level + 1,
                expected: self.height(),
            });
        }
        let mut objects = 0u64;
        // (page, expected level, required tight mbr or None for root)
        let mut stack = vec![(root, root_node.level, None)];
        while let Some((pid, expected_level, required_mbr)) = stack.pop() {
            let node = self.fetch(pid);
            if node.level != expected_level {
                return Err(ValidationError::LevelMismatch {
                    page: pid.0,
                    expected: expected_level,
                    found: node.level,
                });
            }
            let is_root = pid == root;
            if node.entries.len() > cap || (!is_root && node.entries.len() < min_fill) {
                return Err(ValidationError::BadFill {
                    page: pid.0,
                    count: node.entries.len(),
                });
            }
            if let Some(req) = required_mbr {
                if node.mbr() != req {
                    return Err(ValidationError::LooseMbr { page: pid.0 });
                }
            }
            if node.is_leaf() {
                objects += node.entries.len() as u64;
            } else {
                for e in &node.entries {
                    stack.push((PageId(e.child), node.level - 1, Some(e.mbr)));
                }
            }
        }
        if objects != self.len() {
            return Err(ValidationError::WrongObjectCount {
                found: objects,
                expected: self.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Entry, Node, RTreeParams};
    use amdj_geom::{Point, Rect};

    #[test]
    fn empty_tree_is_valid() {
        let t: RTree<2> = RTree::new(RTreeParams::for_tests());
        t.validate().expect("empty is valid");
    }

    #[test]
    fn detects_stale_parent_mbr() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        for i in 0..200u64 {
            t.insert(
                Rect::from_point(Point::new([(i % 14) as f64, (i / 14) as f64])),
                i,
            );
        }
        t.validate().expect("valid before corruption");
        // Corrupt: widen one child's content beyond its parent entry.
        let root = t.root_page().unwrap();
        let root_node = (*t.fetch(root)).clone();
        let victim = PageId(root_node.entries[0].child);
        let mut child = (*t.fetch(victim)).clone();
        child.entries.push(Entry {
            mbr: Rect::from_point(Point::new([999.0, 999.0])),
            child: 12345,
        });
        t.write_node(victim, &child);
        let err = t.validate().expect_err("corruption detected");
        assert!(
            matches!(
                err,
                ValidationError::LooseMbr { .. } | ValidationError::WrongObjectCount { .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn detects_wrong_object_count() {
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        t.insert(Rect::from_point(Point::new([0.0, 0.0])), 0);
        t.len += 5;
        assert!(matches!(
            t.validate().expect_err("count mismatch"),
            ValidationError::WrongObjectCount {
                found: 1,
                expected: 6
            }
        ));
    }

    #[test]
    fn detects_bad_fill() {
        // Build a two-level tree whose leaf is underfull.
        let mut t: RTree<2> = RTree::new(RTreeParams::for_tests());
        let leaf_pid = t.alloc_page();
        let leaf = Node::with_entries(
            0,
            vec![Entry {
                mbr: Rect::from_point(Point::new([0.0, 0.0])),
                child: 0,
            }],
        );
        t.write_node(leaf_pid, &leaf);
        let root_pid = t.alloc_page();
        let root = Node::with_entries(
            1,
            vec![Entry {
                mbr: leaf.mbr(),
                child: leaf_pid.0,
            }],
        );
        t.write_node(root_pid, &root);
        t.root = Some(root_pid);
        t.height = 2;
        t.len = 1;
        assert!(matches!(
            t.validate().expect_err("underfull leaf"),
            ValidationError::BadFill { .. }
        ));
    }
}
