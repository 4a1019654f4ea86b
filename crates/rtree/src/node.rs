use std::sync::OnceLock;

use amdj_geom::{Rect, SweepDirection};
use amdj_storage::codec::{put_f64, put_u32, put_u64, put_u8, Reader};

/// One slot of an R-tree node.
///
/// At level 0 (leaves) `child` is an **object id**; above level 0 it is the
/// **page id** of the child node. The `mbr` tightly bounds the object or
/// the child subtree respectively.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry<const D: usize> {
    /// Minimum bounding rectangle of the object / subtree.
    pub mbr: Rect<D>,
    /// Object id (leaf) or child page id (internal).
    pub child: u64,
}

/// An R-tree node: its level (0 = leaf) and its entries.
///
/// A node also carries a lazily filled cache of its children's plane-sweep
/// orders ([`sweep_order`](Node::sweep_order)): one slot permutation per
/// (axis, direction), computed on first request and shared by every
/// thread holding the node. It is not part of the node's value — `Clone`
/// starts it empty, and `PartialEq`, `Debug` and [`encode`](Node::encode)
/// ignore it.
pub struct Node<const D: usize> {
    /// 0 for leaves, parents of leaves are 1, and so on.
    pub level: u32,
    /// The node's entries, at most [`crate::RTreeParams::capacity`] many.
    ///
    /// Mutating them after [`sweep_order`](Node::sweep_order) was called
    /// leaves a stale order behind; the tree only mutates fresh clones
    /// and only sweeps its buffer-resident (immutable, shared) nodes.
    pub entries: Vec<Entry<D>>,
    orders: [[OnceLock<Box<[u16]>>; 2]; D],
}

fn empty_orders<const D: usize>() -> [[OnceLock<Box<[u16]>>; 2]; D] {
    std::array::from_fn(|_| [OnceLock::new(), OnceLock::new()])
}

impl<const D: usize> Clone for Node<D> {
    fn clone(&self) -> Self {
        Node::with_entries(self.level, self.entries.clone())
    }
}

impl<const D: usize> PartialEq for Node<D> {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level && self.entries == other.entries
    }
}

impl<const D: usize> std::fmt::Debug for Node<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("level", &self.level)
            .field("entries", &self.entries)
            .finish()
    }
}

impl<const D: usize> Node<D> {
    /// Creates an empty node at `level`.
    pub fn new(level: u32) -> Self {
        Node::with_entries(level, Vec::new())
    }

    /// Creates a node at `level` holding `entries`.
    pub fn with_entries(level: u32, entries: Vec<Entry<D>>) -> Self {
        Node {
            level,
            entries,
            orders: empty_orders(),
        }
    }

    /// Whether this node's entries reference objects.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// The tight bounding rectangle of all entries.
    ///
    /// Panics on an empty node (an empty node has no MBR).
    pub fn mbr(&self) -> Rect<D> {
        let mut it = self.entries.iter();
        let first = it.next().expect("mbr of empty node").mbr;
        it.fold(first, |acc, e| acc.union(&e.mbr))
    }

    /// The children's slots in plane-sweep order along `axis` in
    /// direction `dir`: ascending by key — `lo[axis]` forward,
    /// `−hi[axis]` backward, compared with [`f64::total_cmp`] — with ties
    /// broken by child id, then by slot. The order is total, so it equals
    /// a stable sort by (key, child) and is the same on every call.
    ///
    /// Sorted once per node and (axis, direction) on first request, then
    /// cached: a buffer-resident node shared by every join thread is
    /// sorted at most `2·D` times while it stays resident. The cache
    /// costs at most `2·D·capacity` `u16` slots per node (≈ 800 bytes at
    /// 4 KB pages in 2-D) and is not charged to the buffer's byte budget.
    pub fn sweep_order(&self, axis: usize, dir: SweepDirection) -> &[u16] {
        let slot = &self.orders[axis][dir as usize];
        let order = slot.get_or_init(|| {
            let key = |e: &Entry<D>| match dir {
                SweepDirection::Forward => e.mbr.lo()[axis],
                SweepDirection::Backward => -e.mbr.hi()[axis],
            };
            let n = u16::try_from(self.entries.len()).expect("node slots fit u16");
            let mut order: Box<[u16]> = (0..n).collect();
            order.sort_unstable_by(|&a, &b| {
                let (ea, eb) = (&self.entries[a as usize], &self.entries[b as usize]);
                key(ea)
                    .total_cmp(&key(eb))
                    .then_with(|| ea.child.cmp(&eb.child))
                    .then_with(|| a.cmp(&b))
            });
            order
        });
        debug_assert_eq!(order.len(), self.entries.len(), "stale sweep order");
        order
    }

    /// Serializes the node. Layout (little-endian):
    /// `level: u8`, 3 pad bytes, `count: u32`, then per entry
    /// `lo[0..D], hi[0..D]: f64` and `child: u64`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u8(out, u8::try_from(self.level).expect("level fits u8"));
        out.extend_from_slice(&[0, 0, 0]);
        put_u32(out, self.entries.len() as u32);
        for e in &self.entries {
            for d in 0..D {
                put_f64(out, e.mbr.lo()[d]);
            }
            for d in 0..D {
                put_f64(out, e.mbr.hi()[d]);
            }
            put_u64(out, e.child);
        }
    }

    /// Deserializes a node from a page image produced by
    /// [`encode`](Node::encode).
    pub fn decode(buf: &[u8]) -> Self {
        let mut r = Reader::new(buf);
        let level = r.u8() as u32;
        let _ = r.u8();
        let _ = r.u8();
        let _ = r.u8();
        let count = r.u32() as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let mut lo = [0.0; D];
            let mut hi = [0.0; D];
            for slot in lo.iter_mut() {
                *slot = r.f64();
            }
            for slot in hi.iter_mut() {
                *slot = r.f64();
            }
            let child = r.u64();
            entries.push(Entry {
                mbr: Rect::new(lo, hi),
                child,
            });
        }
        Node::with_entries(level, entries)
    }

    /// Decodes only the `(level, count)` header of a page image produced
    /// by [`encode`](Node::encode).
    pub fn decode_header(buf: &[u8]) -> (u32, usize) {
        let mut r = Reader::new(buf);
        let level = r.u8() as u32;
        let _ = (r.u8(), r.u8(), r.u8());
        (level, r.u32() as usize)
    }

    /// Encoded size in bytes for `n` entries of dimension `D`.
    pub fn encoded_len(n: usize) -> usize {
        8 + n * (16 * D + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Node<2> {
        Node::with_entries(
            3,
            vec![
                Entry {
                    mbr: Rect::new([0.0, 1.0], [2.0, 3.0]),
                    child: 42,
                },
                Entry {
                    mbr: Rect::new([-5.5, -1.0], [0.0, 0.5]),
                    child: u64::MAX,
                },
            ],
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let node = sample();
        let mut buf = Vec::new();
        node.encode(&mut buf);
        assert_eq!(buf.len(), Node::<2>::encoded_len(2));
        let back = Node::<2>::decode(&buf);
        assert_eq!(back, node);
    }

    #[test]
    fn empty_node_roundtrip() {
        let node: Node<2> = Node::new(0);
        let mut buf = Vec::new();
        node.encode(&mut buf);
        let back = Node::<2>::decode(&buf);
        assert_eq!(back.level, 0);
        assert!(back.entries.is_empty());
    }

    #[test]
    fn decode_tolerates_page_padding() {
        // Pages are zero-padded past the encoded bytes; decode must stop at
        // `count` entries.
        let node = sample();
        let mut buf = Vec::new();
        node.encode(&mut buf);
        buf.resize(4096, 0);
        assert_eq!(Node::<2>::decode(&buf), node);
    }

    #[test]
    fn header_decodes_level_and_count() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        buf.resize(4096, 0);
        assert_eq!(Node::<2>::decode_header(&buf), (3, 2));
    }

    #[test]
    fn mbr_is_union() {
        let node = sample();
        assert_eq!(node.mbr(), Rect::new([-5.5, -1.0], [2.0, 3.0]));
    }

    #[test]
    fn leaf_flag() {
        assert!(Node::<2>::new(0).is_leaf());
        assert!(!Node::<2>::new(1).is_leaf());
    }

    #[test]
    #[should_panic(expected = "empty node")]
    fn mbr_of_empty_panics() {
        let _ = Node::<2>::new(0).mbr();
    }

    /// The reference order: a stable sort of the slots by (key, child).
    fn stable_order<const D: usize>(node: &Node<D>, axis: usize, dir: SweepDirection) -> Vec<u16> {
        let key = |e: &Entry<D>| match dir {
            SweepDirection::Forward => e.mbr.lo()[axis],
            SweepDirection::Backward => -e.mbr.hi()[axis],
        };
        let mut slots: Vec<u16> = (0..node.entries.len() as u16).collect();
        slots.sort_by(|&a, &b| {
            let (ea, eb) = (&node.entries[a as usize], &node.entries[b as usize]);
            key(ea)
                .total_cmp(&key(eb))
                .then_with(|| ea.child.cmp(&eb.child))
        });
        slots
    }

    /// Random nodes drawn from a tiny coordinate and id range, so tied
    /// keys and duplicate child ids are common.
    fn tied_node<const D: usize>() -> impl Strategy<Value = Node<D>> {
        let entry = (
            prop::collection::vec(0u8..4, D..D + 1),
            prop::collection::vec(0u8..3, D..D + 1),
            0u64..4,
        )
            .prop_map(|(lo, ext, child)| {
                let lo: [f64; D] = std::array::from_fn(|d| f64::from(lo[d]) * 0.5);
                let hi: [f64; D] = std::array::from_fn(|d| lo[d] + f64::from(ext[d]) * 0.5);
                Entry {
                    mbr: Rect::new(lo, hi),
                    child,
                }
            });
        (0u32..3, prop::collection::vec(entry, 0..40))
            .prop_map(|(level, entries)| Node::with_entries(level, entries))
    }

    fn check_orders<const D: usize>(node: &Node<D>) -> Result<(), TestCaseError> {
        for axis in 0..D {
            for dir in [SweepDirection::Forward, SweepDirection::Backward] {
                let want = stable_order(node, axis, dir);
                prop_assert_eq!(node.sweep_order(axis, dir), &want[..]);
                // Cached: a second request returns the same slice.
                let again = node.sweep_order(axis, dir);
                prop_assert!(std::ptr::eq(again, node.sweep_order(axis, dir)));
                prop_assert_eq!(again, &want[..]);
            }
        }
        // A clone starts with an empty cache and derives the same orders.
        let copy = node.clone();
        for axis in 0..D {
            prop_assert_eq!(
                copy.sweep_order(axis, SweepDirection::Backward),
                node.sweep_order(axis, SweepDirection::Backward)
            );
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn sweep_order_is_a_stable_sort_2d(node in tied_node::<2>()) {
            check_orders(&node)?;
        }

        #[test]
        fn sweep_order_is_a_stable_sort_3d(node in tied_node::<3>()) {
            check_orders(&node)?;
        }
    }

    #[test]
    fn sweep_order_breaks_full_ties_by_slot() {
        // Equal key and equal child id: slot order decides.
        let e = Entry {
            mbr: Rect::new([1.0, 0.0], [2.0, 1.0]),
            child: 9,
        };
        let f = Entry {
            mbr: Rect::new([1.0, 5.0], [2.0, 6.0]),
            child: 9,
        };
        let g = Entry {
            mbr: Rect::new([0.5, 5.0], [2.0, 6.0]),
            child: 3,
        };
        let node: Node<2> = Node::with_entries(0, vec![f, e, g]);
        assert_eq!(node.sweep_order(0, SweepDirection::Forward), &[2, 0, 1]);
        // Backward keys are −hi = −2 for all three: child id, then slot.
        assert_eq!(node.sweep_order(0, SweepDirection::Backward), &[2, 0, 1]);
        // Neither encoding nor equality sees the cache.
        let mut buf = Vec::new();
        node.encode(&mut buf);
        assert_eq!(Node::<2>::decode(&buf), node);
        assert_eq!(node.clone(), node);
    }

    #[test]
    fn three_dimensional_roundtrip() {
        let node: Node<3> = Node::with_entries(
            1,
            vec![Entry {
                mbr: Rect::new([0.0, 1.0, 2.0], [3.0, 4.0, 5.0]),
                child: 7,
            }],
        );
        let mut buf = Vec::new();
        node.encode(&mut buf);
        assert_eq!(Node::<3>::decode(&buf), node);
    }
}
