use std::cell::RefCell;
use std::sync::OnceLock;

use amdj_geom::{Rect, SweepDirection};
use amdj_storage::codec::{put_f64, put_u32, put_u64, put_u8, Reader};

thread_local! {
    /// The packed sort keys of [`Node::sweep_order`], reused across
    /// calls so computing an order allocates only the order itself. A
    /// fresh key vector per order measured ≈ 6 MB more peak RSS on the
    /// paper-scale benchmark (heap fragmentation between the short-lived
    /// keys and the long-lived orders and nodes).
    static SORT_KEYS: RefCell<Vec<(u64, u64, u16)>> = const { RefCell::new(Vec::new()) };
}

/// `x`'s bits mapped so that unsigned integer order equals
/// [`f64::total_cmp`] order: negatives have every bit flipped, the rest
/// get the sign bit set.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

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
    /// The sort compares packed integer keys, never the entries.
    pub fn sweep_order(&self, axis: usize, dir: SweepDirection) -> &[u16] {
        let slot = &self.orders[axis][dir as usize];
        let order = slot.get_or_init(|| {
            let n = u16::try_from(self.entries.len()).expect("node slots fit u16");
            // Packed keys compare as plain integers: the key's total-order
            // bits, then the child id, then the slot.
            SORT_KEYS.with_borrow_mut(|keys| {
                keys.clear();
                keys.extend(self.entries.iter().zip(0..n).map(|(e, slot)| {
                    let key = match dir {
                        SweepDirection::Forward => e.mbr.lo()[axis],
                        SweepDirection::Backward => -e.mbr.hi()[axis],
                    };
                    (total_order_bits(key), e.child, slot)
                }));
                keys.sort_unstable();
                keys.iter().map(|&(_, _, slot)| slot).collect()
            })
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
    /// [`encode`](Node::encode), in one pass over the entry records.
    /// Every rectangle goes through [`Rect::new`], so a corrupt page
    /// (inverted or non-finite bounds) panics here rather than feeding
    /// the join a bad MBR.
    pub fn decode(buf: &[u8]) -> Self {
        let (level, count) = Node::<D>::decode_header(buf);
        let word = |rec: &[u8], i: usize| -> [u8; 8] {
            rec[8 * i..8 * i + 8].try_into().expect("8 bytes")
        };
        let entries = buf[8..Node::<D>::encoded_len(count)]
            .chunks_exact(16 * D + 8)
            .map(|rec| {
                let lo = std::array::from_fn(|d| f64::from_le_bytes(word(rec, d)));
                let hi = std::array::from_fn(|d| f64::from_le_bytes(word(rec, D + d)));
                Entry {
                    mbr: Rect::new(lo, hi),
                    child: u64::from_le_bytes(word(rec, 2 * D)),
                }
            })
            .collect();
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
    /// keys and duplicate child ids are common. Coordinates include
    /// negatives and both signed zeros, so one order can hold keys `-0.0`
    /// and `0.0`, which the packed keys must order as `total_cmp` does.
    fn tied_node<const D: usize>() -> impl Strategy<Value = Node<D>> {
        const VALUES: [f64; 6] = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0];
        let entry = (
            prop::collection::vec((0..VALUES.len(), 0..VALUES.len()), D..D + 1),
            0u64..4,
        )
            .prop_map(|(bounds, child)| {
                let lo: [f64; D] = std::array::from_fn(|d| VALUES[bounds[d].0.min(bounds[d].1)]);
                let hi: [f64; D] = std::array::from_fn(|d| VALUES[bounds[d].0.max(bounds[d].1)]);
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

    /// Random nodes of `0..=capacity` entries at 4 KB pages with
    /// arbitrary finite bounds, any child id and any level.
    fn page_node<const D: usize>() -> impl Strategy<Value = Node<D>> {
        let cap = crate::RTreeParams::paper_defaults().capacity::<D>();
        let coord = -1e9..1e9f64;
        let entry = (
            prop::collection::vec((coord.clone(), coord), D..D + 1),
            any::<u64>(),
        )
            .prop_map(|(bounds, child)| Entry {
                mbr: Rect::new(
                    std::array::from_fn(|d| bounds[d].0.min(bounds[d].1)),
                    std::array::from_fn(|d| bounds[d].0.max(bounds[d].1)),
                ),
                child,
            });
        (any::<u8>(), prop::collection::vec(entry, 0..cap + 1))
            .prop_map(|(level, entries)| Node::with_entries(u32::from(level), entries))
    }

    /// Encodes `node`, zero-pads the image to a 4 KB page like the disk
    /// does, and decodes it again.
    fn page_roundtrip<const D: usize>(node: &Node<D>) -> Result<(), TestCaseError> {
        let mut buf = Vec::new();
        node.encode(&mut buf);
        prop_assert_eq!(buf.len(), Node::<D>::encoded_len(node.entries.len()));
        buf.resize(4096, 0);
        let back = Node::<D>::decode(&buf);
        prop_assert_eq!(back.level, node.level);
        // Bit for bit, so signed zeros count too.
        let bits = |n: &Node<D>| -> Vec<(Vec<u64>, u64)> {
            n.entries
                .iter()
                .map(|e| {
                    let coords = e.mbr.lo().into_iter().chain(e.mbr.hi());
                    (coords.map(|c| c.to_bits()).collect(), e.child)
                })
                .collect()
        };
        prop_assert_eq!(bits(&back), bits(node));
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

        #[test]
        fn padded_page_roundtrips_2d(node in page_node::<2>()) {
            page_roundtrip(&node)?;
        }

        #[test]
        fn padded_page_roundtrips_3d(node in page_node::<3>()) {
            page_roundtrip(&node)?;
        }
    }

    #[test]
    fn total_order_bits_follow_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// A page image whose first entry's axis-0 bounds are overwritten.
    fn corrupt_page(lo0: f64, hi0: f64) -> Vec<u8> {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        buf[8..16].copy_from_slice(&lo0.to_le_bytes());
        buf[24..32].copy_from_slice(&hi0.to_le_bytes());
        buf.resize(4096, 0);
        buf
    }

    #[test]
    #[should_panic(expected = "invalid rect bounds")]
    fn decode_rejects_an_inverted_rect() {
        let _ = Node::<2>::decode(&corrupt_page(2.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "invalid rect bounds")]
    fn decode_rejects_a_nan_rect() {
        let _ = Node::<2>::decode(&corrupt_page(f64::NAN, 1.0));
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
