use amdj_geom::Rect;
use amdj_storage::codec::{put_f64, put_u32, put_u64, put_u8, CodecError, Reader};
use amdj_storage::SpillItem;

/// One side of a main-queue pair: an R-tree node or a data object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemRef {
    /// A tree node, identified by its page, with its level (0 = leaf).
    Node {
        /// Page id on the owning tree's disk.
        page: u64,
        /// Node level.
        level: u32,
    },
    /// A data object.
    Object {
        /// Object id (as stored in leaf entries).
        oid: u64,
    },
}

impl ItemRef {
    /// Whether this side is an object.
    #[inline]
    pub fn is_object(&self) -> bool {
        matches!(self, ItemRef::Object { .. })
    }
}

/// An element of the main queue: a ⟨left, right⟩ pair with its minimum
/// distance as priority. `a` always refers to the outer (R) tree, `b` to
/// the inner (S) tree. MBRs are carried so ⟨node, object⟩ pairs can be
/// expanded and the sweeping axis chosen without re-fetching parents.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pair<const D: usize> {
    /// `dist(a, b)` — minimum distance between the MBRs.
    pub dist: f64,
    /// Left side (from R).
    pub a: ItemRef,
    /// Right side (from S).
    pub b: ItemRef,
    /// MBR of the left side.
    pub a_mbr: Rect<D>,
    /// MBR of the right side.
    pub b_mbr: Rect<D>,
}

impl<const D: usize> Pair<D> {
    /// Serialized size in bytes (fixed for a given `D`).
    pub const ENCODED_LEN: usize = 8 + 2 * 13 + 2 * 16 * D;

    /// Whether both sides are objects — i.e. this pair is a query result.
    #[inline]
    pub fn is_result(&self) -> bool {
        self.a.is_object() && self.b.is_object()
    }

    /// Which side a one-sided expansion opens (Hjaltason & Samet's
    /// rule): the node of a ⟨node, object⟩ pair, else the side with the
    /// larger MBR area, R on ties. `true` opens the left (R) side.
    pub(crate) fn opens_left(&self) -> bool {
        match (self.a, self.b) {
            (ItemRef::Node { .. }, ItemRef::Object { .. }) => true,
            (ItemRef::Object { .. }, ItemRef::Node { .. }) => false,
            _ => self.a_mbr.area() >= self.b_mbr.area(),
        }
    }
}

fn encode_ref(out: &mut Vec<u8>, r: &ItemRef) {
    match r {
        ItemRef::Node { page, level } => {
            put_u8(out, 0);
            put_u64(out, *page);
            put_u32(out, *level);
        }
        ItemRef::Object { oid } => {
            put_u8(out, 1);
            put_u64(out, *oid);
            put_u32(out, 0);
        }
    }
}

fn try_decode_ref(r: &mut Reader<'_>) -> Result<ItemRef, CodecError> {
    let at = r.position();
    let tag = r.try_u8("pair ref tag")?;
    let id = r.try_u64("pair ref id")?;
    let level = r.try_u32("pair ref level")?;
    match tag {
        0 => Ok(ItemRef::Node { page: id, level }),
        1 => Ok(ItemRef::Object { oid: id }),
        _ => Err(CodecError {
            offset: at,
            expected: "pair ref tag 0 or 1",
        }),
    }
}

fn encode_rect<const D: usize>(out: &mut Vec<u8>, rect: &Rect<D>) {
    for d in 0..D {
        put_f64(out, rect.lo()[d]);
    }
    for d in 0..D {
        put_f64(out, rect.hi()[d]);
    }
}

fn try_decode_rect<const D: usize>(r: &mut Reader<'_>) -> Result<Rect<D>, CodecError> {
    let start = r.position();
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for slot in lo.iter_mut() {
        *slot = r.try_f64("rect lo coordinate")?;
    }
    for slot in hi.iter_mut() {
        *slot = r.try_f64("rect hi coordinate")?;
    }
    // Rect::new panics on inverted or non-finite bounds; corrupt bytes
    // must surface as a decode error instead.
    if (0..D).any(|d| !lo[d].is_finite() || !hi[d].is_finite() || lo[d] > hi[d]) {
        return Err(CodecError {
            offset: start,
            expected: "well-formed rect bounds",
        });
    }
    Ok(Rect::new(lo, hi))
}

impl<const D: usize> SpillItem for Pair<D> {
    fn key(&self) -> f64 {
        self.dist
    }

    fn encoded_len(&self) -> usize {
        Self::ENCODED_LEN
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.dist);
        encode_ref(out, &self.a);
        encode_ref(out, &self.b);
        encode_rect(out, &self.a_mbr);
        encode_rect(out, &self.b_mbr);
    }

    fn try_decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let dist = r.try_f64("pair dist")?;
        let a = try_decode_ref(r)?;
        let b = try_decode_ref(r)?;
        let a_mbr = try_decode_rect(r)?;
        let b_mbr = try_decode_rect(r)?;
        Ok(Pair {
            dist,
            a,
            b,
            a_mbr,
            b_mbr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Pair<2> {
        Pair {
            dist: 3.25,
            a: ItemRef::Node { page: 17, level: 2 },
            b: ItemRef::Object { oid: u64::MAX },
            a_mbr: Rect::new([0.0, 1.0], [2.0, 3.0]),
            b_mbr: Rect::new([5.0, 5.0], [5.0, 5.0]),
        }
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), p.encoded_len());
        let mut r = Reader::new(&buf);
        assert_eq!(Pair::<2>::decode(&mut r), p);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn key_is_distance() {
        assert_eq!(sample().key(), 3.25);
    }

    #[test]
    fn result_detection() {
        let mut p = sample();
        assert!(!p.is_result());
        p.a = ItemRef::Object { oid: 1 };
        assert!(p.is_result());
        assert!(p.a.is_object());
    }

    #[test]
    fn try_decode_rejects_bad_tag_and_truncation() {
        let p = sample();
        let mut buf = Vec::new();
        p.encode(&mut buf);
        buf[8] = 9; // first ref tag
        let err = Pair::<2>::try_decode(&mut Reader::new(&buf)).unwrap_err();
        assert_eq!(err.offset, 8);
        assert_eq!(err.expected, "pair ref tag 0 or 1");
        let mut short = Vec::new();
        p.encode(&mut short);
        short.truncate(short.len() - 1);
        assert!(Pair::<2>::try_decode(&mut Reader::new(&short)).is_err());
    }

    #[test]
    fn object_object_roundtrip() {
        let p = Pair::<2> {
            dist: 0.0,
            a: ItemRef::Object { oid: 1 },
            b: ItemRef::Object { oid: 2 },
            a_mbr: Rect::new([0.0, 0.0], [0.0, 0.0]),
            b_mbr: Rect::new([0.0, 0.0], [0.0, 0.0]),
        };
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(Pair::<2>::decode(&mut r), p);
    }
}
