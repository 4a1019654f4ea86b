//! The serializable engine state: everything a mid-join pause needs to
//! resume later — possibly in another process, at another thread count.
//!
//! A snapshot is a *consistent cut* of the expansion DAG: the results
//! emitted so far, a canonical frontier of pending pairs, the parked
//! compensation entries, and the proven distance evidence (`dists`,
//! `shared_bound`) that justifies every pair the cut pruned. Resuming
//! re-seeds the work-stealing runner from the cut; because every
//! remaining candidate pair descends from exactly one frontier pair (or
//! is recoverable through exactly one compensation entry), the resumed
//! join emits exactly the pairs the uninterrupted join would have —
//! regardless of how many workers the resumed run uses.
//!
//! # Wire format (version 3)
//!
//! All integers little-endian, via [`amdj_storage::codec`]:
//!
//! ```text
//! magic   8 × u8   "AMDJSNAP"
//! version u8       3
//! kind    u8       0 = k-distance join, 1 = incremental join
//! flags   u8       bit 0: aggressive pruning policy
//! dim     u32      D (decode refuses a mismatched dimension)
//! trees   2 × tree fingerprint (R, then S):
//!           len u64, height u32, root page u64 (u64::MAX = empty),
//!           root MBR lo[0..D], hi[0..D] as f64 bits (u64; 0 when empty)
//! k       u64      k (kdj) or take (idj)
//! stage   u32      1 or 2 (kdj); current stage counter (idj)
//! edmax   f64      stage-one estimated cutoff at pause (min over workers)
//! shared  f64      the proven shared bound at pause
//! k_target u64     idj stage schedule position (unused by kdj)
//! emitted  u64     idj emission count  (unused by kdj)
//! last     f64     idj last emitted distance (unused by kdj)
//! results  u64 count, then (r u64, s u64, dist f64) each
//! dists    u64 count, then f64 each (ascending, ≤ k entries)
//! frontier spill page framing (see [`encode_page_framed`])
//! comps    u64 count, then per entry:
//!            key f64, axis u32, direction u8 (0 forward, 1 backward),
//!            the parked pair (its spill encoding), left stops,
//!            right stops (u64 count + u32 each), rejects (u64 count +
//!            (left u32, right u32, dist f64) each), track-rejects u8
//! ```
//!
//! The frontier reuses the spill queue's page-framed segment encoding —
//! the same bytes a spilled queue segment holds — rather than inventing a
//! second pair encoding. A compensation entry references its node pair
//! rather than carrying the children lists: a resume gathers them from
//! the trees again, so its marks index lists whose shape
//! [`opened_sides`] derives from the pair. Version 1 images (which
//! carried the lists) are refused, and so are version 2 images: their
//! bytes are laid out as version 3's, but their marks on an
//! unequal-level node pair index both nodes' children, where version 3
//! holds the smaller-area node whole as one entry. Decoding is fully
//! fallible: a truncated or corrupt image surfaces a [`SnapshotError`]
//! naming the byte offset and the field expected there, never a panic.
//!
//! # Validation against the trees
//!
//! A snapshot comes from disk or from the wire, so resuming one is
//! refused ([`SnapshotError::Invalid`]) unless
//! [`check_trees`](EngineSnapshot::check_trees) passes: the fingerprints
//! must match the trees being joined, every node reference (frontier and
//! compensation pairs) must name a live page whose node sits at the
//! referenced level, and every compensation entry's marks must fit its
//! sides' entry counts as [`opened_sides`] lays them out (a held side
//! has one entry).

use amdj_geom::SweepDirection;
use amdj_rtree::RTree;
use amdj_storage::codec::{put_f64, put_u32, put_u64, put_u8, CodecError, Reader};
use amdj_storage::{encode_page_framed, try_decode_page_framed, PageId, SpillItem};

use crate::{ItemRef, Pair, ResultPair};

use super::sweep::{opened_sides, CompEntry, Reject, SweepMarks, SweepSetup};

const MAGIC: &[u8; 8] = b"AMDJSNAP";
const VERSION: u8 = 3;
/// Page size used for the frontier's spill framing inside a snapshot.
const SNAP_PAGE: usize = 4096;

/// Which join a snapshot belongs to. Resume refuses a mismatched kind —
/// a kdj checkpoint cannot seed an idj and vice versa.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A k-distance join with the given `k` and pruning policy.
    Kdj {
        /// The join's `k`.
        k: u64,
        /// Whether stage one pruned on an estimated `eDmax`.
        aggressive: bool,
    },
    /// An incremental join materializing `take` pairs.
    Idj {
        /// The number of pairs being materialized.
        take: u64,
    },
}

/// A decoding or validation failure while loading a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// A field could not be decoded (truncated or corrupt bytes).
    Codec(CodecError),
    /// The bytes decoded but describe an impossible or foreign state.
    Invalid(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Codec(e) => write!(f, "snapshot {e}"),
            SnapshotError::Invalid(what) => write!(f, "invalid snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

/// What identifies the tree a snapshot was taken on: object count,
/// height, root page, and the root MBR's bits. A resume against a tree
/// with another fingerprint is refused — the snapshot's page references
/// would name foreign or missing nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TreePrint<const D: usize> {
    len: u64,
    height: u32,
    /// `u64::MAX` for an empty tree.
    root: u64,
    /// `lo` then `hi` coordinate bits; zero for an empty tree.
    mbr: [[u64; D]; 2],
}

impl<const D: usize> TreePrint<D> {
    /// The fingerprint of `tree`, read without touching its buffer or
    /// access counters.
    pub(crate) fn of(tree: &RTree<D>) -> Self {
        let root = tree.root_page();
        let mbr = root
            .and_then(|pid| tree.peek_node(pid))
            .filter(|node| !node.entries.is_empty())
            .map(|node| {
                let m = node.mbr();
                [m.lo().map(f64::to_bits), m.hi().map(f64::to_bits)]
            })
            .unwrap_or([[0; D]; 2]);
        TreePrint {
            len: tree.len(),
            height: tree.height(),
            root: root.map_or(u64::MAX, |p| p.0),
            mbr,
        }
    }

    /// The fingerprints of a join's two trees, R first.
    pub(crate) fn pair(r: &RTree<D>, s: &RTree<D>) -> [Self; 2] {
        [Self::of(r), Self::of(s)]
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len);
        put_u32(out, self.height);
        put_u64(out, self.root);
        for bits in self.mbr.iter().flatten() {
            put_u64(out, *bits);
        }
    }

    fn try_decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let len = r.try_u64("tree object count")?;
        let height = r.try_u32("tree height")?;
        let root = r.try_u64("tree root page")?;
        let mut mbr = [[0; D]; 2];
        for bits in mbr.iter_mut().flatten() {
            *bits = r.try_u64("tree root MBR bits")?;
        }
        Ok(TreePrint {
            len,
            height,
            root,
            mbr,
        })
    }
}

/// The complete mid-join state of the engine as one owned, versioned,
/// serializable value. Produced by pausing a join [`run`](super::run)
/// started, consumed by resuming one through
/// [`JoinRequest::resume`](super::JoinRequest::resume). See the module
/// docs for the consistency argument and the wire format.
#[derive(Debug, PartialEq)]
pub struct EngineSnapshot<const D: usize> {
    pub(crate) kind: SnapshotKind,
    /// Fingerprints of the R and S trees the snapshot was taken on.
    pub(crate) trees: [TreePrint<D>; 2],
    /// Paper stage at pause: 1 or 2 for kdj, the stage counter for idj.
    pub(crate) stage: u32,
    /// The estimated stage-one cutoff at pause (min over workers);
    /// `+∞` under the exact policy.
    pub(crate) edmax: f64,
    /// The proven shared bound at pause (`+∞` until k real distances
    /// exist). Every pair the snapshot pruned exceeds this.
    pub(crate) shared_bound: f64,
    /// Incremental-join stage schedule position (0 for kdj).
    pub(crate) k_target: u64,
    /// Incremental-join emission count (0 for kdj).
    pub(crate) emitted: u64,
    /// Incremental-join last emitted distance (0 for kdj).
    pub(crate) last_dist: f64,
    /// Results emitted before the pause, in canonical order.
    pub(crate) results: Vec<ResultPair>,
    /// Distinct-pair distance evidence (ascending, at most `k` entries):
    /// seeds resumed stage-two distance queues without re-counting.
    pub(crate) dists: Vec<f64>,
    /// Pending frontier pairs in canonical ascending order — the cut
    /// through the expansion DAG.
    pub(crate) frontier: Vec<Pair<D>>,
    /// Parked compensation entries, ascending by key, with their
    /// per-anchor skip marks.
    pub(crate) comps: Vec<CompEntry<D>>,
}

impl<const D: usize> EngineSnapshot<D> {
    /// Which join this snapshot belongs to.
    pub fn kind(&self) -> SnapshotKind {
        self.kind
    }

    /// The paper stage executing when the join paused.
    pub fn stage(&self) -> u32 {
        self.stage
    }

    /// How many results were already emitted at pause time.
    pub fn results_len(&self) -> usize {
        self.results.len()
    }

    /// How many frontier pairs remain to be processed.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// How many parked compensation entries remain.
    pub fn comps_len(&self) -> usize {
        self.comps.len()
    }

    /// Checks that the snapshot belongs to the trees `r` and `s` (module
    /// docs, *Validation against the trees*): matching fingerprints,
    /// node references to live pages at the referenced level, and
    /// compensation marks within their sides' entry counts. Every resume
    /// of a snapshot from outside the process runs this first, so that a
    /// foreign or crafted image is refused instead of indexing past a
    /// node.
    pub(crate) fn check_trees(&self, r: &RTree<D>, s: &RTree<D>) -> Result<(), SnapshotError> {
        if self.trees != TreePrint::pair(r, s) {
            return Err(SnapshotError::Invalid(
                "snapshot was taken on other trees (fingerprint mismatch)",
            ));
        }
        for pair in &self.frontier {
            side_len(r, pair.a, false)?;
            side_len(s, pair.b, false)?;
        }
        for entry in &self.comps {
            let [open_a, open_b] = opened_sides(&entry.pair);
            let nl = side_len(r, entry.pair.a, open_a)?;
            let nr = side_len(s, entry.pair.b, open_b)?;
            let m = &entry.marks;
            let fits = m.left_stops.len() <= nl
                && m.right_stops.len() <= nr
                && m.left_stops.iter().all(|&stop| stop as usize <= nr)
                && m.right_stops.iter().all(|&stop| stop as usize <= nl)
                && m.rejects
                    .iter()
                    .all(|rej| (rej.left as usize) < nl && (rej.right as usize) < nr);
            if !fits {
                return Err(SnapshotError::Invalid(
                    "compensation marks out of range for their nodes",
                ));
            }
        }
        Ok(())
    }

    /// Serializes the snapshot (see the module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u8(&mut out, VERSION);
        let (kind, flags, k) = match self.kind {
            SnapshotKind::Kdj { k, aggressive } => (0u8, u8::from(aggressive), k),
            SnapshotKind::Idj { take } => (1u8, 0u8, take),
        };
        put_u8(&mut out, kind);
        put_u8(&mut out, flags);
        put_u32(&mut out, D as u32);
        for tree in &self.trees {
            tree.encode(&mut out);
        }
        put_u64(&mut out, k);
        put_u32(&mut out, self.stage);
        put_f64(&mut out, self.edmax);
        put_f64(&mut out, self.shared_bound);
        put_u64(&mut out, self.k_target);
        put_u64(&mut out, self.emitted);
        put_f64(&mut out, self.last_dist);
        put_u64(&mut out, self.results.len() as u64);
        for res in &self.results {
            put_u64(&mut out, res.r);
            put_u64(&mut out, res.s);
            put_f64(&mut out, res.dist);
        }
        put_u64(&mut out, self.dists.len() as u64);
        for &d in &self.dists {
            put_f64(&mut out, d);
        }
        encode_page_framed(&self.frontier, SNAP_PAGE, &mut out);
        put_u64(&mut out, self.comps.len() as u64);
        for entry in &self.comps {
            encode_comp(&mut out, entry);
        }
        out
    }

    /// Deserializes and validates a snapshot image. Any truncation,
    /// corruption, wrong magic/version/dimension, or non-finite key
    /// comes back as a clean [`SnapshotError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        for &want in MAGIC.iter() {
            if r.try_u8("snapshot magic")? != want {
                return Err(SnapshotError::Invalid("magic (not a snapshot file)"));
            }
        }
        if r.try_u8("snapshot version")? != VERSION {
            return Err(SnapshotError::Invalid("unsupported snapshot version"));
        }
        let kind_tag = r.try_u8("snapshot kind")?;
        let flags = r.try_u8("snapshot flags")?;
        let dim = r.try_u32("snapshot dimension")?;
        if dim as usize != D {
            return Err(SnapshotError::Invalid("dimension mismatch"));
        }
        let trees = [
            TreePrint::try_decode(&mut r)?,
            TreePrint::try_decode(&mut r)?,
        ];
        let k = r.try_u64("snapshot k")?;
        let kind = match kind_tag {
            0 => SnapshotKind::Kdj {
                k,
                aggressive: flags & 1 != 0,
            },
            1 => SnapshotKind::Idj { take: k },
            _ => return Err(SnapshotError::Invalid("unknown snapshot kind")),
        };
        let stage = r.try_u32("snapshot stage")?;
        let edmax = r.try_f64("snapshot edmax")?;
        let shared_bound = r.try_f64("snapshot shared bound")?;
        let k_target = r.try_u64("snapshot k target")?;
        let emitted = r.try_u64("snapshot emitted count")?;
        let last_dist = r.try_f64("snapshot last distance")?;
        let n_results = checked_count(&mut r, "result count")?;
        let mut results = Vec::with_capacity(n_results);
        for _ in 0..n_results {
            results.push(ResultPair {
                r: r.try_u64("result r id")?,
                s: r.try_u64("result s id")?,
                dist: r.try_f64("result dist")?,
            });
        }
        let n_dists = checked_count(&mut r, "dist count")?;
        let mut dists = Vec::with_capacity(n_dists);
        for _ in 0..n_dists {
            let d = r.try_f64("retained distance")?;
            if !d.is_finite() {
                return Err(SnapshotError::Invalid("non-finite retained distance"));
            }
            dists.push(d);
        }
        let frontier: Vec<Pair<D>> = try_decode_page_framed(&mut r)?;
        if frontier.iter().any(|p| !p.dist.is_finite()) {
            return Err(SnapshotError::Invalid("non-finite frontier distance"));
        }
        let n_comps = checked_count(&mut r, "compensation entry count")?;
        let mut comps = Vec::with_capacity(n_comps);
        for _ in 0..n_comps {
            let entry = try_decode_comp(&mut r)?;
            if !entry.key.is_finite() {
                return Err(SnapshotError::Invalid("non-finite compensation key"));
            }
            comps.push(entry);
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Invalid("trailing bytes after snapshot"));
        }
        Ok(EngineSnapshot {
            kind,
            trees,
            stage,
            edmax,
            shared_bound,
            k_target,
            emitted,
            last_dist,
            results,
            dists,
            frontier,
            comps,
        })
    }
}

/// The number of sweep entries one side of a pair lays out: an opened
/// node's entry count, or 1 for a held side ([`opened_sides`]). A node
/// reference must name a live page of `tree` whose node sits at the
/// referenced level, opened or not.
fn side_len<const D: usize>(
    tree: &RTree<D>,
    side: ItemRef,
    open: bool,
) -> Result<usize, SnapshotError> {
    match side {
        ItemRef::Object { .. } => Ok(1),
        ItemRef::Node { page, level } => match tree.peek_node_header(PageId(page)) {
            None => Err(SnapshotError::Invalid(
                "node reference to a page the tree does not hold",
            )),
            Some((node_level, _)) if node_level != level => Err(SnapshotError::Invalid(
                "node reference level differs from the node's",
            )),
            Some((_, count)) => Ok(if open { count } else { 1 }),
        },
    }
}

/// Reads a declared element count, rejecting one that exceeds the bytes
/// left — every element encodes to at least one byte, so a larger count
/// is corrupt and must not drive `Vec::with_capacity`.
fn checked_count(r: &mut Reader<'_>, what: &'static str) -> Result<usize, SnapshotError> {
    let declared = r.try_u64(what)?;
    plausible(r, declared, what)
}

fn encode_comp<const D: usize>(out: &mut Vec<u8>, entry: &CompEntry<D>) {
    put_f64(out, entry.key);
    put_u32(out, entry.setup.axis as u32);
    put_u8(
        out,
        match entry.setup.dir {
            SweepDirection::Forward => 0,
            SweepDirection::Backward => 1,
        },
    );
    entry.pair.encode(out);
    put_u64(out, entry.marks.left_stops.len() as u64);
    for &s in &entry.marks.left_stops {
        put_u32(out, s);
    }
    put_u64(out, entry.marks.right_stops.len() as u64);
    for &s in &entry.marks.right_stops {
        put_u32(out, s);
    }
    put_u64(out, entry.marks.rejects.len() as u64);
    for rej in &entry.marks.rejects {
        put_u32(out, rej.left);
        put_u32(out, rej.right);
        put_f64(out, rej.dist);
    }
    put_u8(out, u8::from(entry.marks.track_rejects));
}

fn try_decode_comp<const D: usize>(r: &mut Reader<'_>) -> Result<CompEntry<D>, SnapshotError> {
    let key = r.try_f64("compensation key")?;
    let axis = r.try_u32("compensation axis")? as usize;
    if axis >= D {
        return Err(SnapshotError::Invalid("compensation axis out of range"));
    }
    let dir_at = r.position();
    let dir = match r.try_u8("compensation direction")? {
        0 => SweepDirection::Forward,
        1 => SweepDirection::Backward,
        _ => {
            return Err(SnapshotError::Codec(CodecError {
                offset: dir_at,
                expected: "compensation direction 0 or 1",
            }))
        }
    };
    let pair = Pair::try_decode(r)?;
    let n_left = checked_count(r, "left stop count")?;
    let mut left_stops = Vec::with_capacity(n_left);
    for _ in 0..n_left {
        left_stops.push(r.try_u32("left stop")?);
    }
    let n_right = checked_count(r, "right stop count")?;
    let mut right_stops = Vec::with_capacity(n_right);
    for _ in 0..n_right {
        right_stops.push(r.try_u32("right stop")?);
    }
    let n_rej = checked_count(r, "reject count")?;
    let mut rejects = Vec::with_capacity(n_rej);
    for _ in 0..n_rej {
        rejects.push(Reject {
            left: r.try_u32("reject left index")?,
            right: r.try_u32("reject right index")?,
            dist: r.try_f64("reject distance")?,
        });
    }
    let track_rejects = r.try_u8("track rejects flag")? != 0;
    Ok(CompEntry {
        key,
        setup: SweepSetup { axis, dir },
        pair,
        marks: SweepMarks {
            left_stops,
            right_stops,
            rejects,
            track_rejects,
        },
    })
}

/// Rejects a declared count larger than the bytes remaining (each element
/// encodes to at least one byte), so a corrupt image cannot drive a huge
/// allocation.
fn plausible(r: &Reader<'_>, declared: u64, _what: &'static str) -> Result<usize, SnapshotError> {
    if declared > r.remaining() as u64 {
        return Err(SnapshotError::Codec(CodecError {
            offset: r.position().saturating_sub(8),
            expected: "plausible element count",
        }));
    }
    Ok(declared as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdj_geom::Rect;
    use proptest::prelude::*;

    type Snap = EngineSnapshot<2>;

    fn finite() -> impl Strategy<Value = f64> {
        (0u32..1_000_000).prop_map(|v| v as f64 / 64.0)
    }

    fn item_ref() -> impl Strategy<Value = ItemRef> {
        prop_oneof![
            2 => (0u64..10_000).prop_map(|oid| ItemRef::Object { oid }),
            1 => (0u64..10_000, 0u32..6).prop_map(|(page, level)| ItemRef::Node { page, level }),
        ]
    }

    fn rect() -> impl Strategy<Value = Rect<2>> {
        (finite(), finite(), finite(), finite())
            .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
    }

    fn pair() -> impl Strategy<Value = Pair<2>> {
        (finite(), item_ref(), item_ref(), rect(), rect()).prop_map(|(dist, a, b, am, bm)| Pair {
            dist,
            a,
            b,
            a_mbr: am,
            b_mbr: bm,
        })
    }

    fn setup() -> impl Strategy<Value = SweepSetup> {
        (0usize..2, any::<bool>()).prop_map(|(axis, backward)| SweepSetup {
            axis,
            dir: if backward {
                SweepDirection::Backward
            } else {
                SweepDirection::Forward
            },
        })
    }

    fn comp_entry() -> impl Strategy<Value = CompEntry<2>> {
        (
            finite(),
            setup(),
            pair(),
            prop::collection::vec(0u32..32, 0..5),
            prop::collection::vec(0u32..32, 0..5),
            prop::collection::vec(
                (0u32..32, 0u32..32, finite()).prop_map(|(left, right, dist)| Reject {
                    left,
                    right,
                    dist,
                }),
                0..5,
            ),
            any::<bool>(),
        )
            .prop_map(
                |(key, setup, pair, left_stops, right_stops, rejects, track_rejects)| CompEntry {
                    key,
                    setup,
                    pair,
                    marks: SweepMarks {
                        left_stops,
                        right_stops,
                        rejects,
                        track_rejects,
                    },
                },
            )
    }

    fn tree_print() -> impl Strategy<Value = TreePrint<2>> {
        (
            any::<u64>(),
            0u32..8,
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 4..5),
        )
            .prop_map(|(len, height, root, bits)| TreePrint {
                len,
                height,
                root,
                mbr: [[bits[0], bits[1]], [bits[2], bits[3]]],
            })
    }

    fn kind() -> impl Strategy<Value = SnapshotKind> {
        prop_oneof![
            (1u64..100, any::<bool>())
                .prop_map(|(k, aggressive)| SnapshotKind::Kdj { k, aggressive }),
            (1u64..100).prop_map(|take| SnapshotKind::Idj { take }),
        ]
    }

    fn snapshot() -> impl Strategy<Value = Snap> {
        (
            (kind(), tree_print(), tree_print()),
            (
                1u32..5,
                finite(),
                finite(),
                0u64..1000,
                0u64..1000,
                finite(),
            ),
            prop::collection::vec(
                (0u64..10_000, 0u64..10_000, finite()).prop_map(|(r, s, dist)| ResultPair {
                    r,
                    s,
                    dist,
                }),
                0..20,
            ),
            prop::collection::vec(finite(), 0..20),
            prop::collection::vec(pair(), 0..20),
            prop::collection::vec(comp_entry(), 0..4),
        )
            .prop_map(
                |(
                    (kind, print_r, print_s),
                    (stage, edmax, shared, k_target, emitted, last),
                    results,
                    dists,
                    frontier,
                    comps,
                )| {
                    EngineSnapshot {
                        kind,
                        trees: [print_r, print_s],
                        stage,
                        edmax,
                        shared_bound: shared,
                        k_target,
                        emitted,
                        last_dist: last,
                        results,
                        dists,
                        frontier,
                        comps,
                    }
                },
            )
    }

    /// The fingerprints of two empty trees.
    fn no_trees() -> [TreePrint<2>; 2] {
        let empty = RTree::<2>::new(amdj_rtree::RTreeParams::for_tests());
        TreePrint::pair(&empty, &empty)
    }

    fn roundtrip(snap: &Snap) -> Snap {
        Snap::decode(&snap.encode()).expect("roundtrip decode")
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn encode_decode_roundtrips(snap in snapshot()) {
            prop_assert_eq!(&roundtrip(&snap), &snap);
        }

        #[test]
        fn truncation_errors_cleanly(snap in snapshot(), frac in 0u32..100) {
            let bytes = snap.encode();
            let cut = (bytes.len() as u64 * frac as u64 / 100) as usize;
            // Any strict prefix must fail (shorter state is ambiguous at
            // best), and must do so without panicking.
            prop_assert!(Snap::decode(&bytes[..cut.min(bytes.len() - 1)]).is_err());
        }

        #[test]
        fn flipped_count_bytes_never_panic(snap in snapshot(), pos in 0usize..4096, bit in 0u32..8) {
            let mut bytes = snap.encode();
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
            // Corruption may decode to a different valid snapshot (a
            // flipped distance bit, say) but must never panic or hang.
            let _ = Snap::decode(&bytes);
        }
    }

    /// The empty-cut edge: a snapshot with nothing pending (taken right
    /// at completion) survives the wire.
    #[test]
    fn empty_queues_roundtrip() {
        let snap = Snap {
            trees: no_trees(),
            kind: SnapshotKind::Kdj {
                k: 10,
                aggressive: false,
            },
            stage: 1,
            edmax: f64::INFINITY,
            shared_bound: f64::INFINITY,
            k_target: 0,
            emitted: 0,
            last_dist: 0.0,
            results: Vec::new(),
            dists: Vec::new(),
            frontier: Vec::new(),
            comps: Vec::new(),
        };
        assert_eq!(roundtrip(&snap), snap);
    }

    /// A frontier big enough to span several spill pages inside the
    /// snapshot's page framing (the same encoding a spilled queue
    /// segment uses).
    #[test]
    fn multi_page_frontier_roundtrips() {
        let frontier: Vec<Pair<2>> = (0..500)
            .map(|i| Pair {
                dist: i as f64,
                a: ItemRef::Object { oid: i },
                b: ItemRef::Node {
                    page: i,
                    level: (i % 4) as u32,
                },
                a_mbr: Rect::new([0.0, 0.0], [1.0, 1.0]),
                b_mbr: Rect::new([i as f64, 0.0], [i as f64 + 1.0, 1.0]),
            })
            .collect();
        assert!(frontier.len() * frontier[0].encoded_len() > 4 * SNAP_PAGE);
        let snap = Snap {
            trees: no_trees(),
            kind: SnapshotKind::Idj { take: 1000 },
            stage: 3,
            edmax: 42.0,
            shared_bound: 99.5,
            k_target: 64,
            emitted: 17,
            last_dist: 12.25,
            results: vec![ResultPair {
                r: 1,
                s: 2,
                dist: 0.5,
            }],
            dists: vec![0.5],
            frontier,
            comps: Vec::new(),
        };
        assert_eq!(roundtrip(&snap), snap);
    }

    /// Saturated counters (the max-stage edge): stage, k_target, and
    /// emitted at their extremes must survive unclamped.
    #[test]
    fn max_stage_scalars_roundtrip() {
        let snap = Snap {
            trees: no_trees(),
            kind: SnapshotKind::Idj { take: u64::MAX },
            stage: u32::MAX,
            edmax: f64::MAX,
            shared_bound: f64::MAX,
            k_target: u64::MAX,
            emitted: u64::MAX,
            last_dist: f64::MAX,
            results: Vec::new(),
            dists: Vec::new(),
            frontier: Vec::new(),
            comps: Vec::new(),
        };
        assert_eq!(roundtrip(&snap), snap);
    }

    /// `check_trees` refuses every reference a resume would follow into
    /// the trees unless it names a live node at its level, and every
    /// mark unless it fits that node's entries.
    #[test]
    fn check_trees_refuses_bad_references_and_marks() {
        let items: Vec<(Rect<2>, u64)> = (0..40)
            .map(|i| {
                let (x, y) = ((i % 7) as f64, (i / 7) as f64);
                (Rect::new([x, y], [x + 0.5, y + 0.5]), i)
            })
            .collect();
        let r = RTree::<2>::bulk_load(amdj_rtree::RTreeParams::for_tests(), items.clone());
        let s = RTree::<2>::bulk_load(amdj_rtree::RTreeParams::for_tests(), items);
        let root = crate::engine::expand::root_pair(&r, &s).unwrap();
        let (ItemRef::Node { page, level }, ItemRef::Node { page: s_page, .. }) = (root.a, root.b)
        else {
            panic!("node roots")
        };
        let (nl, nr) = (
            r.peek_node(PageId(page)).unwrap().entries.len() as u32,
            s.peek_node_header(PageId(s_page)).unwrap().1 as u32,
        );
        let snap = |frontier: Vec<Pair<2>>, marks: SweepMarks| Snap {
            kind: SnapshotKind::Idj { take: 5 },
            trees: TreePrint::pair(&r, &s),
            stage: 1,
            edmax: 1.0,
            shared_bound: f64::INFINITY,
            k_target: 5,
            emitted: 0,
            last_dist: 0.0,
            results: Vec::new(),
            dists: Vec::new(),
            frontier,
            comps: vec![CompEntry {
                key: 1.0,
                setup: SweepSetup {
                    axis: 1,
                    dir: SweepDirection::Backward,
                },
                pair: root,
                marks,
            }],
        };
        let fits = SweepMarks {
            left_stops: vec![nr; nl as usize],
            right_stops: vec![nl; nr as usize],
            rejects: vec![Reject {
                left: nl - 1,
                right: nr - 1,
                dist: 2.0,
            }],
            track_rejects: true,
        };
        assert_eq!(snap(vec![root], fits.clone()).check_trees(&r, &s), Ok(()));

        let invalid =
            |snap: Snap| matches!(snap.check_trees(&r, &s), Err(SnapshotError::Invalid(_)));
        let wrong_level = Pair {
            a: ItemRef::Node {
                page,
                level: level + 1,
            },
            ..root
        };
        let dead_page = Pair {
            b: ItemRef::Node {
                page: 1 << 40,
                level,
            },
            ..root
        };
        assert!(invalid(snap(vec![wrong_level], fits.clone())));
        assert!(invalid(snap(vec![dead_page], fits.clone())));
        let bad_marks = [
            SweepMarks {
                left_stops: vec![0; nl as usize + 1],
                ..fits.clone()
            },
            SweepMarks {
                right_stops: vec![nl + 1],
                ..fits.clone()
            },
            SweepMarks {
                left_stops: vec![nr + 1],
                ..fits.clone()
            },
            SweepMarks {
                rejects: vec![Reject {
                    left: nl,
                    right: 0,
                    dist: 2.0,
                }],
                ..fits.clone()
            },
        ];
        for marks in bad_marks {
            assert!(invalid(snap(vec![root], marks)));
        }
        // An object side lays out one entry.
        let object_side = CompEntry {
            pair: Pair {
                b: ItemRef::Object { oid: 3 },
                ..root
            },
            ..snap(Vec::new(), SweepMarks::default()).comps.pop().unwrap()
        };
        let mut one = snap(Vec::new(), SweepMarks::default());
        one.comps = vec![CompEntry {
            marks: SweepMarks {
                left_stops: vec![1; nl as usize],
                right_stops: vec![nl],
                ..SweepMarks::default()
            },
            ..object_side
        }];
        assert_eq!(one.check_trees(&r, &s), Ok(()));
        one.comps[0].marks.right_stops.push(0);
        assert!(invalid(one));
        // Trees with another fingerprint are refused outright.
        assert!(matches!(
            snap(vec![root], fits)
                .check_trees(&s, &RTree::new(amdj_rtree::RTreeParams::for_tests())),
            Err(SnapshotError::Invalid(_))
        ));
    }

    /// On an unequal-level compensation entry the held node lays out one
    /// entry, not its children: marks that fit the held node's children
    /// but index past its single entry are refused, since a replay would
    /// index past the list it gathers.
    #[test]
    fn check_trees_sizes_a_held_node_as_one_entry() {
        let points = |n: u64, pitch: f64| -> Vec<(Rect<2>, u64)> {
            (0..n)
                .map(|i| {
                    let (x, y) = ((i % 10) as f64 * pitch, (i / 10) as f64 * pitch);
                    (Rect::new([x, y], [x, y]), i)
                })
                .collect()
        };
        // R: three levels over a small square; S: two levels over a wide
        // one, so the root pair opens S and holds R's root.
        let r = RTree::<2>::bulk_load(amdj_rtree::RTreeParams::for_tests(), points(100, 1.0));
        let s = RTree::<2>::bulk_load(amdj_rtree::RTreeParams::for_tests(), points(20, 10.0));
        assert_eq!((r.height(), s.height()), (3, 2));
        let root = crate::engine::expand::root_pair(&r, &s).unwrap();
        assert_eq!(opened_sides(&root), [false, true]);
        let ItemRef::Node { page: s_page, .. } = root.b else {
            panic!("node roots")
        };
        let nr = s.peek_node_header(PageId(s_page)).unwrap().1 as u32;
        let snap = |marks: SweepMarks| Snap {
            kind: SnapshotKind::Idj { take: 5 },
            trees: TreePrint::pair(&r, &s),
            stage: 1,
            edmax: 1.0,
            shared_bound: f64::INFINITY,
            k_target: 5,
            emitted: 0,
            last_dist: 0.0,
            results: Vec::new(),
            dists: Vec::new(),
            frontier: vec![root],
            comps: vec![CompEntry {
                key: 1.0,
                setup: SweepSetup {
                    axis: 0,
                    dir: SweepDirection::Forward,
                },
                pair: root,
                marks,
            }],
        };
        let fits = SweepMarks {
            left_stops: vec![nr],
            right_stops: vec![1; nr as usize],
            rejects: vec![Reject {
                left: 0,
                right: nr - 1,
                dist: 2.0,
            }],
            track_rejects: true,
        };
        assert_eq!(snap(fits.clone()).check_trees(&r, &s), Ok(()));
        let invalid = |marks: SweepMarks| {
            matches!(
                snap(marks).check_trees(&r, &s),
                Err(SnapshotError::Invalid(_))
            )
        };
        // R's root has more than one child; each of these fits them.
        let r_children = r.peek_node(r.root_page().unwrap()).unwrap().entries.len() as u32;
        assert!(r_children > 2);
        for marks in [
            SweepMarks {
                right_stops: vec![2; nr as usize],
                ..fits.clone()
            },
            SweepMarks {
                left_stops: vec![nr, nr],
                ..fits.clone()
            },
            SweepMarks {
                rejects: vec![Reject {
                    left: 1,
                    right: 0,
                    dist: 2.0,
                }],
                ..fits
            },
        ] {
            assert!(invalid(marks));
        }
    }

    #[test]
    fn wrong_magic_is_invalid_not_panic() {
        let snap = Snap {
            trees: no_trees(),
            kind: SnapshotKind::Kdj {
                k: 1,
                aggressive: true,
            },
            stage: 1,
            edmax: 1.0,
            shared_bound: 1.0,
            k_target: 0,
            emitted: 0,
            last_dist: 0.0,
            results: Vec::new(),
            dists: Vec::new(),
            frontier: Vec::new(),
            comps: Vec::new(),
        };
        let mut bytes = snap.encode();
        bytes[0] = b'X';
        assert!(matches!(
            Snap::decode(&bytes),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn oversized_count_is_codec_error_with_offset() {
        let snap = Snap {
            trees: no_trees(),
            kind: SnapshotKind::Kdj {
                k: 1,
                aggressive: false,
            },
            stage: 1,
            edmax: 1.0,
            shared_bound: 1.0,
            k_target: 0,
            emitted: 0,
            last_dist: 0.0,
            results: Vec::new(),
            dists: Vec::new(),
            frontier: Vec::new(),
            comps: Vec::new(),
        };
        let mut bytes = snap.encode();
        // The results count sits right after the fixed header; blow it up.
        let print = 8 + 4 + 8 + 4 * 8;
        let off = 8 + 1 + 1 + 1 + 4 + 2 * print + 8 + 4 + 8 + 8 + 8 + 8 + 8;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match Snap::decode(&bytes) {
            Err(SnapshotError::Codec(e)) => assert_eq!(e.offset, off),
            other => panic!("expected a codec error, got {other:?}"),
        }
    }
}
