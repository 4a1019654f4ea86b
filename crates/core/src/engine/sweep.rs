//! The bidirectional node-expansion engine (§3): plane sweep with
//! per-pair sweeping-axis and sweeping-direction selection, plus the
//! compensation bookkeeping that §4 builds on.
//!
//! A pair ⟨l, r⟩ is expanded by laying both children lists out along the
//! chosen axis, then repeatedly taking the least-advanced entry (the
//! *anchor*) and scanning the other list while the axis distance stays
//! within the cutoff ([`plane_sweep`]). Axis distances (one subtraction on
//! the sort key, [`SweepSide::reach`]) grow along the scan, so the first
//! partner beyond the cutoff ends the scan — and its index, recorded in
//! [`SweepMarks`], is exactly where a later *compensation* pass
//! ([`compensation_sweep`]) must resume when the cutoff was only an
//! estimate (`eDmax`).
//!
//! # Which sides open
//!
//! The paper's bidirectional expansion assumes both nodes of a pair sit
//! at the same level; R-trees over inputs of different sizes (or built
//! by insertion) need not share a height. [`opened_sides`] keeps the
//! bidirectional expansion for level-matched pairs. A ⟨node, node⟩ pair
//! whose levels differ opens only the node with the larger MBR area
//! (Hjaltason & Samet's rule, [`Pair::opens_left`]) and holds the other
//! whole, as a one-entry list of itself: its page, its level, its MBR.
//! A ⟨node, object⟩ pair opens the node and holds the object. Opening
//! both sides of an unequal-level pair split the shallower tree's leaves
//! into ⟨node, object⟩ pairs, each a sweep of one object against a
//! fanout of children; on Arizona-like streets × hydrography (heights 3
//! and 2) that was 13× the expansions of the one-sided rule for the
//! first 50 pairs of an incremental join.
//!
//! The rule compares areas, not levels. Descending the deeper side alone
//! (SJ-SORT's level rule, [`crate::sjsort`]) turns a shallow side that is
//! one leaf spanning the universe into a coarse bound that every deeper
//! node pairs with: on 20k × 60 uniform points (heights 3 and 1),
//! AM-KDJ at k = 1 made 170 buffer misses under it, against 34 under
//! the area rule. The area rule opens that leaf first, as the
//! bidirectional expansion did.
//!
//! # Allocation discipline
//!
//! Expansion is the hottest path of every join, so its buffers are owned
//! by a reusable [`SweepScratch`] rather than allocated per node pair:
//! the two entry lists, the mark vectors, and the compensation staging
//! area all live in the scratch and are `clear()`ed between expansions.
//! A list is filled by gathering the node's children in the order the
//! node caches per (axis, direction) ([`Node::sweep_order`]), so a
//! buffer-resident node is sorted once, not once per expansion. In the
//! steady state (capacities warmed up to the tree fanout, orders cached)
//! an expansion performs **zero** heap allocations.
//!
//! The only allocating operation is [`SweepScratch::park`], which copies
//! the current marks into a long-lived [`CompEntry`] in exact-size
//! vectors — at most three allocations (two stop vectors, plus the
//! rejects when there are any). The entry holds the parked [`Pair`] and
//! its [`SweepSetup`], not the lists: a replay
//! ([`SweepScratch::compensate`]) re-fetches the opened nodes through the
//! buffer and gathers the same lists bit for bit, since the trees do not
//! change during a join and the cached order is a pure function of the
//! node's entries. The scratch keeps its list capacities across a park.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use amdj_geom::sweep_index::{choose_sweep_axis, choose_sweep_direction, SweepDirection};
use amdj_geom::Rect;
use amdj_rtree::{Node, RTree};
use amdj_storage::PageId;

use crate::{ItemRef, JoinConfig, JoinStats, Pair};

/// A child entry prepared for sweeping: its MBR, its child id, and the
/// (direction-folded) sort key along the sweep axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct SweepEntry<const D: usize> {
    pub mbr: Rect<D>,
    pub child: u64,
    pub(crate) key: f64,
}

/// A borrowed view of one side: what the sweep loops actually consume.
/// Copyable so the loops can pass it around freely.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SweepSide<'a, const D: usize> {
    pub entries: &'a [SweepEntry<D>],
    pub objects: bool,
    pub child_level: u32,
    /// Whether the keys are `−hi[axis]` (backward), not `lo[axis]`.
    pub backward: bool,
}

/// Axis and direction chosen for one expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SweepSetup {
    pub axis: usize,
    pub dir: SweepDirection,
}

/// Chooses axis (§3.2, by minimum sweeping index) and direction (§3.3)
/// for expanding the pair with MBRs `a`, `b` under pruning cutoff `w`.
/// The [`JoinConfig`] flags turn either optimization off (Figure 11).
pub(crate) fn choose_setup<const D: usize>(
    a: &Rect<D>,
    b: &Rect<D>,
    w: f64,
    cfg: &JoinConfig,
) -> SweepSetup {
    let axis = if cfg.optimize_axis {
        choose_sweep_axis(a, b, w)
    } else {
        0
    };
    let dir = if cfg.optimize_direction {
        choose_sweep_direction(a, b, axis)
    } else {
        SweepDirection::Forward
    };
    SweepSetup { axis, dir }
}

fn sort_key<const D: usize>(mbr: &Rect<D>, setup: SweepSetup) -> f64 {
    match setup.dir {
        SweepDirection::Forward => mbr.lo()[setup.axis],
        SweepDirection::Backward => -mbr.hi()[setup.axis],
    }
}

/// Which sides of `pair` an expansion opens into their children, left
/// then right: both nodes of a level-matched pair (the paper's
/// bidirectional expansion), otherwise only the side
/// [`Pair::opens_left`] picks — the larger MBR area, R on ties, or the
/// node of a ⟨node, object⟩ pair. The side not opened is held whole as a
/// one-entry list of itself. Expansion, replay and snapshot validation
/// all size a pair's lists through this one function.
pub(crate) fn opened_sides<const D: usize>(pair: &Pair<D>) -> [bool; 2] {
    match (pair.a, pair.b) {
        (ItemRef::Node { level: a, .. }, ItemRef::Node { level: b, .. }) if a == b => [true, true],
        _ => {
            let left = pair.opens_left();
            [left, !left]
        }
    }
}

/// One side of an expansion laid out for sweeping: a reusable entry
/// buffer plus what its entries are. A [`SweepScratch`] owns two.
#[derive(Debug, Default)]
struct SideBuf<const D: usize> {
    entries: Vec<SweepEntry<D>>,
    /// Whether the entries are objects (the side was a leaf or an
    /// object).
    objects: bool,
    /// Level of the entries when they are nodes: the children's level,
    /// or a held node's own.
    child_level: u32,
    /// Whether the entries are keyed for a backward sweep.
    backward: bool,
}

impl<const D: usize> SideBuf<D> {
    /// Lays out a node's children, gathered in the node's cached sweep
    /// order ([`Node::sweep_order`]: ascending key, ties by child id,
    /// then slot) so the sweep order — and therefore every downstream
    /// tie order — is deterministic.
    fn fill_node(&mut self, node: &Node<D>, setup: SweepSetup) {
        self.entries.clear();
        self.entries
            .extend(node.sweep_order(setup.axis, setup.dir).iter().map(|&slot| {
                let e = &node.entries[slot as usize];
                SweepEntry {
                    mbr: e.mbr,
                    child: e.child,
                    key: sort_key(&e.mbr, setup),
                }
            }));
        self.objects = node.is_leaf();
        self.child_level = node.level.saturating_sub(1);
        self.backward = setup.dir == SweepDirection::Backward;
    }

    /// Lays out one side of a pair: an opened node fetches the node and
    /// gathers its children; any other side is [held](Self::hold).
    fn load(
        &mut self,
        tree: &RTree<D>,
        side: ItemRef,
        mbr: &Rect<D>,
        setup: SweepSetup,
        open: bool,
    ) {
        match side {
            ItemRef::Node { page, .. } if open => self.fill_node(&tree.fetch(PageId(page)), setup),
            _ => self.hold(side, mbr, setup),
        }
    }

    /// Lays out a held side — an object, or the node an unequal-level
    /// pair keeps whole — as a one-entry list of itself, keyed on the
    /// pair's own MBR for it. Nothing is fetched.
    fn hold(&mut self, side: ItemRef, mbr: &Rect<D>, setup: SweepSetup) {
        let (child, level) = match side {
            ItemRef::Node { page, level } => (page, level),
            ItemRef::Object { oid } => (oid, 0),
        };
        self.entries.clear();
        self.entries.push(SweepEntry {
            mbr: *mbr,
            child,
            key: sort_key(mbr, setup),
        });
        self.objects = side.is_object();
        self.child_level = level;
        self.backward = setup.dir == SweepDirection::Backward;
    }

    fn view(&self) -> SweepSide<'_, D> {
        SweepSide {
            entries: &self.entries,
            objects: self.objects,
            child_level: self.child_level,
            backward: self.backward,
        }
    }
}

impl<const D: usize> SweepSide<'_, D> {
    pub(crate) fn item_ref(&self, e: &SweepEntry<D>) -> ItemRef {
        if self.objects {
            ItemRef::Object { oid: e.child }
        } else {
            ItemRef::Node {
                page: e.child,
                level: self.child_level,
            }
        }
    }

    /// How far `anchor` reaches along the sweep, in key units: `hi[axis]`
    /// forward, `−lo[axis]` backward. For a partner keyed at or after the
    /// anchor, [`Rect::axis_dist`]'s other term is never positive, so its
    /// gap is `key − reach` bit for bit where that is positive
    /// (`−hi + lo` rounds like `lo − hi`) and 0 elsewhere: against any
    /// cutoff ≥ 0 the two tests agree.
    pub(crate) fn reach(&self, anchor: &SweepEntry<D>, axis: usize) -> f64 {
        if self.backward {
            -anchor.mbr.lo()[axis]
        } else {
            anchor.mbr.hi()[axis]
        }
    }
}

/// Where swept candidate pairs go. One object implements both the cutoffs
/// and the destination, so a cutoff that depends on state the destination
/// mutates (`qDmax` shrinking as object pairs are enqueued) stays
/// borrow-consistent.
pub(crate) trait SweepSink<const D: usize> {
    /// Pairs with axis distance beyond this are not examined (scan stops).
    fn axis_cutoff(&self) -> f64;
    /// Pairs with real distance beyond this are dropped.
    fn real_cutoff(&self) -> f64;
    /// Receives a candidate pair (`dist ≤ real_cutoff()` as last read).
    /// Within one worker this is the only call that may tighten either
    /// cutoff: [`scan`] reads them once per anchor and again only after
    /// each emit.
    fn emit(&mut self, pair: Pair<D>);
    /// `Some(w)` when the **axis** cutoff is frozen at `w` for the whole
    /// sweep (it does not depend on state that `emit` mutates). A frozen
    /// axis cutoff means the set of examined partners is fixed up front,
    /// which lets [`scan`] find each anchor's window with one walk over
    /// the sort keys before computing any distance. The *real* cutoff may
    /// still be live; it is re-read after each emit.
    fn fixed_axis_cutoff(&self) -> Option<f64> {
        None
    }
}

/// What compensation bookkeeping a sweep records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MarkMode {
    /// No bookkeeping (exact cutoffs throughout — B-KDJ, SJ-SORT).
    None,
    /// Per-anchor scan-stop positions only: the *real*-distance cutoff is
    /// exact (`qDmax`), so mid-scan real-distance rejections are final
    /// (AM-KDJ's aggressive stage).
    Suffix,
    /// Scan stops *and* explicit mid-scan rejections: the real-distance
    /// cutoff is itself an estimate (`eDmax`), so a pair inside the axis
    /// window but beyond the estimated real cutoff must stay recoverable
    /// (AM-IDJ).
    Full,
}

/// A pair that passed the axis check but failed an *estimated* real
/// cutoff; re-offered on every later stage until it passes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Reject {
    pub(crate) left: u32,
    pub(crate) right: u32,
    pub(crate) dist: f64,
}

/// Compensation bookkeeping (§4.1, lines 19/21 of Algorithm 2, extended —
/// see [`MarkMode`]).
///
/// `left_stops[i]` is the absolute index into the *right* list where the
/// scan for left anchor `i` stopped (everything from there on is
/// unexamined); symmetrically for `right_stops`. Anchors that never ran
/// (the tail of one list once the other was exhausted) have no entry —
/// their pairings were all covered by the other side's anchors.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct SweepMarks {
    pub left_stops: Vec<u32>,
    pub right_stops: Vec<u32>,
    pub(crate) rejects: Vec<Reject>,
    pub(crate) track_rejects: bool,
}

impl SweepMarks {
    /// True when no unexamined or rejected pair remains.
    pub(crate) fn exhausted(&self, left_len: usize, right_len: usize) -> bool {
        self.rejects.is_empty()
            && self.left_stops.iter().all(|&s| s as usize >= right_len)
            && self.right_stops.iter().all(|&s| s as usize >= left_len)
    }

    /// Empties the bookkeeping for reuse, keeping vector capacities.
    fn reset(&mut self, track_rejects: bool) {
        self.left_stops.clear();
        self.right_stops.clear();
        self.rejects.clear();
        self.track_rejects = track_rejects;
    }
}

/// Reusable staging for [`compensation_sweep`]: the retained-rejects
/// buffer and the scratch marks that collect newly discovered rejects.
#[derive(Debug, Default)]
pub(crate) struct CompScratch {
    kept: Vec<Reject>,
    fresh: SweepMarks,
}

/// Reusable expansion state: the two side buffers, the mark vectors,
/// and the compensation staging area. One scratch per worker (or per
/// sequential join); see the module docs for the ownership rules.
#[derive(Debug)]
pub(crate) struct SweepScratch<const D: usize> {
    left: SideBuf<D>,
    right: SideBuf<D>,
    setup: SweepSetup,
    marks: SweepMarks,
    comp: CompScratch,
}

impl<const D: usize> SweepScratch<D> {
    pub(crate) fn new() -> Self {
        SweepScratch {
            left: SideBuf::default(),
            right: SideBuf::default(),
            setup: SweepSetup {
                axis: 0,
                dir: SweepDirection::Forward,
            },
            marks: SweepMarks::default(),
            comp: CompScratch::default(),
        }
    }

    /// Lays out both sides of a pair for expansion (fetching the nodes
    /// it opens), choosing the sweep setup from the pair's MBRs and the
    /// current cutoff.
    pub(crate) fn expand(
        &mut self,
        r: &RTree<D>,
        s: &RTree<D>,
        pair: &Pair<D>,
        cutoff: f64,
        cfg: &JoinConfig,
    ) {
        let setup = choose_setup(&pair.a_mbr, &pair.b_mbr, cutoff, cfg);
        self.load(r, s, pair, setup);
    }

    /// Lays out both sides of `pair` under `setup`, opening the sides
    /// [`opened_sides`] names. A replay calls this on the parked pair, so
    /// it gathers the lists the parked expansion swept.
    fn load(&mut self, r: &RTree<D>, s: &RTree<D>, pair: &Pair<D>, setup: SweepSetup) {
        let [open_a, open_b] = opened_sides(pair);
        self.setup = setup;
        self.left.load(r, pair.a, &pair.a_mbr, setup, open_a);
        self.right.load(s, pair.b, &pair.b_mbr, setup, open_b);
    }

    /// Prepares two level-matched nodes directly (SJ-SORT's sync
    /// traversal, which never carries `Pair`s).
    pub(crate) fn expand_nodes(&mut self, nr: &Node<D>, ns: &Node<D>, setup: SweepSetup) {
        self.setup = setup;
        self.left.fill_node(nr, setup);
        self.right.fill_node(ns, setup);
    }

    /// Sweeps the prepared lists. With a recording [`MarkMode`] the
    /// bookkeeping lands in the scratch's own marks — check
    /// [`marks_exhausted`](Self::marks_exhausted) and, if compensation is
    /// owed, [`park`](Self::park) the expansion.
    pub(crate) fn sweep(
        &mut self,
        sink: &mut impl SweepSink<D>,
        stats: &mut JoinStats,
        mode: MarkMode,
    ) {
        let marks = match mode {
            MarkMode::None => None,
            MarkMode::Suffix => {
                self.marks.reset(false);
                Some(&mut self.marks)
            }
            MarkMode::Full => {
                self.marks.reset(true);
                Some(&mut self.marks)
            }
        };
        let (left, right) = (self.left.view(), self.right.view());
        plane_sweep_into(left, right, self.setup.axis, sink, stats, marks);
    }

    /// Whether the last recording sweep left unexamined or rejected pairs.
    pub(crate) fn marks_exhausted(&self) -> bool {
        self.marks
            .exhausted(self.left.entries.len(), self.right.entries.len())
    }

    /// Parks the current expansion of `pair` as a [`CompEntry`]: the pair,
    /// its setup, and an exact-size copy of the marks. This is the one
    /// deliberately allocating step of the sweep path; the scratch keeps
    /// its buffers.
    pub(crate) fn park(&self, key: f64, pair: &Pair<D>) -> CompEntry<D> {
        CompEntry {
            key,
            setup: self.setup,
            pair: *pair,
            marks: self.marks.clone(),
        }
    }

    /// Replays the pairs a parked expansion skipped: re-fetches the
    /// opened sides through the trees' buffers, lays both sides out
    /// under the parked setup, and resumes the marks (see
    /// [`compensation_sweep`]) with the scratch's staging buffers. Returns whether the entry is now
    /// exhausted (nothing unexamined or rejected remains).
    pub(crate) fn compensate(
        &mut self,
        r: &RTree<D>,
        s: &RTree<D>,
        entry: &mut CompEntry<D>,
        sink: &mut impl SweepSink<D>,
        stats: &mut JoinStats,
    ) -> bool {
        stats.comp_replays += 1;
        self.load(r, s, &entry.pair, entry.setup);
        let (left, right) = (self.left.view(), self.right.view());
        compensation_sweep_into(
            left,
            right,
            entry.setup.axis,
            &mut entry.marks,
            sink,
            stats,
            &mut self.comp,
        );
        entry
            .marks
            .exhausted(self.left.entries.len(), self.right.entries.len())
    }
}

/// Expands a pair bidirectionally (Algorithm 1's `PlaneSweep`; with a
/// recording [`MarkMode`], Algorithm 2's `AggressivePlaneSweep`). Returns
/// freshly allocated compensation marks when recording — the hot paths use
/// [`SweepScratch::sweep`] instead, which reuses buffers.
#[cfg(test)]
pub(crate) fn plane_sweep<const D: usize>(
    left: SweepSide<'_, D>,
    right: SweepSide<'_, D>,
    axis: usize,
    sink: &mut impl SweepSink<D>,
    stats: &mut JoinStats,
    mode: MarkMode,
) -> Option<SweepMarks> {
    let mut marks = match mode {
        MarkMode::None => None,
        MarkMode::Suffix => Some(SweepMarks::default()),
        MarkMode::Full => Some(SweepMarks {
            track_rejects: true,
            ..SweepMarks::default()
        }),
    };
    plane_sweep_into(left, right, axis, sink, stats, marks.as_mut());
    marks
}

fn plane_sweep_into<const D: usize>(
    left: SweepSide<'_, D>,
    right: SweepSide<'_, D>,
    axis: usize,
    sink: &mut impl SweepSink<D>,
    stats: &mut JoinStats,
    mut marks: Option<&mut SweepMarks>,
) {
    let (mut li, mut ri) = (0usize, 0usize);
    while li < left.entries.len() && ri < right.entries.len() {
        if left.entries[li].key <= right.entries[ri].key {
            let anchor_idx = li;
            let anchor = left.entries[li];
            li += 1;
            let stop = scan(
                &anchor,
                anchor_idx,
                left,
                right,
                ri,
                true,
                axis,
                sink,
                stats,
                marks.as_deref_mut(),
            );
            if let Some(m) = &mut marks {
                m.left_stops.push(stop as u32);
            }
        } else {
            let anchor_idx = ri;
            let anchor = right.entries[ri];
            ri += 1;
            let stop = scan(
                &anchor,
                anchor_idx,
                left,
                right,
                li,
                false,
                axis,
                sink,
                stats,
                marks.as_deref_mut(),
            );
            if let Some(m) = &mut marks {
                m.right_stops.push(stop as u32);
            }
        }
    }
}

/// Scans partners for one anchor starting at `from` in the other list;
/// returns the absolute index where the scan stopped (first unexamined).
///
/// The sink's cutoffs are read once before the loop and again only
/// after each [`emit`](SweepSink::emit) — the one call that can tighten
/// them (`qDmax` shrinks as results enter the distance queue). With one
/// worker that is exactly a per-candidate read. With several, another
/// worker may tighten the shared bound between two reads; the stale
/// cutoff is then looser than the live one, so it only loosens pruning:
/// results stay correct, and only the schedule-dependent multi-worker
/// counters (distances computed, pairs enqueued) can move.
///
/// Partners from `from` on sort at or after the anchor, so the axis test
/// is the exact one-sided `key − reach > cutoff` ([`SweepSide::reach`]).
/// With a frozen axis cutoff the window is fixed before any distance
/// math, so [`window_stop`] finds it with one walk over the keys and the
/// distance loop then walks the window without re-testing the axis.
/// Bit-identical to the live path: same test, same counting (the
/// breaking partner counts as examined).
///
/// A candidate beyond the real cutoff costs nothing more unless the
/// marks track rejects ([`MarkMode::Full`]).
#[allow(clippy::too_many_arguments)]
fn scan<const D: usize>(
    anchor: &SweepEntry<D>,
    anchor_idx: usize,
    left: SweepSide<'_, D>,
    right: SweepSide<'_, D>,
    from: usize,
    anchor_is_left: bool,
    axis: usize,
    sink: &mut impl SweepSink<D>,
    stats: &mut JoinStats,
    marks: Option<&mut SweepMarks>,
) -> usize {
    let partners = if anchor_is_left {
        right.entries
    } else {
        left.entries
    };
    let mut rejects = marks.filter(|m| m.track_rejects).map(|m| &mut m.rejects);
    let reject = |j: usize, dist: f64| {
        let (l, r) = if anchor_is_left {
            (anchor_idx, j)
        } else {
            (j, anchor_idx)
        };
        Reject {
            left: l as u32,
            right: r as u32,
            dist,
        }
    };
    let reach = left.reach(anchor, axis);
    let mut real_cutoff = sink.real_cutoff();
    if let Some(w) = sink.fixed_axis_cutoff() {
        let n = partners.len();
        let stop = window_stop(partners, from, reach, w);
        stats.axis_dist += (if stop < n { stop + 1 } else { n } - from) as u64;
        stats.real_dist += (stop - from) as u64;
        for (j, m) in (from..stop).zip(&partners[from..stop]) {
            let real = anchor.mbr.min_dist(&m.mbr);
            if real <= real_cutoff {
                emit_at(sink, anchor, anchor_is_left, left, right, j, real);
                real_cutoff = sink.real_cutoff();
            } else if let Some(rejects) = rejects.as_deref_mut() {
                rejects.push(reject(j, real));
            }
        }
        return stop;
    }
    let mut axis_cutoff = sink.axis_cutoff();
    for (j, m) in (from..).zip(&partners[from..]) {
        stats.axis_dist += 1;
        if m.key - reach > axis_cutoff {
            return j;
        }
        stats.real_dist += 1;
        let real = anchor.mbr.min_dist(&m.mbr);
        if real <= real_cutoff {
            emit_at(sink, anchor, anchor_is_left, left, right, j, real);
            (axis_cutoff, real_cutoff) = (sink.axis_cutoff(), sink.real_cutoff());
        } else if let Some(rejects) = rejects.as_deref_mut() {
            rejects.push(reject(j, real));
        }
    }
    partners.len()
}

/// The first index at or after `from` whose partner lies beyond the
/// window `w` of an anchor reaching `reach`, or `partners.len()`.
fn window_stop<const D: usize>(
    partners: &[SweepEntry<D>],
    from: usize,
    reach: f64,
    w: f64,
) -> usize {
    partners[from..]
        .iter()
        .position(|m| m.key - reach > w)
        .map_or(partners.len(), |i| from + i)
}

/// Emits the pair of `anchor` and the other list's entry `j`, oriented
/// left to right.
fn emit_at<const D: usize>(
    sink: &mut impl SweepSink<D>,
    anchor: &SweepEntry<D>,
    anchor_is_left: bool,
    left: SweepSide<'_, D>,
    right: SweepSide<'_, D>,
    j: usize,
    real: f64,
) {
    let (le, re) = if anchor_is_left {
        (anchor, &right.entries[j])
    } else {
        (&left.entries[j], anchor)
    };
    sink.emit(Pair {
        dist: real,
        a: left.item_ref(le),
        b: right.item_ref(re),
        a_mbr: le.mbr,
        b_mbr: re.mbr,
    });
}

/// Re-examines only the pairs a previous (aggressive) sweep skipped
/// (Algorithm 3's `CompensatePlaneSweep`), updating the marks in place so
/// AM-IDJ can compensate the same pair again in a later stage. Allocates
/// its own staging; hot paths use [`SweepScratch::compensate`].
#[cfg(test)]
pub(crate) fn compensation_sweep<const D: usize>(
    left: SweepSide<'_, D>,
    right: SweepSide<'_, D>,
    axis: usize,
    marks: &mut SweepMarks,
    sink: &mut impl SweepSink<D>,
    stats: &mut JoinStats,
) {
    let mut comp = CompScratch::default();
    compensation_sweep_into(left, right, axis, marks, sink, stats, &mut comp);
}

fn compensation_sweep_into<const D: usize>(
    left: SweepSide<'_, D>,
    right: SweepSide<'_, D>,
    axis: usize,
    marks: &mut SweepMarks,
    sink: &mut impl SweepSink<D>,
    stats: &mut JoinStats,
    comp: &mut CompScratch,
) {
    // Re-offer earlier real-cutoff rejections first: ones inside the new
    // cutoff are emitted (their distance is already known — no new
    // distance computation), the rest stay parked.
    if !marks.rejects.is_empty() {
        let cutoff = sink.real_cutoff();
        comp.kept.clear();
        for rej in marks.rejects.drain(..) {
            if rej.dist <= cutoff {
                let le = &left.entries[rej.left as usize];
                let re = &right.entries[rej.right as usize];
                sink.emit(Pair {
                    dist: rej.dist,
                    a: left.item_ref(le),
                    b: right.item_ref(re),
                    a_mbr: le.mbr,
                    b_mbr: re.mbr,
                });
            } else {
                comp.kept.push(rej);
            }
        }
        // The retained rejects go back; `kept` inherits the drained
        // vector's capacity for next time.
        std::mem::swap(&mut marks.rejects, &mut comp.kept);
    }
    // Then extend every anchor's scan past its recorded stop. New rejects
    // (still-estimated cutoff) accumulate into the same marks.
    comp.fresh.reset(marks.track_rejects);
    for (i, stop) in marks.left_stops.iter_mut().enumerate() {
        if (*stop as usize) < right.entries.len() {
            let anchor = left.entries[i];
            *stop = scan(
                &anchor,
                i,
                left,
                right,
                *stop as usize,
                true,
                axis,
                sink,
                stats,
                Some(&mut comp.fresh),
            ) as u32;
        }
    }
    for (i, stop) in marks.right_stops.iter_mut().enumerate() {
        if (*stop as usize) < left.entries.len() {
            let anchor = right.entries[i];
            *stop = scan(
                &anchor,
                i,
                left,
                right,
                *stop as usize,
                false,
                axis,
                sink,
                stats,
                Some(&mut comp.fresh),
            ) as u32;
        }
    }
    marks.rejects.append(&mut comp.fresh.rejects);
}

/// A parked expansion awaiting compensation: the expanded pair (its
/// refs and MBRs), the setup it was swept under, the marks, and a key
/// lower-bounding every unexamined pair's distance. The lists themselves
/// are not kept — [`SweepScratch::compensate`] gathers them again.
#[derive(Debug, PartialEq)]
pub(crate) struct CompEntry<const D: usize> {
    pub key: f64,
    pub setup: SweepSetup,
    pub pair: Pair<D>,
    pub marks: SweepMarks,
}

struct CompOrd<const D: usize> {
    seq: u64,
    entry: CompEntry<D>,
}

impl<const D: usize> PartialEq for CompOrd<D> {
    fn eq(&self, other: &Self) -> bool {
        self.entry.key == other.entry.key && self.seq == other.seq
    }
}
impl<const D: usize> Eq for CompOrd<D> {}
impl<const D: usize> PartialOrd for CompOrd<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for CompOrd<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by key, FIFO on ties.
        other
            .entry
            .key
            .total_cmp(&self.entry.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The compensation queue (`Q_C`). Holds only non-object node pairs, so —
/// as §4.4 argues — it is orders of magnitude smaller than the main queue
/// and kept in memory. That argument holds because an entry references
/// its node pair and keeps only its marks (a few hundred bytes at paper
/// fanout); entries that copied both sorted children lists (≈ 10 KB
/// each) made this queue the largest structure of a paper-scale join.
pub(crate) struct CompQueue<const D: usize> {
    heap: BinaryHeap<CompOrd<D>>,
    seq: u64,
}

impl<const D: usize> CompQueue<D> {
    pub(crate) fn new() -> Self {
        CompQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub(crate) fn push(&mut self, entry: CompEntry<D>, stats: &mut JoinStats) {
        stats.compq_insertions += 1;
        self.seq += 1;
        self.heap.push(CompOrd {
            seq: self.seq,
            entry,
        });
    }

    /// Re-enqueues an entry whose original park was already counted (a
    /// parallel stage-two worker receiving pooled compensation work): no
    /// stats impact. Entries seeded in `drain_sorted` order keep their
    /// relative FIFO order on equal keys.
    pub(crate) fn seed(&mut self, entry: CompEntry<D>) {
        self.seq += 1;
        self.heap.push(CompOrd {
            seq: self.seq,
            entry,
        });
    }

    pub(crate) fn pop(&mut self) -> Option<CompEntry<D>> {
        self.heap.pop().map(|c| c.entry)
    }

    pub(crate) fn peek_key(&self) -> Option<f64> {
        self.heap.peek().map(|c| c.entry.key)
    }

    /// Drains every parked entry, cheapest key first.
    pub(crate) fn drain_sorted(&mut self) -> Vec<CompEntry<D>> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdj_geom::Point;

    /// Collects every emitted pair; cutoffs are fixed.
    struct Collect<const D: usize> {
        axis: f64,
        real: f64,
        pairs: Vec<Pair<D>>,
    }

    impl<const D: usize> SweepSink<D> for Collect<D> {
        fn axis_cutoff(&self) -> f64 {
            self.axis
        }
        fn real_cutoff(&self) -> f64 {
            self.real
        }
        fn emit(&mut self, pair: Pair<D>) {
            self.pairs.push(pair);
        }
    }

    fn side(node: &Node<2>, setup: SweepSetup) -> SideBuf<2> {
        let mut buf = SideBuf::default();
        buf.fill_node(node, setup);
        buf
    }

    fn object_side(oid: u64, mbr: Rect<2>, setup: SweepSetup) -> SideBuf<2> {
        let mut buf = SideBuf::default();
        buf.hold(ItemRef::Object { oid }, &mbr, setup);
        buf
    }

    fn leaf(points: &[(f64, f64)], base_id: u64) -> Node<2> {
        Node::with_entries(
            0,
            points
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| amdj_rtree::Entry {
                    mbr: Rect::from_point(Point::new([x, y])),
                    child: base_id + i as u64,
                })
                .collect(),
        )
    }

    fn setup_fwd() -> SweepSetup {
        SweepSetup {
            axis: 0,
            dir: SweepDirection::Forward,
        }
    }

    fn brute_pairs(a: &[(f64, f64)], b: &[(f64, f64)], cutoff: f64) -> usize {
        let mut n = 0;
        for &(ax, ay) in a {
            for &(bx, by) in b {
                if ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() <= cutoff {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn sweep_finds_exactly_the_close_pairs() {
        let a_pts = [(0.0, 0.0), (1.0, 0.5), (4.0, 0.0), (9.0, 1.0)];
        let b_pts = [(0.5, 0.0), (3.5, 0.2), (8.0, 0.0)];
        let la = side(&leaf(&a_pts, 0), setup_fwd());
        let lb = side(&leaf(&b_pts, 100), setup_fwd());
        for cutoff in [0.4, 0.6, 1.2, 3.0, 100.0] {
            let mut sink = Collect {
                axis: cutoff,
                real: cutoff,
                pairs: vec![],
            };
            let mut stats = JoinStats::default();
            plane_sweep(
                la.view(),
                lb.view(),
                0,
                &mut sink,
                &mut stats,
                MarkMode::None,
            );
            assert_eq!(
                sink.pairs.len(),
                brute_pairs(&a_pts, &b_pts, cutoff),
                "cutoff = {cutoff}"
            );
            // Orientation: a is always from the left list.
            for p in &sink.pairs {
                assert!(matches!(p.a, ItemRef::Object { oid } if oid < 100));
                assert!(matches!(p.b, ItemRef::Object { oid } if oid >= 100));
            }
        }
    }

    #[test]
    fn sweep_prunes_axis_distance_early() {
        // Points spread along x; a small cutoff must keep the number of
        // real distance computations near-linear.
        let a_pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 0.0)).collect();
        let b_pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 + 0.5, 0.0)).collect();
        let la = side(&leaf(&a_pts, 0), setup_fwd());
        let lb = side(&leaf(&b_pts, 100), setup_fwd());
        let mut sink = Collect {
            axis: 1.0,
            real: 1.0,
            pairs: vec![],
        };
        let mut stats = JoinStats::default();
        plane_sweep(
            la.view(),
            lb.view(),
            0,
            &mut sink,
            &mut stats,
            MarkMode::None,
        );
        assert!(
            stats.real_dist < 200,
            "Cartesian would be 2500, sweep did {}",
            stats.real_dist
        );
        assert_eq!(sink.pairs.len(), brute_pairs(&a_pts, &b_pts, 1.0));
    }

    #[test]
    fn backward_direction_equivalent_results() {
        let a_pts = [(0.0, 0.0), (2.0, 0.0), (5.0, 0.0)];
        let b_pts = [(1.0, 0.0), (4.5, 0.0)];
        let fwd = SweepSetup {
            axis: 0,
            dir: SweepDirection::Forward,
        };
        let bwd = SweepSetup {
            axis: 0,
            dir: SweepDirection::Backward,
        };
        for setup in [fwd, bwd] {
            let la = side(&leaf(&a_pts, 0), setup);
            let lb = side(&leaf(&b_pts, 100), setup);
            let mut sink = Collect {
                axis: 1.1,
                real: 1.1,
                pairs: vec![],
            };
            let mut stats = JoinStats::default();
            plane_sweep(
                la.view(),
                lb.view(),
                0,
                &mut sink,
                &mut stats,
                MarkMode::None,
            );
            let mut dists: Vec<f64> = sink.pairs.iter().map(|p| p.dist).collect();
            dists.sort_unstable_by(f64::total_cmp);
            assert_eq!(dists, vec![0.5, 1.0, 1.0], "dir = {:?}", setup.dir);
        }
    }

    #[test]
    fn marks_plus_compensation_cover_everything() {
        // Aggressive sweep with a small cutoff, then compensation with an
        // infinite cutoff: together they must emit the full within-cutoff
        // set of the infinite run.
        let a_pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64 * 0.7, (i % 5) as f64)).collect();
        let b_pts: Vec<(f64, f64)> = (0..15)
            .map(|i| (i as f64 * 0.9 + 0.2, (i % 4) as f64))
            .collect();
        let la = side(&leaf(&a_pts, 0), setup_fwd());
        let lb = side(&leaf(&b_pts, 100), setup_fwd());

        let mut aggressive = Collect {
            axis: 1.0,
            real: f64::INFINITY,
            pairs: vec![],
        };
        let mut stats = JoinStats::default();
        let mut marks = plane_sweep(
            la.view(),
            lb.view(),
            0,
            &mut aggressive,
            &mut stats,
            MarkMode::Full,
        )
        .unwrap();

        let mut comp = Collect {
            axis: f64::INFINITY,
            real: f64::INFINITY,
            pairs: vec![],
        };
        compensation_sweep(la.view(), lb.view(), 0, &mut marks, &mut comp, &mut stats);
        assert!(marks.exhausted(la.entries.len(), lb.entries.len()));

        let total = aggressive.pairs.len() + comp.pairs.len();
        assert_eq!(total, 20 * 15, "every pair examined exactly once");
        // No duplicates between the two passes.
        let mut seen = std::collections::HashSet::new();
        for p in aggressive.pairs.iter().chain(comp.pairs.iter()) {
            let (ItemRef::Object { oid: a }, ItemRef::Object { oid: b }) = (p.a, p.b) else {
                panic!("objects expected")
            };
            assert!(seen.insert((a, b)), "duplicate pair {a},{b}");
        }
    }

    #[test]
    fn repeated_compensation_converges() {
        // Grow the cutoff stage by stage; each compensation examines only
        // the new shell.
        let a_pts: Vec<(f64, f64)> = (0..30).map(|i| (i as f64, 0.0)).collect();
        let b_pts: Vec<(f64, f64)> = (0..30).map(|i| (i as f64 + 0.3, 0.0)).collect();
        let la = side(&leaf(&a_pts, 0), setup_fwd());
        let lb = side(&leaf(&b_pts, 100), setup_fwd());
        let mut stats = JoinStats::default();
        let mut sink = Collect {
            axis: 1.0,
            real: f64::INFINITY,
            pairs: vec![],
        };
        let mut marks = plane_sweep(
            la.view(),
            lb.view(),
            0,
            &mut sink,
            &mut stats,
            MarkMode::Full,
        )
        .unwrap();
        let mut total = sink.pairs.len();
        for cutoff in [3.0, 9.0, f64::INFINITY] {
            let mut sink = Collect {
                axis: cutoff,
                real: f64::INFINITY,
                pairs: vec![],
            };
            compensation_sweep(la.view(), lb.view(), 0, &mut marks, &mut sink, &mut stats);
            total += sink.pairs.len();
        }
        assert_eq!(total, 30 * 30);
        assert!(marks.exhausted(30, 30));
    }

    #[test]
    fn singleton_object_list() {
        let setup = setup_fwd();
        let obj = object_side(7, Rect::from_point(Point::new([1.0, 1.0])), setup);
        let la = side(&leaf(&[(0.0, 1.0), (3.0, 1.0)], 0), setup);
        let mut sink = Collect {
            axis: 1.5,
            real: 1.5,
            pairs: vec![],
        };
        let mut stats = JoinStats::default();
        plane_sweep(
            la.view(),
            obj.view(),
            0,
            &mut sink,
            &mut stats,
            MarkMode::None,
        );
        assert_eq!(sink.pairs.len(), 1);
        assert_eq!(sink.pairs[0].dist, 1.0);
        assert_eq!(sink.pairs[0].b, ItemRef::Object { oid: 7 });
    }

    #[test]
    fn comp_queue_orders_by_key() {
        let mut stats = JoinStats::default();
        let mut q: CompQueue<2> = CompQueue::new();
        let unit = Rect::new([0.0, 0.0], [1.0, 1.0]);
        for (i, key) in [3.0, 1.0, 2.0, 1.0].into_iter().enumerate() {
            q.push(
                CompEntry {
                    key,
                    setup: setup_fwd(),
                    pair: Pair {
                        dist: key,
                        a: ItemRef::Node {
                            page: i as u64,
                            level: 1,
                        },
                        b: ItemRef::Object { oid: 7 },
                        a_mbr: unit,
                        b_mbr: unit,
                    },
                    marks: SweepMarks::default(),
                },
                &mut stats,
            );
        }
        assert_eq!(q.peek_key(), Some(1.0));
        // FIFO among equal keys: the first parked key-1 entry comes first.
        let first = q.pop().unwrap();
        assert_eq!(
            (first.key, first.pair.a),
            (1.0, ItemRef::Node { page: 1, level: 1 })
        );
        let second = q.pop().unwrap();
        assert_eq!(
            (second.key, second.pair.a),
            (1.0, ItemRef::Node { page: 3, level: 1 })
        );
        assert_eq!(q.pop().unwrap().key, 2.0);
        assert_eq!(q.pop().unwrap().key, 3.0);
        assert_eq!(stats.compq_insertions, 4);
        assert!(q.pop().is_none());
    }

    #[test]
    fn non_leaf_lists_produce_node_refs() {
        let node: Node<2> = Node::with_entries(
            2,
            vec![amdj_rtree::Entry {
                mbr: Rect::new([0.0, 0.0], [1.0, 1.0]),
                child: 55,
            }],
        );
        let l = side(&node, setup_fwd());
        assert!(!l.objects);
        let v = l.view();
        assert_eq!(
            v.item_ref(&v.entries[0]),
            ItemRef::Node { page: 55, level: 1 }
        );
    }

    #[test]
    fn scratch_reuses_buffers_and_parks_cleanly() {
        // Two expansions through the same scratch; the second must see
        // fresh state. Parking copies only the marks: the scratch keeps
        // its lists, and the replay re-fetches both nodes.
        let pts_a = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)];
        let pts_b = [(0.4, 0.0), (1.4, 0.0)];
        let tree = |pts: &[(f64, f64)], base: u64| {
            let items = pts
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (Rect::from_point(Point::new([x, y])), base + i as u64))
                .collect();
            RTree::<2>::bulk_load(amdj_rtree::RTreeParams::for_tests(), items)
        };
        let (r, s) = (tree(&pts_a, 0), tree(&pts_b, 100));
        assert_eq!((r.height(), s.height()), (1, 1), "one leaf per side");
        let pair = crate::engine::expand::root_pair(&r, &s).unwrap();
        // Axis 0, forward: the cutoff alone decides what is skipped.
        let cfg = JoinConfig {
            optimize_axis: false,
            optimize_direction: false,
            ..JoinConfig::unbounded()
        };
        let mut scratch: SweepScratch<2> = SweepScratch::new();
        let mut stats = JoinStats::default();
        scratch.expand(&r, &s, &pair, 0.5, &cfg);
        let mut sink = Collect {
            axis: 0.5,
            real: f64::INFINITY,
            pairs: vec![],
        };
        scratch.sweep(&mut sink, &mut stats, MarkMode::Full);
        assert!(!scratch.marks_exhausted(), "0.5 axis cutoff must truncate");
        let mut entry = scratch.park(1.0, &pair);
        assert_eq!(entry.pair, pair);
        assert_eq!(entry.setup, setup_fwd());
        assert_eq!(entry.marks, scratch.marks);
        assert_eq!(
            entry.marks.left_stops.capacity(),
            entry.marks.left_stops.len(),
            "parked marks are exact-size copies"
        );
        assert_eq!(
            (scratch.left.entries.len(), scratch.right.entries.len()),
            (3, 2)
        );

        // Scratch is immediately reusable for an unrelated expansion.
        let (a, b) = (leaf(&pts_a, 0), leaf(&pts_b, 100));
        scratch.expand_nodes(&b, &a, setup_fwd());
        let mut sink2 = Collect {
            axis: f64::INFINITY,
            real: f64::INFINITY,
            pairs: vec![],
        };
        scratch.sweep(&mut sink2, &mut stats, MarkMode::None);
        assert_eq!(sink2.pairs.len(), 6);

        // And the parked entry compensates through the same scratch,
        // fetching its node pair again.
        let before = r.access_stats().requests + s.access_stats().requests;
        let mut sink3 = Collect {
            axis: f64::INFINITY,
            real: f64::INFINITY,
            pairs: vec![],
        };
        assert!(scratch.compensate(&r, &s, &mut entry, &mut sink3, &mut stats));
        assert!(entry.marks.exhausted(3, 2));
        assert_eq!(sink.pairs.len() + sink3.pairs.len(), 6);
        assert_eq!(stats.comp_replays, 1);
        let after = r.access_stats().requests + s.access_stats().requests;
        assert_eq!(after - before, 2, "a replay fetches both sides");
    }

    /// A bulk-loaded test tree (fanout 6) over `n` points on a grid of
    /// pitch `pitch`, ids from `base`.
    fn grid_tree(n: u64, pitch: f64, base: u64) -> RTree<2> {
        let items = (0..n)
            .map(|i| {
                let p = Point::new([(i % 10) as f64 * pitch, (i / 10) as f64 * pitch]);
                (Rect::from_point(p), base + i)
            })
            .collect();
        RTree::<2>::bulk_load(amdj_rtree::RTreeParams::for_tests(), items)
    }

    /// The side the scratch laid out for `side` was held whole: one
    /// entry that is `side` itself, with the pair's MBR for it.
    fn assert_held(buf: &SideBuf<2>, side: ItemRef, mbr: Rect<2>) {
        let v = buf.view();
        assert_eq!(v.entries.len(), 1, "a held side is one entry");
        assert_eq!(v.item_ref(&v.entries[0]), side);
        assert_eq!(v.entries[0].mbr, mbr);
    }

    /// The side the scratch laid out for `side` was opened: the node's
    /// children, one level down.
    fn assert_opened(buf: &SideBuf<2>, tree: &RTree<2>, side: ItemRef) {
        let ItemRef::Node { page, level } = side else {
            panic!("only nodes open")
        };
        let node = tree.peek_node(PageId(page)).unwrap();
        assert_eq!(buf.entries.len(), node.entries.len());
        let v = buf.view();
        let want = |child| {
            if level == 0 {
                ItemRef::Object { oid: child }
            } else {
                ItemRef::Node {
                    page: child,
                    level: level - 1,
                }
            }
        };
        for e in v.entries {
            assert_eq!(v.item_ref(e), want(e.child));
        }
    }

    /// A ⟨node, node⟩ pair whose levels differ opens only the node with
    /// the larger MBR area, deeper or not, and holds the other as a
    /// one-entry list of itself: its page, its level, its MBR.
    #[test]
    fn unequal_levels_open_only_the_larger_node() {
        let mut scratch: SweepScratch<2> = SweepScratch::new();
        // 100 points fill three levels, 20 points two.
        let (deep_small, shallow_wide) = (grid_tree(100, 1.0, 0), grid_tree(20, 10.0, 500));
        let (deep_wide, shallow_small) = (grid_tree(100, 10.0, 0), grid_tree(20, 1.0, 500));
        assert_eq!((deep_small.height(), shallow_wide.height()), (3, 2));
        for (deep, shallow, deep_opens) in [
            (&deep_small, &shallow_wide, false),
            (&deep_wide, &shallow_small, true),
        ] {
            // Both orientations: the deeper tree as R, then as S.
            for deep_is_r in [true, false] {
                let (r, s) = if deep_is_r {
                    (deep, shallow)
                } else {
                    (shallow, deep)
                };
                let pair = crate::engine::expand::root_pair(r, s).unwrap();
                let left_opens = deep_opens == deep_is_r;
                assert_eq!(opened_sides(&pair), [left_opens, !left_opens]);
                scratch.load(r, s, &pair, setup_fwd());
                if left_opens {
                    assert_opened(&scratch.left, r, pair.a);
                    assert_held(&scratch.right, pair.b, pair.b_mbr);
                } else {
                    assert_held(&scratch.left, pair.a, pair.a_mbr);
                    assert_opened(&scratch.right, s, pair.b);
                }
            }
        }
    }

    /// Level-matched nodes open both sides (the paper's bidirectional
    /// expansion), whatever their areas; a ⟨node, object⟩ pair opens the
    /// node and holds the object, whichever side it is on.
    #[test]
    fn equal_levels_open_both_and_objects_are_held() {
        let (small, wide) = (grid_tree(20, 1.0, 0), grid_tree(20, 10.0, 500));
        let mut scratch: SweepScratch<2> = SweepScratch::new();
        let pair = crate::engine::expand::root_pair(&small, &wide).unwrap();
        assert_eq!(opened_sides(&pair), [true, true]);
        scratch.load(&small, &wide, &pair, setup_fwd());
        assert_opened(&scratch.left, &small, pair.a);
        assert_opened(&scratch.right, &wide, pair.b);

        // The object's MBR dwarfs the node's: objects are held anyway.
        let huge = Rect::new([-1e6, -1e6], [1e6, 1e6]);
        let node_object = Pair {
            b: ItemRef::Object { oid: 7 },
            b_mbr: huge,
            ..pair
        };
        assert_eq!(opened_sides(&node_object), [true, false]);
        scratch.load(&small, &wide, &node_object, setup_fwd());
        assert_opened(&scratch.left, &small, pair.a);
        assert_held(&scratch.right, node_object.b, huge);
        let object_node = Pair {
            a: ItemRef::Object { oid: 7 },
            a_mbr: huge,
            ..pair
        };
        assert_eq!(opened_sides(&object_node), [false, true]);
        scratch.load(&small, &wide, &object_node, setup_fwd());
        assert_held(&scratch.left, object_node.a, huge);
        assert_opened(&scratch.right, &wide, pair.b);
    }

    /// Replays gather exactly the lists the parked expansion swept, for
    /// every axis and direction — including ⟨node, object⟩ pairs, whose
    /// object side comes from the pair's own MBR, and unequal-level
    /// pairs, whose held node does too.
    #[test]
    fn replay_lists_match_the_parked_expansion() {
        let items: Vec<(Rect<2>, u64)> = (0..5)
            .map(|i| {
                let (x, y) = ((i * 7 % 5) as f64, (i * 3 % 5) as f64 * 0.5);
                (Rect::new([x, y], [x + 0.25, y + 1.0]), i)
            })
            .collect();
        let r = RTree::<2>::bulk_load(amdj_rtree::RTreeParams::for_tests(), items.clone());
        let s = RTree::<2>::bulk_load(amdj_rtree::RTreeParams::for_tests(), items);
        let deep = grid_tree(40, 0.1, 100);
        assert!(deep.height() > s.height());
        let root = crate::engine::expand::root_pair(&r, &s).unwrap();
        let obj = Pair {
            b: ItemRef::Object { oid: 42 },
            b_mbr: Rect::new([1.0, 1.0], [2.0, 2.0]),
            ..root
        };
        let uneven = crate::engine::expand::root_pair(&deep, &s).unwrap();
        let mut scratch: SweepScratch<2> = SweepScratch::new();
        let mut replay: SweepScratch<2> = SweepScratch::new();
        for (r, s, pair) in [(&r, &s, root), (&r, &s, obj), (&deep, &s, uneven)] {
            for axis in 0..2 {
                for dir in [SweepDirection::Forward, SweepDirection::Backward] {
                    let setup = SweepSetup { axis, dir };
                    scratch.load(r, s, &pair, setup);
                    let mut stats = JoinStats::default();
                    let mut sink = Collect {
                        axis: 0.0,
                        real: f64::INFINITY,
                        pairs: vec![],
                    };
                    scratch.sweep(&mut sink, &mut stats, MarkMode::Full);
                    let mut entry = scratch.park(pair.dist, &pair);
                    let mut rest = Collect {
                        axis: f64::INFINITY,
                        real: f64::INFINITY,
                        pairs: vec![],
                    };
                    assert!(replay.compensate(r, s, &mut entry, &mut rest, &mut stats));
                    for (got, want) in [
                        (&replay.left, &scratch.left),
                        (&replay.right, &scratch.right),
                    ] {
                        assert_eq!(got.entries, want.entries, "axis {axis} {dir:?}");
                        assert_eq!(
                            (got.objects, got.child_level),
                            (want.objects, want.child_level)
                        );
                    }
                    let n = scratch.left.entries.len() * scratch.right.entries.len();
                    assert_eq!(sink.pairs.len() + rest.pairs.len(), n);
                }
            }
        }
    }

    /// A sink whose real cutoff tightens on every emit, the way `qDmax`
    /// does as results enter the distance queue: it moves halfway to the
    /// emitted distance. `frozen` fixes the axis cutoff (aggressive stage
    /// one); otherwise the axis cutoff is the live real cutoff.
    struct Tightening {
        frozen: Option<f64>,
        real: f64,
        pairs: Vec<Pair<2>>,
    }

    impl SweepSink<2> for Tightening {
        fn axis_cutoff(&self) -> f64 {
            self.frozen.unwrap_or(self.real)
        }
        fn real_cutoff(&self) -> f64 {
            self.real
        }
        fn fixed_axis_cutoff(&self) -> Option<f64> {
            self.frozen
        }
        fn emit(&mut self, pair: Pair<2>) {
            self.real = (self.real + pair.dist) / 2.0;
            self.pairs.push(pair);
        }
    }

    /// What one sweep produced: emitted pairs, rejects, both stop lists
    /// and the distance counts.
    type Outcome = (Vec<Pair<2>>, Vec<Reject>, Vec<u32>, Vec<u32>, u64, u64);

    /// The plain per-candidate sweep: both cutoffs are read for every
    /// partner, straight from the sink.
    fn reference_sweep(
        left: SweepSide<'_, 2>,
        right: SweepSide<'_, 2>,
        sink: &mut Tightening,
        track: bool,
    ) -> Outcome {
        let (mut rejects, mut stops) = (Vec::new(), [Vec::new(), Vec::new()]);
        let (mut real_n, mut axis_n) = (0, 0);
        let (mut li, mut ri) = (0, 0);
        while li < left.entries.len() && ri < right.entries.len() {
            let anchor_is_left = left.entries[li].key <= right.entries[ri].key;
            let (anchor_idx, from) = if anchor_is_left { (li, ri) } else { (ri, li) };
            let (anchor, partners) = if anchor_is_left {
                (left.entries[li], right.entries)
            } else {
                (right.entries[ri], left.entries)
            };
            let mut stop = partners.len();
            for (j, m) in partners.iter().enumerate().skip(from) {
                axis_n += 1;
                if anchor.mbr.axis_dist(&m.mbr, 0) > sink.axis_cutoff() {
                    stop = j;
                    break;
                }
                real_n += 1;
                let dist = anchor.mbr.min_dist(&m.mbr);
                let (l, r) = if anchor_is_left {
                    (anchor_idx, j)
                } else {
                    (j, anchor_idx)
                };
                if dist <= sink.real_cutoff() {
                    let (le, re) = (&left.entries[l], &right.entries[r]);
                    sink.emit(Pair {
                        dist,
                        a: left.item_ref(le),
                        b: right.item_ref(re),
                        a_mbr: le.mbr,
                        b_mbr: re.mbr,
                    });
                } else if track {
                    rejects.push(Reject {
                        left: l as u32,
                        right: r as u32,
                        dist,
                    });
                }
            }
            stops[usize::from(!anchor_is_left)].push(stop as u32);
            if anchor_is_left {
                li += 1;
            } else {
                ri += 1;
            }
        }
        let [left_stops, right_stops] = stops;
        let pairs = std::mem::take(&mut sink.pairs);
        (pairs, rejects, left_stops, right_stops, real_n, axis_n)
    }

    /// Reading the cutoffs once per anchor and again only after each
    /// emit is the per-candidate sweep, as long as only `emit` tightens
    /// them: same pairs, rejects, stops and distance counts, under both
    /// recording modes and with a frozen or a live axis cutoff.
    #[test]
    fn one_cutoff_read_per_emit_matches_the_per_candidate_sweep() {
        // A small deterministic scatter of points, 40 per side.
        let mut x = 12_345u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 11) as f64 / (1u64 << 53) as f64 * 10.0
        };
        let a_pts: Vec<(f64, f64)> = (0..40).map(|_| (next(), next())).collect();
        let b_pts: Vec<(f64, f64)> = (0..40).map(|_| (next(), next())).collect();
        let (la, lb) = (
            side(&leaf(&a_pts, 0), setup_fwd()),
            side(&leaf(&b_pts, 100), setup_fwd()),
        );
        for mode in [MarkMode::Suffix, MarkMode::Full] {
            for frozen in [Some(2.0), None] {
                let fresh = || Tightening {
                    frozen,
                    real: 4.0,
                    pairs: vec![],
                };
                let mut sink = fresh();
                let mut stats = JoinStats::default();
                let marks = plane_sweep(la.view(), lb.view(), 0, &mut sink, &mut stats, mode)
                    .expect("recording mode");
                let got: Outcome = (
                    sink.pairs,
                    marks.rejects,
                    marks.left_stops,
                    marks.right_stops,
                    stats.real_dist,
                    stats.axis_dist,
                );
                let want =
                    reference_sweep(la.view(), lb.view(), &mut fresh(), mode == MarkMode::Full);
                assert!(
                    want.0.len() > 10 && want.0.len() < 40 * 40,
                    "the cutoff must prune some pairs but not all ({} emitted)",
                    want.0.len()
                );
                assert_eq!(mode == MarkMode::Full, !want.1.is_empty(), "{mode:?}");
                assert_eq!(got, want, "{mode:?}, frozen axis {frozen:?}");
            }
        }
    }

    /// The one-sided key stop must agree with a linear scan of the
    /// two-sided [`Rect::axis_dist`] test wherever a scan can start: for
    /// both directions and axes, every anchor of either list, every start
    /// at or after the anchor, and every resume position a compensation
    /// pass reaches from an earlier, narrower window. The rectangles mix
    /// signed zeros, equal keys, points, nesting and overlap.
    #[test]
    fn axis_window_stop_matches_linear_scan() {
        let rects = |spans: &[(f64, f64, f64)], base: u64| -> Node<2> {
            let entries = spans
                .iter()
                .enumerate()
                .map(|(i, &(lo, hi, y))| amdj_rtree::Entry {
                    mbr: Rect::new([lo, y], [hi, y + (hi - lo)]),
                    child: base + i as u64,
                })
                .collect();
            Node::with_entries(0, entries)
        };
        let a = rects(
            &[
                (-0.0, 0.0, -1.0),
                (0.0, 0.0, 0.0),
                (0.0, 2.0, -0.0),
                (-1.5, -0.0, -2.0),
                (0.5, 0.75, 0.5),
                (0.5, 4.0, 0.5),
                (3.0, 3.0, 1.0),
            ],
            0,
        );
        let b = rects(
            &[
                (0.0, 0.5, 0.0),
                (-0.0, -0.0, 2.0),
                (0.25, 1.0, -0.5),
                (0.5, 0.5, 0.5),
                (-2.0, 5.0, -3.0),
                (1.0, 1.25, 0.0),
                (2.5, 3.5, 1.5),
                (6.0, 6.0, 0.0),
            ],
            100,
        );
        let windows = [-0.0, 0.0, 0.25, 0.5, 1.0, 2.75, f64::INFINITY];
        let mut checked = 0;
        for axis in 0..2 {
            for dir in [SweepDirection::Forward, SweepDirection::Backward] {
                let setup = SweepSetup { axis, dir };
                let (la, lb) = (side(&a, setup), side(&b, setup));
                for (anchors, partners) in [(la.view(), lb.view()), (lb.view(), la.view())] {
                    let n = partners.entries.len();
                    for anchor in anchors.entries {
                        let reach = anchors.reach(anchor, axis);
                        let want = |from: usize, w: f64| {
                            (from..n)
                                .find(|&j| anchor.mbr.axis_dist(&partners.entries[j].mbr, axis) > w)
                                .unwrap_or(n)
                        };
                        // Scans start at the first partner keyed at or
                        // after the anchor, or later.
                        let first = partners.entries.partition_point(|m| m.key < anchor.key);
                        for from in first..=n {
                            for (i, &w) in windows.iter().enumerate() {
                                let got = window_stop(partners.entries, from, reach, w);
                                assert_eq!(got, want(from, w), "{setup:?} from={from} w={w}");
                                // A compensation pass resumes at the
                                // narrower window's stop.
                                for &wider in &windows[i..] {
                                    assert_eq!(
                                        window_stop(partners.entries, got, reach, wider),
                                        want(from, wider),
                                        "{setup:?} from={from} w={w} resumed at {wider}"
                                    );
                                }
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 500, "only {checked} starts checked");
    }
}
