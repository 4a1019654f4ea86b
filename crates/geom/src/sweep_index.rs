//! The *sweeping index* (paper §3.2, Equation 2, Table 1) and the sweep
//! *direction* rule (§3.3).
//!
//! For a node pair ⟨r, s⟩ about to be expanded bidirectionally, the paper
//! defines, per dimension `x`:
//!
//! ```text
//! SweepingIndex_x = ∫₀^{|r|ₓ} Overlap(qDmax, r, t) / |s|ₓ dt
//!                 + ∫₀^{|s|ₓ} Overlap(qDmax, s, t) / |r|ₓ dt
//! ```
//!
//! where `Overlap(w, r, t)` is the length of `s`'s projection covered by a
//! window `[t, t + w]` whose left end sweeps across `r`'s projection. The
//! index is a normalized estimate of how many child pairs will need real
//! distance computations if dimension `x` is chosen as the sweeping axis;
//! the axis with the *minimum* index is chosen.
//!
//! Rather than transcribing Table 1's case analysis (which covers only
//! disjoint projections), we integrate the piecewise-linear overlap function
//! exactly for *all* configurations — disjoint, overlapping, and contained —
//! which both subsumes Table 1 and is validated against it (and against
//! numeric integration) in the tests below.
//!
//! # A zero cutoff
//!
//! At `qDmax = 0` (inside a distance-0 tie group) the window has no
//! length, so every axis's index is 0 unless two degenerate projections
//! coincide. [`choose_sweep_axis`] then ranks the axes by the right-hand
//! limit of Equation (2): the index at 0 first, ties broken by its slope
//! `d(index)/dw` at `0⁺`. Per term that slope is `|r∩s|ₓ / (|r|ₓ·|s|ₓ)`
//! for two non-degenerate projections — the overlap fraction that a tiny
//! window still meets — `1/|r|ₓ` (or `1/|s|ₓ`) when one side is a point
//! inside the other, and 0 otherwise. This is the same limit argument as
//! the non-finite-cutoff rule, taken at the other end.

use crate::Rect;

/// The direction a plane sweep scans child entries in (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepDirection {
    /// Scan in increasing coordinate order along the sweeping axis.
    Forward,
    /// Scan in decreasing coordinate order along the sweeping axis.
    Backward,
}

/// Exact value of `∫ overlap([u, u+w], [s0, s1]) du` for `u ∈ [r0, r1]`.
///
/// The integrand `f(u) = max(0, min(u+w, s1) - max(u, s0))` is piecewise
/// linear with breakpoints at `u = s0`, `u = s1 - w` and the zero crossings
/// of `min(u+w, s1) - max(u, s0)`; we integrate each linear piece in closed
/// form.
fn overlap_integral(r0: f64, r1: f64, s0: f64, s1: f64, w: f64) -> f64 {
    debug_assert!(r1 >= r0 && s1 >= s0 && w >= 0.0);
    if r1 == r0 {
        return 0.0;
    }
    // h(u) = min(u + w, s1) - max(u, s0); f = max(0, h).
    let h = |u: f64| (u + w).min(s1) - u.max(s0);
    // Sort the interior breakpoints into [r0, r1].
    let mut cuts = [r0, r1, s0.clamp(r0, r1), (s1 - w).clamp(r0, r1)];
    cuts.sort_unstable_by(f64::total_cmp);
    let mut total = 0.0;
    for i in 0..cuts.len() - 1 {
        let (a, b) = (cuts[i], cuts[i + 1]);
        if b <= a {
            continue;
        }
        let (ha, hb) = (h(a), h(b));
        // h is linear on [a, b]; integrate max(0, h).
        total += if ha >= 0.0 && hb >= 0.0 {
            0.5 * (ha + hb) * (b - a)
        } else if ha <= 0.0 && hb <= 0.0 {
            0.0
        } else {
            // One zero crossing at c = a + (b - a) * ha / (ha - hb).
            let c = a + (b - a) * ha / (ha - hb);
            if ha > 0.0 {
                0.5 * ha * (c - a)
            } else {
                0.5 * hb * (b - c)
            }
        };
    }
    total
}

/// One integral term of Equation (2), normalized by the anchor extent: the
/// expected fraction of `s`-children encountered per `r`-anchor, along `dim`.
///
/// Equation (2) as printed integrates `Overlap/|s|` over `t ∈ [0, |r|ₓ]`
/// without dividing by `|r|ₓ`. Taken literally the index then scales with
/// the extent length and *prefers the shorter axis*, contradicting the
/// paper's own Figure 5 discussion (child nodes spread widely along `y` ⇒
/// choose `y`). Reading "a normalized estimation of the number of node
/// pairs" as intended, each integral must be averaged over its anchor
/// extent — anchors are spread across `|r|ₓ` — which is what we implement;
/// the resulting index is the expected *fraction of child pairs* needing a
/// real distance computation (range `[0, 2]`).
///
/// Degenerate projections are handled so the index stays meaningful:
/// * `|s| = 0`: the fraction becomes an indicator (the window either covers
///   the point or not), integrating to the length of `[s0 - w, s0] ∩ [r0, r1]`,
/// * `|r| = 0`: the sweep has a single anchor position, so we use the
///   integrand's value at that position instead of an integral over a
///   zero-length interval.
fn one_term(r0: f64, r1: f64, s0: f64, s1: f64, w: f64) -> f64 {
    let rlen = r1 - r0;
    let slen = s1 - s0;
    if slen == 0.0 {
        // Indicator: window [u, u+w] covers the point s0 iff u ∈ [s0-w, s0].
        if rlen == 0.0 {
            return if r0 >= s0 - w && r0 <= s0 { 1.0 } else { 0.0 };
        }
        let lo = (s0 - w).max(r0);
        let hi = s0.min(r1);
        return ((hi - lo).max(0.0)) / rlen;
    }
    if rlen == 0.0 {
        // Point anchor: evaluate the overlap fraction at u = r0.
        let f = ((r0 + w).min(s1) - r0.max(s0)).max(0.0);
        return f / slen;
    }
    overlap_integral(r0, r1, s0, s1, w) / (slen * rlen)
}

/// The sweeping index of Equation (2) for dimension `dim`, window (cutoff)
/// length `w`, normalized per anchor extent (see `one_term`): the expected
/// fraction of child pairs that will need a real distance computation if
/// `dim` is the sweeping axis. Lower is better.
pub fn sweeping_index<const D: usize>(r: &Rect<D>, s: &Rect<D>, w: f64, dim: usize) -> f64 {
    let (r0, r1) = (r.lo()[dim], r.hi()[dim]);
    let (s0, s1) = (s.lo()[dim], s.hi()[dim]);
    one_term(r0, r1, s0, s1, w) + one_term(s0, s1, r0, r1, w)
}

/// The right-hand slope of one [`one_term`] at `w = 0`:
/// `lim_{h→0⁺} (one_term(…, h) − one_term(…, 0)) / h`.
///
/// A window `[u, u+h]` whose start sweeps `[r0, r1]` covers `h` of
/// `[s0, s1]` wherever `u` lies in both, so the integral grows like
/// `h·|r∩s|`; a point `s0` is met from anchors in `(s0 − h, s0]`, a
/// point anchor `r0` meets `[r0, r0 + h) ∩ [s0, s1]`. Two points give a
/// step (no slope).
fn one_term_slope(r0: f64, r1: f64, s0: f64, s1: f64) -> f64 {
    let rlen = r1 - r0;
    let slen = s1 - s0;
    match (rlen == 0.0, slen == 0.0) {
        (true, true) => 0.0,
        (false, true) if r0 < s0 && s0 <= r1 => 1.0 / rlen,
        (true, false) if s0 <= r0 && r0 < s1 => 1.0 / slen,
        (false, false) => (r1.min(s1) - r0.max(s0)).max(0.0) / (rlen * slen),
        _ => 0.0,
    }
}

/// The slope `d(index)/dw` of [`sweeping_index`] at `w = 0⁺` for
/// dimension `dim`: how fast the fraction of child pairs needing a real
/// distance grows as the window opens. [`choose_sweep_axis`] breaks ties
/// between axes with it when the cutoff is 0.
fn sweeping_index_slope<const D: usize>(r: &Rect<D>, s: &Rect<D>, dim: usize) -> f64 {
    let (r0, r1) = (r.lo()[dim], r.hi()[dim]);
    let (s0, s1) = (s.lo()[dim], s.hi()[dim]);
    one_term_slope(r0, r1, s0, s1) + one_term_slope(s0, s1, r0, r1)
}

/// The probability that two independent uniform points — one on segment
/// `[a0, a1]`, one on `[b0, b1]` — lie within `d` of each other along the
/// axis. Degenerate (zero-length) segments are treated as point masses.
///
/// This is the per-axis building block for separable pair-selectivity
/// models (e.g. the histogram `eDmax` estimator in `amdj-core`).
pub fn axis_within_probability(a0: f64, a1: f64, b0: f64, b1: f64, d: f64) -> f64 {
    debug_assert!(a1 >= a0 && b1 >= b0 && d >= 0.0);
    let (la, lb) = (a1 - a0, b1 - b0);
    if la == 0.0 && lb == 0.0 {
        return if (a0 - b0).abs() <= d { 1.0 } else { 0.0 };
    }
    if la == 0.0 {
        // Point vs segment: the fraction of [b0, b1] within d of a0.
        let lo = (a0 - d).max(b0);
        let hi = (a0 + d).min(b1);
        return ((hi - lo).max(0.0)) / lb;
    }
    if lb == 0.0 {
        return axis_within_probability(b0, b0, a0, a1, d);
    }
    // |u − v| ≤ d  ⇔  v ∈ [u − d, u + d]: a window of length 2d whose
    // start sweeps [a0 − d, a1 − d].
    overlap_integral(a0 - d, a1 - d, b0, b1, 2.0 * d) / (la * lb)
}

/// Chooses the sweeping axis: the dimension with the minimum sweeping index
/// (§3.2). `w` is the current pruning cutoff (`qDmax`, or `eDmax` during the
/// aggressive stage). A non-finite `w` (no cutoff known yet) falls back to
/// the dimension with the larger combined spread, which is the limit
/// behaviour of the index. A zero `w` ranks the axes by the index's
/// right-hand limit: the index at 0, ties broken by its slope at 0⁺.
pub fn choose_sweep_axis<const D: usize>(r: &Rect<D>, s: &Rect<D>, w: f64) -> usize {
    if D == 1 {
        return 0;
    }
    if !w.is_finite() {
        // With an unbounded window every pair must be examined; prefer the
        // widest spread so a finite cutoff later prunes best.
        let mut best = 0;
        let mut best_spread = f64::MIN;
        for d in 0..D {
            let spread = r.union(s).side(d);
            if spread > best_spread {
                best_spread = spread;
                best = d;
            }
        }
        return best;
    }
    let mut best = 0;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for d in 0..D {
        // Every axis's slope counts as 0 at w > 0, so there only the
        // index ranks.
        let slope = if w == 0.0 {
            sweeping_index_slope(r, s, d)
        } else {
            0.0
        };
        let key = (sweeping_index(r, s, w, d), slope);
        if key < best_key {
            best_key = key;
            best = d;
        }
    }
    best
}

/// Chooses the sweeping direction (§3.3).
///
/// Project both nodes on the sweeping axis; of the three consecutive
/// intervals the four endpoints induce, compare the leftmost and rightmost:
/// if the left interval is shorter, sweep forward, else backward. This makes
/// close pairs meet early, driving `qDmax` down fast.
pub fn choose_sweep_direction<const D: usize>(
    r: &Rect<D>,
    s: &Rect<D>,
    dim: usize,
) -> SweepDirection {
    let mut ends = [r.lo()[dim], r.hi()[dim], s.lo()[dim], s.hi()[dim]];
    ends.sort_unstable_by(f64::total_cmp);
    let left = ends[1] - ends[0];
    let right = ends[3] - ends[2];
    if left < right {
        SweepDirection::Forward
    } else {
        SweepDirection::Backward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numeric (midpoint-rule) reference for the overlap integral.
    fn numeric_overlap_integral(r0: f64, r1: f64, s0: f64, s1: f64, w: f64) -> f64 {
        let n = 200_000;
        let step = (r1 - r0) / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let u = r0 + (i as f64 + 0.5) * step;
            let f = ((u + w).min(s1) - u.max(s0)).max(0.0);
            acc += f * step;
        }
        acc
    }

    #[test]
    fn integral_matches_numeric_disjoint() {
        // r = [0, 4], s = [7, 10] (alpha = 3), varying window lengths.
        for &w in &[0.0, 1.0, 2.5, 3.0, 3.5, 5.0, 6.5, 7.0, 8.0, 12.0, 20.0] {
            let exact = overlap_integral(0.0, 4.0, 7.0, 10.0, w);
            let numeric = numeric_overlap_integral(0.0, 4.0, 7.0, 10.0, w);
            assert!(
                (exact - numeric).abs() < 1e-4,
                "w={w}: exact={exact} numeric={numeric}"
            );
        }
    }

    #[test]
    fn integral_matches_numeric_overlapping() {
        // Overlapping projections r = [0, 6], s = [4, 9].
        for &w in &[0.0, 0.5, 1.0, 2.0, 4.0, 5.0, 9.0, 15.0] {
            let exact = overlap_integral(0.0, 6.0, 4.0, 9.0, w);
            let numeric = numeric_overlap_integral(0.0, 6.0, 4.0, 9.0, w);
            assert!(
                (exact - numeric).abs() < 1e-4,
                "w={w}: exact={exact} numeric={numeric}"
            );
        }
    }

    #[test]
    fn integral_matches_numeric_contained() {
        // s contained in r: r = [0, 10], s = [3, 5].
        for &w in &[0.0, 0.5, 1.0, 2.0, 3.0, 6.0, 11.0] {
            let exact = overlap_integral(0.0, 10.0, 3.0, 5.0, w);
            let numeric = numeric_overlap_integral(0.0, 10.0, 3.0, 5.0, w);
            assert!(
                (exact - numeric).abs() < 1e-4,
                "w={w}: exact={exact} numeric={numeric}"
            );
        }
    }

    #[test]
    fn integral_matches_numeric_s_before_r() {
        // s entirely before r — the window never reaches s.
        for &w in &[0.5, 2.0, 5.0] {
            let exact = overlap_integral(10.0, 14.0, 0.0, 3.0, w);
            let numeric = numeric_overlap_integral(10.0, 14.0, 0.0, 3.0, w);
            assert!((exact - numeric).abs() < 1e-4);
        }
    }

    #[test]
    fn table1_case_zero_window() {
        // qDmax <= alpha: term is 0.
        let slen = 3.0;
        let term = overlap_integral(0.0, 4.0, 7.0, 10.0, 2.0) / slen;
        assert_eq!(term, 0.0);
    }

    #[test]
    fn table1_case_small_window() {
        // alpha < qDmax <= |r|+alpha, qDmax < |s|+alpha:
        // term = (qD - alpha)^2 / (2|s|).
        let (rlen, slen, alpha) = (4.0, 3.0, 3.0);
        let w = 5.0; // alpha < 5 <= 7, 5 < 6
        let term = overlap_integral(0.0, rlen, rlen + alpha, rlen + alpha + slen, w) / slen;
        let expected = (w - alpha) * (w - alpha) / (2.0 * slen);
        assert!(
            (term - expected).abs() < 1e-10,
            "term={term} expected={expected}"
        );
        // NOTE: Table 1 as printed subtracts |s|/2 in this sub-case, which
        // disagrees with direct integration (and with the numeric reference
        // tested above); we follow the exact integral.
    }

    #[test]
    fn table1_case_window_covers_s() {
        // The right diagram of Figure 6: |s|+alpha <= qDmax <= |r|+alpha.
        // Exact: ((w-a)^2 - (w-a-|s|)^2) / (2|s|) — the trapezoid the figure
        // shades.
        let (rlen, slen, alpha) = (8.0, 2.0, 1.0);
        let w = 5.0; // |s|+alpha = 3 <= 5 <= 9 = |r|+alpha
        let term = overlap_integral(0.0, rlen, rlen + alpha, rlen + alpha + slen, w) / slen;
        let expected = ((w - alpha).powi(2) - (w - alpha - slen).powi(2)) / (2.0 * slen);
        assert!(
            (term - expected).abs() < 1e-10,
            "term={term} expected={expected}"
        );
    }

    #[test]
    fn wider_spread_gives_smaller_index() {
        // Child nodes spread widely along y (Figure 5): y is the better axis.
        let r: Rect<2> = Rect::new([0.0, 0.0], [2.0, 40.0]);
        let s: Rect<2> = Rect::new([1.0, 10.0], [3.0, 60.0]);
        let w = 3.0;
        let ix = sweeping_index(&r, &s, w, 0);
        let iy = sweeping_index(&r, &s, w, 1);
        assert!(iy < ix, "ix={ix} iy={iy}");
        assert_eq!(choose_sweep_axis(&r, &s, w), 1);
    }

    #[test]
    fn axis_choice_unbounded_window() {
        let r: Rect<2> = Rect::new([0.0, 0.0], [10.0, 1.0]);
        let s: Rect<2> = Rect::new([5.0, 0.5], [20.0, 2.0]);
        assert_eq!(choose_sweep_axis(&r, &s, f64::INFINITY), 0);
    }

    /// The right-hand difference quotient of the sweeping index at 0.
    fn difference_quotient(r: &Rect<2>, s: &Rect<2>, h: f64) -> f64 {
        (sweeping_index(r, s, h, 0) - sweeping_index(r, s, 0.0, 0)) / h
    }

    #[test]
    fn zero_window_slope_matches_difference_quotient() {
        let seg = |a: f64, b: f64| Rect::<2>::new([a, 0.0], [b, 1.0]);
        // (r, s, expected slope along x): per term |r∩s|/(|r||s|), or
        // 1/|segment| for a point inside the segment's half-open span.
        let cases = [
            ("disjoint", seg(0.0, 4.0), seg(7.0, 10.0), 0.0),
            ("touching", seg(0.0, 4.0), seg(4.0, 8.0), 0.0),
            ("overlap", seg(0.0, 6.0), seg(4.0, 9.0), 2.0 * 2.0 / 30.0),
            ("contained", seg(0.0, 10.0), seg(3.0, 5.0), 2.0 * 2.0 / 20.0),
            ("point inside", seg(3.0, 3.0), seg(0.0, 10.0), 2.0 / 10.0),
            ("point at lo", seg(0.0, 0.0), seg(0.0, 10.0), 1.0 / 10.0),
            ("point at hi", seg(10.0, 10.0), seg(0.0, 10.0), 1.0 / 10.0),
            ("point outside", seg(12.0, 12.0), seg(0.0, 10.0), 0.0),
            ("same point", seg(2.0, 2.0), seg(2.0, 2.0), 0.0),
            ("two points", seg(2.0, 2.0), seg(3.0, 3.0), 0.0),
        ];
        for (name, r, s, want) in cases {
            let slope = sweeping_index_slope(&r, &s, 0);
            assert!((slope - want).abs() < 1e-12, "{name}: {slope} vs {want}");
            assert_eq!(slope, sweeping_index_slope(&s, &r, 0), "{name}: symmetric");
            // The quotient's error is O(h) (the window's partial
            // overlaps at the ends of r∩s), plus rounding.
            for h in [1e-3, 1e-5, 1e-7] {
                let q = difference_quotient(&r, &s, h);
                assert!(
                    (q - slope).abs() <= h + 1e-7,
                    "{name}, h={h}: quotient {q} vs slope {slope}"
                );
            }
        }
        // Only coincident degenerate projections score above 0 at w = 0.
        assert_eq!(sweeping_index(&seg(2.0, 2.0), &seg(2.0, 2.0), 0.0, 0), 2.0);
        assert_eq!(sweeping_index(&seg(0.0, 6.0), &seg(4.0, 9.0), 0.0, 0), 0.0);
    }

    #[test]
    fn zero_window_picks_smaller_overlap_fraction() {
        // Figure 5's pair: the children spread widely along y, where the
        // projections overlap in a far smaller fraction of their extents
        // (30/(40·50) against 1/(2·2)), so y wins at a zero cutoff too.
        let r: Rect<2> = Rect::new([0.0, 0.0], [2.0, 40.0]);
        let s: Rect<2> = Rect::new([1.0, 10.0], [3.0, 60.0]);
        assert_eq!(sweeping_index(&r, &s, 0.0, 0), 0.0);
        assert_eq!(sweeping_index(&r, &s, 0.0, 1), 0.0);
        assert_eq!(choose_sweep_axis(&r, &s, 0.0), 1);
        // Transposed, x wins: the rule reads the geometry, not an axis.
        let t = |q: &Rect<2>| Rect::new([q.lo()[1], q.lo()[0]], [q.hi()[1], q.hi()[0]]);
        assert_eq!(choose_sweep_axis(&t(&r), &t(&s), 0.0), 0);
        // A coincident degenerate projection scores 2 at w = 0 and loses
        // to any other axis, whatever the slopes.
        let p: Rect<2> = Rect::new([5.0, 0.0], [5.0, 10.0]);
        let q: Rect<2> = Rect::new([5.0, 2.0], [5.0, 8.0]);
        assert_eq!(choose_sweep_axis(&p, &q, 0.0), 1);
    }

    #[test]
    fn positive_window_choices_unchanged() {
        // The choice at w > 0 is the first axis with the least index,
        // exactly as before the zero-window rule. Every pair of integer
        // rectangles in [0, 3]², degenerate ones included.
        let spans: Vec<(f64, f64)> = (0..4)
            .flat_map(|a| (a..4).map(move |b| (a as f64, b as f64)))
            .collect();
        let rects: Vec<Rect<2>> = spans
            .iter()
            .flat_map(|&(x0, x1)| {
                spans
                    .iter()
                    .map(move |&(y0, y1)| Rect::new([x0, y0], [x1, y1]))
            })
            .collect();
        for r in &rects {
            for s in &rects {
                for w in [0.25, 1.0, 2.5, 5.0] {
                    let (ix, iy) = (sweeping_index(r, s, w, 0), sweeping_index(r, s, w, 1));
                    let old = if iy < ix { 1 } else { 0 };
                    assert_eq!(choose_sweep_axis(r, s, w), old, "{r:?} {s:?} w={w}");
                }
            }
        }
    }

    #[test]
    fn direction_rule() {
        // r's left overhang shorter than s's right overhang -> Forward.
        let r: Rect<2> = Rect::new([0.0, 0.0], [4.0, 1.0]);
        let s: Rect<2> = Rect::new([1.0, 0.0], [10.0, 1.0]);
        assert_eq!(choose_sweep_direction(&r, &s, 0), SweepDirection::Forward);
        // Mirror image -> Backward.
        let r2: Rect<2> = Rect::new([6.0, 0.0], [10.0, 1.0]);
        let s2: Rect<2> = Rect::new([0.0, 0.0], [9.0, 1.0]);
        assert_eq!(
            choose_sweep_direction(&r2, &s2, 0),
            SweepDirection::Backward
        );
    }

    #[test]
    fn direction_rule_symmetric_is_backward() {
        // Equal intervals: left not shorter than right -> Backward (per the
        // paper's "otherwise" branch).
        let r: Rect<2> = Rect::new([0.0, 0.0], [4.0, 1.0]);
        let s: Rect<2> = Rect::new([0.0, 0.0], [4.0, 1.0]);
        assert_eq!(choose_sweep_direction(&r, &s, 0), SweepDirection::Backward);
    }

    #[test]
    fn index_is_symmetric_in_r_and_s() {
        let r: Rect<2> = Rect::new([0.0, 0.0], [5.0, 3.0]);
        let s: Rect<2> = Rect::new([7.0, 1.0], [9.0, 8.0]);
        for d in 0..2 {
            let a = sweeping_index(&r, &s, 2.5, d);
            let b = sweeping_index(&s, &r, 2.5, d);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_rects_do_not_panic() {
        let p: Rect<2> = Rect::new([1.0, 1.0], [1.0, 1.0]);
        let q: Rect<2> = Rect::new([2.0, 1.0], [2.0, 1.0]);
        let idx = sweeping_index(&p, &q, 3.0, 0);
        assert!(idx.is_finite());
        // Window covers the other point from the single anchor position.
        assert!(idx > 0.0);
        let far: Rect<2> = Rect::new([100.0, 1.0], [100.0, 1.0]);
        assert_eq!(sweeping_index(&p, &far, 3.0, 0), 0.0);
        let _ = choose_sweep_axis(&p, &q, 3.0);
        let _ = choose_sweep_direction(&p, &q, 0);
    }

    #[test]
    fn axis_within_probability_cases() {
        // Identical unit segments: P(|u−v| ≤ d) = 2d − d² for d ≤ 1.
        for d in [0.1, 0.3, 0.7] {
            let p = axis_within_probability(0.0, 1.0, 0.0, 1.0, d);
            assert!((p - (2.0 * d - d * d)).abs() < 1e-9, "d={d}: {p}");
        }
        assert_eq!(axis_within_probability(0.0, 1.0, 0.0, 1.0, 1.0), 1.0);
        // Disjoint segments with gap 1: zero until d reaches the gap.
        assert_eq!(axis_within_probability(0.0, 1.0, 2.0, 3.0, 0.5), 0.0);
        assert!(axis_within_probability(0.0, 1.0, 2.0, 3.0, 3.0) == 1.0);
        // Point masses.
        assert_eq!(axis_within_probability(1.0, 1.0, 4.0, 4.0, 2.9), 0.0);
        assert_eq!(axis_within_probability(1.0, 1.0, 4.0, 4.0, 3.0), 1.0);
        // Point vs segment.
        let p = axis_within_probability(0.5, 0.5, 0.0, 1.0, 0.25);
        assert!((p - 0.5).abs() < 1e-12);
        // Symmetry.
        let a = axis_within_probability(0.0, 2.0, 1.0, 5.0, 0.8);
        let b = axis_within_probability(1.0, 5.0, 0.0, 2.0, 0.8);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn axis_within_probability_monotone() {
        let mut prev = -1.0;
        for i in 0..40 {
            let d = i as f64 * 0.1;
            let p = axis_within_probability(0.0, 2.0, 1.5, 4.0, d);
            assert!(p >= prev && (0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn monotone_in_window_length() {
        let r: Rect<2> = Rect::new([0.0, 0.0], [5.0, 5.0]);
        let s: Rect<2> = Rect::new([6.0, 0.0], [11.0, 5.0]);
        let mut prev = -1.0;
        for &w in &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let idx = sweeping_index(&r, &s, w, 0);
            assert!(idx >= prev, "index must grow with the window");
            prev = idx;
        }
    }
}
