//! Cross-crate correctness: every join algorithm must produce exactly the
//! brute-force distance sequence on realistic workloads, with indexes
//! built both by STR bulk loading and by R* insertion.

use amdj_core::{
    am_kdj, b_kdj, bruteforce, hs_kdj, sj_sort, within_join, AmIdj, AmIdjOptions, AmKdjOptions,
    JoinConfig,
};
use amdj_datagen::tiger::Geography;
use amdj_datagen::{clustered_points, uniform_points, unit_universe, Dataset};
use amdj_rtree::{RTree, RTreeParams};
use amdj_tests::{assert_same_distances, build_trees};

fn all_kdj_algorithms_agree(a: &Dataset, b: &Dataset, k: usize, cfg: &JoinConfig) {
    let want = bruteforce::k_closest_pairs(a, b, k);
    let (r, s) = build_trees(a, b);

    let hs = hs_kdj(&r, &s, k, cfg);
    assert_same_distances(&hs.results, &want, "HS-KDJ");

    let bk = b_kdj(&r, &s, k, cfg);
    assert_same_distances(&bk.results, &want, "B-KDJ");

    let am = am_kdj(&r, &s, k, cfg, &AmKdjOptions::default());
    assert_same_distances(&am.results, &want, "AM-KDJ");

    if let Some(dmax) = want.last().map(|p| p.dist) {
        let sj = sj_sort(&r, &s, k, dmax, cfg);
        assert_same_distances(&sj.results, &want, "SJ-SORT");
    }

    let mut idj = AmIdj::new(&r, &s, cfg, AmIdjOptions::default());
    let mut got = Vec::new();
    while got.len() < k {
        match idj.next() {
            Some(p) => got.push(p),
            None => break,
        }
    }
    assert_same_distances(&got, &want, "AM-IDJ");
}

#[test]
fn uniform_workload_all_algorithms() {
    let a = uniform_points(900, unit_universe(), 11);
    let b = uniform_points(700, unit_universe(), 12);
    for k in [1, 17, 400] {
        all_kdj_algorithms_agree(&a, &b, k, &JoinConfig::unbounded());
    }
}

#[test]
fn skewed_workload_all_algorithms() {
    // Clustered data breaks the uniformity assumption behind eDmax —
    // exactly where compensation must save correctness.
    let a = clustered_points(800, 4, 0.01, unit_universe(), 31);
    let b = clustered_points(600, 3, 0.015, unit_universe(), 32);
    for k in [5, 150] {
        all_kdj_algorithms_agree(&a, &b, k, &JoinConfig::unbounded());
    }
}

#[test]
fn tiger_workload_all_algorithms() {
    let geo = Geography::arizona_like(9);
    let a = geo.streets(1200);
    let b = geo.hydro(500);
    for k in [10, 250] {
        all_kdj_algorithms_agree(&a, &b, k, &JoinConfig::unbounded());
    }
}

#[test]
fn rect_objects_all_algorithms() {
    let a = amdj_datagen::uniform_rects(600, unit_universe(), 0.05, 41);
    let b = amdj_datagen::uniform_rects(500, unit_universe(), 0.08, 42);
    all_kdj_algorithms_agree(&a, &b, 120, &JoinConfig::unbounded());
}

#[test]
fn disjoint_data_regions() {
    // R entirely left of S: every distance crosses the gap; the estimator
    // falls back to the union area.
    let a = uniform_points(300, amdj_geom::Rect::new([0.0, 0.0], [0.4, 1.0]), 51);
    let b = uniform_points(300, amdj_geom::Rect::new([0.6, 0.0], [1.0, 1.0]), 52);
    all_kdj_algorithms_agree(&a, &b, 50, &JoinConfig::unbounded());
}

#[test]
fn insert_built_trees_agree_with_bulk_loaded() {
    let a = uniform_points(500, unit_universe(), 61);
    let b = uniform_points(400, unit_universe(), 62);
    let k = 80;
    let want = bruteforce::k_closest_pairs(&a, &b, k);

    let mut r = RTree::new(RTreeParams::for_tests());
    for &(mbr, id) in &a {
        r.insert(mbr, id);
    }
    let mut s = RTree::new(RTreeParams::for_tests());
    for &(mbr, id) in &b {
        s.insert(mbr, id);
    }
    r.validate().expect("R valid");
    s.validate().expect("S valid");

    let out = b_kdj(&r, &s, k, &JoinConfig::unbounded());
    assert_same_distances(&out.results, &want, "B-KDJ over insert-built trees");
}

/// Nodes cache their children's sweep orders while buffer-resident. An
/// insert or delete rewrites nodes; the buffer then holds the rewritten
/// copy, whose cache starts empty. Joins before and after a batch of
/// inserts and deletes on the same (fully buffered) trees must both
/// match brute force, so no order derived from an old node survives.
#[test]
fn sweep_orders_do_not_survive_node_rewrites() {
    let params = RTreeParams {
        buffer_bytes: 1 << 20,
        ..RTreeParams::for_tests()
    };
    let mut a = uniform_points(400, unit_universe(), 81);
    let mut b = uniform_points(300, unit_universe(), 82);
    let (mut r, mut s) = (RTree::new(params.clone()), RTree::new(params));
    for &(mbr, id) in &a {
        r.insert(mbr, id);
    }
    for &(mbr, id) in &b {
        s.insert(mbr, id);
    }
    let k = 60;
    let cfg = JoinConfig::unbounded();
    let check = |r: &RTree<2>, s: &RTree<2>, a: &Dataset, b: &Dataset, when: &str| {
        let want = bruteforce::k_closest_pairs(a, b, k);
        let bk = b_kdj(r, s, k, &cfg);
        assert_same_distances(&bk.results, &want, &format!("B-KDJ {when}"));
        let am = am_kdj(r, s, k, &cfg, &AmKdjOptions::default());
        assert_same_distances(&am.results, &want, &format!("AM-KDJ {when}"));
    };
    check(&r, &s, &a, &b, "before the rewrites");

    // New objects land in already-swept (order-cached) leaves and split
    // some of them; deletes shrink and condense others.
    let extra_a = uniform_points(150, unit_universe(), 83);
    for (i, &(mbr, _)) in extra_a.iter().enumerate() {
        let id = 10_000 + i as u64;
        r.insert(mbr, id);
        a.push((mbr, id));
    }
    let extra_b = uniform_points(150, unit_universe(), 84);
    for (i, &(mbr, _)) in extra_b.iter().enumerate() {
        let id = 20_000 + i as u64;
        s.insert(mbr, id);
        b.push((mbr, id));
    }
    for (mbr, id) in a.iter().step_by(3).copied().collect::<Vec<_>>() {
        assert!(r.delete(&mbr, id));
        a.retain(|&(_, x)| x != id);
    }
    for (mbr, id) in b.iter().step_by(4).copied().collect::<Vec<_>>() {
        assert!(s.delete(&mbr, id));
        b.retain(|&(_, x)| x != id);
    }
    r.validate().expect("R valid");
    s.validate().expect("S valid");
    check(&r, &s, &a, &b, "after the rewrites");
}

#[test]
fn very_different_cardinalities() {
    let a = uniform_points(2000, unit_universe(), 71);
    let b = uniform_points(50, unit_universe(), 72);
    all_kdj_algorithms_agree(&a, &b, 60, &JoinConfig::unbounded());
    all_kdj_algorithms_agree(&b, &a, 60, &JoinConfig::unbounded());
}

#[test]
fn duplicate_heavy_data() {
    // Many coincident points: floods of zero distances and ties.
    let mut a = Vec::new();
    for i in 0..200u64 {
        let x = (i % 5) as f64 * 0.2;
        a.push((
            amdj_geom::Rect::from_point(amdj_geom::Point::new([x, x])),
            i,
        ));
    }
    let b = a.clone();
    all_kdj_algorithms_agree(&a, &b, 300, &JoinConfig::unbounded());
}

#[test]
fn collinear_zero_width_axis() {
    // Points on one horizontal line: every bounding box and sweep window
    // has a zero-width y axis, and all distances are pure x gaps.
    let line = |n: u64, step: f64, offset: f64| -> Dataset {
        (0..n)
            .map(|i| {
                let p = amdj_geom::Point::new([i as f64 * step + offset, 3.0]);
                (amdj_geom::Rect::from_point(p), i)
            })
            .collect()
    };
    let a = line(60, 1.7, 0.0);
    let b = line(60, 2.3, 0.4);
    for k in [15, 200] {
        all_kdj_algorithms_agree(&a, &b, k, &JoinConfig::unbounded());
    }
    let (r, s) = build_trees(&a, &b);
    let pair_set = |pairs: &[amdj_core::ResultPair]| {
        let mut v: Vec<(u64, u64, u64)> =
            pairs.iter().map(|p| (p.r, p.s, p.dist.to_bits())).collect();
        v.sort_unstable();
        v
    };
    let got = within_join(&r, &s, 4.0, &JoinConfig::unbounded());
    assert_eq!(
        pair_set(&got.results),
        pair_set(&bruteforce::pairs_within(&a, &b, 4.0)),
        "within_join"
    );
}
