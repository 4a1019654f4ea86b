//! Joins over trees of unequal height. An expansion of a ⟨node, node⟩
//! pair whose levels differ opens only the node with the larger MBR
//! area and holds the other whole, so these inputs take a path that
//! level-matched trees never reach. Every engine join must still return
//! the brute-force distance sequence on them, at one worker and at two,
//! whichever side is the deeper one; and on the Arizona-like data the
//! `idj-cursor` benchmark serves, an incremental join must not fall back
//! to splitting the shallow tree's leaves into one-object sweeps.

use amdj_core::{bruteforce, AmIdj, AmIdjOptions, JoinConfig, ResultPair};
use amdj_datagen::{clustered_points, tiger, uniform_points, unit_universe, Dataset};
use amdj_rtree::{RTree, RTreeParams};
use amdj_tests::{aggressive, assert_same_distances, build_trees, exact, incremental, run_join};

fn ascending(mut v: Vec<ResultPair>) -> Vec<ResultPair> {
    v.sort_by(|a, b| a.dist.total_cmp(&b.dist));
    v
}

/// B-KDJ, AM-KDJ and AM-IDJ at one and two workers return the
/// brute-force distances for each `k`, on `r` × `s` and on `s` × `r`.
fn engine_joins_match_brute_force(a: &Dataset, b: &Dataset, r: &RTree<2>, s: &RTree<2>) {
    let cfg = JoinConfig::unbounded();
    let opts = AmIdjOptions::default();
    for (a, b, r, s) in [(a, b, r, s), (b, a, s, r)] {
        let (hr, hs) = (r.height(), s.height());
        for k in [1, 30, 400] {
            let want = bruteforce::k_closest_pairs(a, b, k);
            for threads in [1, 2] {
                for (name, kind) in [
                    ("B-KDJ", exact(k)),
                    ("AM-KDJ", aggressive(k, None)),
                    ("AM-IDJ", incremental(k, &opts)),
                ] {
                    let got = ascending(run_join(r, s, kind, threads, &cfg).results);
                    let label = format!("{name}, heights ({hr}, {hs}), k = {k}, {threads} workers");
                    assert_same_distances(&got, &want, &label);
                }
            }
        }
    }
}

/// Four levels of uniform points against three of clustered ones
/// (fanout 6).
#[test]
fn engine_joins_on_heights_four_and_three() {
    let a = uniform_points(600, unit_universe(), 21);
    let b = clustered_points(150, 6, 0.03, unit_universe(), 22);
    let (r, s) = build_trees(&a, &b);
    assert_eq!((r.height(), s.height()), (4, 3));
    engine_joins_match_brute_force(&a, &b, &r, &s);
}

/// One side is a single leaf spanning most of the universe, as R and as
/// S: the area rule opens it first, as a bidirectional expansion would.
#[test]
fn engine_joins_against_a_single_leaf() {
    let a = uniform_points(400, unit_universe(), 31);
    let b = uniform_points(5, unit_universe(), 32);
    let (r, s) = build_trees(&a, &b);
    assert_eq!((r.height(), s.height()), (4, 1));
    engine_joins_match_brute_force(&a, &b, &r, &s);
}

/// R*-inserted trees need not share a height even over inputs of one
/// size; here they are built to differ.
#[test]
fn engine_joins_on_insert_built_trees() {
    let a = clustered_points(300, 5, 0.02, unit_universe(), 41);
    let b = uniform_points(40, unit_universe(), 42);
    let insert_built = |items: &Dataset| {
        let mut t = RTree::new(RTreeParams::for_tests());
        for &(mbr, id) in items {
            t.insert(mbr, id);
        }
        t
    };
    let (r, s) = (insert_built(&a), insert_built(&b));
    assert!(r.height() > s.height());
    engine_joins_match_brute_force(&a, &b, &r, &s);
}

/// On Arizona-like streets × hydrography at scale 0.02 (the
/// `idj-cursor` data: trees of three and two levels), the first 50 pairs
/// of a one-worker incremental join take fewer expansions than the
/// hydrography has objects, and no queue page is written. Opening both
/// sides of every unequal-level pair split each hydrography leaf into
/// ⟨node, object⟩ pairs and took 7,218 expansions and 192 queue page
/// writes here; the one-sided rule takes 548 and none.
#[test]
fn arizona_first_batch_does_not_split_the_shallow_tree() {
    let (a, b) = tiger::arizona_workload(0.02, 1);
    let r = RTree::bulk_load(RTreeParams::paper_defaults(), a);
    let s = RTree::bulk_load(RTreeParams::paper_defaults(), b);
    assert_eq!((r.height(), s.height()), (3, 2));
    let mut cursor = AmIdj::new(&r, &s, &JoinConfig::default(), AmIdjOptions::default());
    let got = std::iter::from_fn(|| cursor.next()).take(50).count();
    assert_eq!(got, 50);
    let st = cursor.stats();
    let expansions = st.stage1_expansions + st.stage2_expansions;
    assert!(
        expansions < s.len(),
        "{expansions} expansions for the first 50 pairs; the hydrography has {} objects",
        s.len()
    );
    assert_eq!(
        st.queue_page_writes, 0,
        "the first batch spilled the main queue"
    );
}
