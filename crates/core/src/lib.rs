//! Adaptive multi-stage spatial distance join processing.
//!
//! This crate implements the algorithms of *"Adaptive Multi-Stage Distance
//! Join Processing"* (Shin, Moon, Lee — SIGMOD 2000) over the
//! [`amdj_rtree::RTree`] index:
//!
//! The paper's join algorithms are thin configurations of one unified
//! [`engine`]: one [`engine::JoinRequest`] — a k-distance join under a
//! pruning [`engine::Policy`], or the incremental join — run by
//! [`engine::run`] at a worker count; one worker is the paper's
//! sequential join:
//!
//! | Algorithm | Entry point | Engine configuration | Paper section |
//! |---|---|---|---|
//! | HS-KDJ (uni-directional baseline) | [`hs_kdj`] | — (own loop) | §2.2 |
//! | HS-IDJ (incremental baseline) | [`HsIdj`] | — (own loop) | §2.2 |
//! | B-KDJ (bidirectional + optimized plane sweep) | [`b_kdj`] | Exact × 1 worker | §3 |
//! | AM-KDJ (aggressive pruning + compensation) | [`am_kdj`] | Aggressive × 1 worker | §4.1 |
//! | AM-IDJ (adaptive multi-stage incremental) | [`AmIdj`] | [`engine::StageDriver`] | §4.2 |
//! | SJ-SORT (spatial join + external sort baseline) | [`sj_sort`] | — (own loop) | §5 |
//! | Any of B-KDJ, AM-KDJ, AM-IDJ at T workers, resumable | [`engine::run`] | [`engine::JoinRequest`] | — |
//!
//! Every join takes its trees by `&RTree` — the page buffer synchronizes
//! internally — so joins can also run concurrently over shared indexes;
//! see the [`engine`] module docs for the parallel exactness argument and
//! the shared-bound ([`MinBound`]) soundness argument the parallel joins
//! rest on.
//!
//! Supporting machinery, each its own module:
//!
//! * [`Estimator`] — the `eDmax` estimation of §4.3 (Equation 3, with the
//!   arithmetic/geometric corrections of Equations 4 and 5), generalized
//!   to any dimension;
//! * [`DistanceQueue`] — the k-bounded max-heap producing `qDmax`;
//! * the main queue — a hybrid memory/disk [`amdj_storage::SpillQueue`]
//!   with Equation-3-derived segment boundaries (§4.4);
//! * [`JoinStats`] — the counters the paper's figures plot (distance
//!   computations, queue insertions, node accesses, modeled response
//!   time).
//!
//! # Quick start
//!
//! ```
//! use amdj_core::{b_kdj, JoinConfig};
//! use amdj_geom::{Point, Rect};
//! use amdj_rtree::{RTree, RTreeParams};
//!
//! let hotels: Vec<(Rect<2>, u64)> = (0..100)
//!     .map(|i| (Rect::from_point(Point::new([(i % 10) as f64, (i / 10) as f64])), i))
//!     .collect();
//! let restaurants: Vec<(Rect<2>, u64)> = (0..100)
//!     .map(|i| (Rect::from_point(Point::new([(i % 10) as f64 + 0.3, (i / 10) as f64 + 0.4])), i))
//!     .collect();
//!
//! let r = RTree::bulk_load(RTreeParams::paper_defaults(), hotels);
//! let s = RTree::bulk_load(RTreeParams::paper_defaults(), restaurants);
//! let out = b_kdj(&r, &s, 5, &JoinConfig::default());
//! assert_eq!(out.results.len(), 5);
//! assert!(out.results.windows(2).all(|w| w[0].dist <= w[1].dist));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod amidj;
mod amkdj;
mod bkdj;
pub mod bruteforce;
mod concurrent;
mod config;
mod distq;
pub mod engine;
mod estimate;
pub mod histogram;
mod hs;
mod mainq;
mod pair;
pub mod serve;
mod sjsort;
mod stats;
mod within;

pub use amidj::AmIdj;
pub use amkdj::am_kdj;
pub use bkdj::b_kdj;
pub use concurrent::{par_am_idj, par_am_kdj};
pub use config::{AmIdjOptions, AmKdjOptions, Correction, EdmaxPolicy, JoinConfig};
pub use distq::DistanceQueue;
pub use engine::{
    read_checkpoint, write_checkpoint, Checkpointed, EngineSnapshot, MinBound, PauseCtl,
    SnapshotError, SnapshotKind, TestSchedule,
};
pub use estimate::Estimator;
pub use histogram::HistogramEstimator;
pub use hs::{hs_kdj, HsIdj};
pub use pair::{ItemRef, Pair};
pub use sjsort::sj_sort;
pub use stats::{JoinOutput, JoinStats, ResultPair, MAX_TRACKED_WORKERS};
pub use within::within_join;
