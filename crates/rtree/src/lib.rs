//! A from-scratch R*-tree over a paged [`amdj_storage::VirtualDisk`].
//!
//! This is the index substrate of the AMDJ reproduction: the paper (§5.1)
//! builds R*-trees with 4 KB pages over the TIGER/Line data sets and gives
//! every join algorithm a byte-budgeted node buffer. Correspondingly:
//!
//! * nodes are encoded to fixed-size pages ([`Node`] ⇄ page bytes),
//! * all node access goes through an LRU buffer, with *node requests* and
//!   *disk reads* counted separately — exactly the two quantities of the
//!   paper's Table 2 (with and without buffer),
//! * trees can be built by STR bulk loading ([`RTree::bulk_load`]) or by
//!   R*-tree insertion ([`RTree::insert`]: ChooseSubtree, forced reinsert,
//!   R* split),
//! * classic queries (range, within-distance, best-first nearest
//!   neighbour) are provided so the crate stands alone as a spatial index.
//!
//! The distance-join algorithms themselves live in `amdj-core`; they drive
//! the tree through [`RTree::fetch`] and the [`Entry`] type.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod buffer;
mod bulk;
mod delete;
mod insert;
mod node;
mod params;
mod persist;
mod query;
mod tree;
mod validate;

pub use buffer::{thread_buffer_stats, BufferManager};
pub use node::{Entry, Node};
pub use params::RTreeParams;
pub use query::Neighbor;
pub use tree::{AccessStats, RTree};
pub use validate::ValidationError;
