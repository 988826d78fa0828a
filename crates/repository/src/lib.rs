#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cca-repository — the CCA Repository API
//!
//! Figure 2 of the paper: component definitions written in SIDL "can be
//! deposited in and retrieved from a repository by using a CCA Repository
//! API. The repository API defines the functionality necessary to search a
//! framework repository for components as well as to manipulate components
//! within the repository."
//!
//! * [`catalog`] — the SIDL side: deposit sources, get back a merged,
//!   queryable type catalog (checked models + reflection + canonical
//!   sources for retrieval).
//! * [`store`] — the component side: register component entries (class
//!   name, port specs, a factory able to instantiate the component) and
//!   create instances by class name.
//! * [`query`] — the search API: find components by provided/used port
//!   type (honouring SIDL subtyping), package, or free-text name — plus
//!   trigram-accelerated fuzzy discovery with scored, capped, paged
//!   results ([`FuzzyQuery`]/[`QueryCursor`]).
//! * [`shard`] — the scale layer: entries hashed across N shards, each
//!   an immutable Arc snapshot of two indexed segments (a large `base`, a
//!   small `recent`) behind a generation counter (the PR-1
//!   clone-mutate-swap idiom), so reads are lock-free at millions of
//!   registered types and a deposit costs what the entry costs.
//! * [`trigram`] — the inverted substring index and the pure-function
//!   match scoring that keeps rankings stable under resharding.

pub mod catalog;
pub mod query;
pub mod shard;
pub mod store;
pub mod trigram;

pub use catalog::Catalog;
pub use query::{FuzzyHit, FuzzyQuery, Query, QueryCursor, QueryPage};
pub use shard::{Segment, ShardSnapshot, ShardedStore, StoredEntry, WriteOutcome, DEFAULT_SHARDS};
pub use store::{ComponentEntry, ComponentFactory, PortSpec, Repository};
pub use trigram::{score_match, trigrams_of, Trigram, TrigramIndex};
