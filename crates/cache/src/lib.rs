//! Cache building blocks: set-associative arrays, MSHRs, block kinds.
//!
//! Every cache in the simulated hierarchy — L1D, L2, LLC slices, and the
//! memory controller's counter cache — is a [`SetAssocCache`] with true-LRU
//! replacement, parameterized over per-line metadata. Outstanding misses
//! are tracked by an [`MshrFile`] with request merging, which is what lets
//! the timing model capture secondary misses correctly.
//!
//! # Examples
//!
//! ```
//! use emcc_cache::{CacheConfig, SetAssocCache};
//! use emcc_sim::LineAddr;
//!
//! let mut l1: SetAssocCache<()> = SetAssocCache::new(CacheConfig::new(64 * 1024, 8));
//! assert!(!l1.touch(LineAddr::new(7)));
//! l1.insert(LineAddr::new(7), false, ());
//! assert!(l1.touch(LineAddr::new(7)));
//! ```

pub mod array;
pub mod kinds;
pub mod mshr;
#[cfg(test)]
mod reference;

pub use array::{CacheConfig, EvictedLine, SetAssocCache};
pub use kinds::BlockKind;
pub use mshr::{MshrFile, MshrOutcome};
