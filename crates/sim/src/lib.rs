//! Discrete-event simulation substrate for the EMCC reproduction.
//!
//! This crate provides the small, dependency-free core that every timing
//! model in the workspace is built on:
//!
//! * [`Time`] — a picosecond-resolution instant/duration type (the analogue
//!   of gem5's `Tick`),
//! * [`EventQueue`] — a deterministic time-ordered event queue with stable
//!   FIFO tie-breaking,
//! * [`stats`] — histograms, running means and rate counters used by the
//!   experiment reports,
//! * [`rng`] — a tiny, fast, reproducible PRNG (xoshiro256\*\*) so that every
//!   experiment is bit-for-bit repeatable.
//!
//! # Examples
//!
//! ```
//! use emcc_sim::{EventQueue, Time};
//!
//! let mut q = EventQueue::new();
//! q.push(Time::from_ns(30), "late");
//! q.push(Time::from_ns(10), "early");
//! q.push(Time::from_ns(10), "early-second"); // FIFO among equal times
//!
//! assert_eq!(q.pop(), Some((Time::from_ns(10), "early")));
//! assert_eq!(q.pop(), Some((Time::from_ns(10), "early-second")));
//! assert_eq!(q.pop(), Some((Time::from_ns(30), "late")));
//! assert_eq!(q.pop(), None);
//! ```

pub mod hash;
pub mod mem;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use hash::{FastHashMap, FastHashSet};
pub use mem::{LineAddr, PhysAddr};
pub use queue::EventQueue;
pub use rng::{mix64, Rng64};
pub use stats::{Histogram, RunningMean};
pub use time::Time;
pub use trace::{attribute, Attribution, Attributor, Component, Span, TraceRecorder};
