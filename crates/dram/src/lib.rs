//! DDR4 DRAM timing model (the role Ramulator plays in the paper).
//!
//! Models the Table I memory system: DDR4-3200 with tCL = tRCD = tRP =
//! 13.75 ns, tRFC = 350 ns, a 500 ns row-buffer timeout policy, 256-entry
//! read/write queues, FR-FCFS-capped bank scheduling with write draining,
//! 8 ranks × 16 banks per channel, and either 1 or 8 channels with the
//! paper's bits-8..10 channel interleaving (§VI-D).
//!
//! The model is request-level: each 64 B access occupies its bank for the
//! appropriate activate/column timing and the shared data bus for one
//! burst; queuing delay (enqueue → first command) is tracked per request
//! class, which is exactly what Figure 22 reports.
//!
//! # Examples
//!
//! ```
//! use emcc_dram::{Dram, DramConfig, DramRequest, RequestClass};
//! use emcc_sim::{LineAddr, Time};
//!
//! let mut dram = Dram::new(DramConfig::table_i(1));
//! let t0 = Time::ZERO;
//! dram.enqueue(DramRequest::read(1, LineAddr::new(0), RequestClass::Data), t0)
//!     .unwrap();
//! let issued = dram.pump(t0);
//! assert_eq!(issued.completions.len(), 1);
//! // A cold access pays activate + CAS + burst.
//! assert!(issued.completions[0].done > Time::from_ns(27));
//! ```

pub mod channel;
pub mod config;
pub mod fault;
pub mod mapping;
pub mod request;
pub mod stats;

pub use channel::{Completion, PumpResult};
pub use config::DramConfig;
pub use fault::{FaultClass, FaultConfig, FaultEvent, FaultModel, FaultStats, PlantedFault};
pub use mapping::AddressMapping;
pub use request::{DramRequest, RequestClass, RequestId};
pub use stats::DramStats;

use emcc_sim::{LineAddr, Time};

use channel::DramChannel;

/// Error returned when a channel's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dram queue full")
    }
}

impl std::error::Error for QueueFull {}

/// The full DRAM subsystem: one or more channels behind an address map.
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    mapping: AddressMapping,
    channels: Vec<DramChannel>,
}

impl Dram {
    /// Creates a DRAM with the given configuration.
    pub fn new(config: DramConfig) -> Self {
        let mapping = AddressMapping::new(config.channels);
        let channels = (0..config.channels)
            .map(|_| DramChannel::new(config))
            .collect();
        Dram {
            config,
            mapping,
            channels,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The address mapping (exposed so the MC can route invalidations).
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Enqueues a request on the owning channel.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the channel's read or write queue has no
    /// free entry; the caller must retry later (the MC models this as
    /// back-pressure toward the LLC).
    pub fn enqueue(&mut self, req: DramRequest, now: Time) -> Result<(), QueueFull> {
        let ch = self.mapping.channel_of(req.line);
        self.channels[ch].enqueue(req, now)
    }

    /// True if the owning channel for `line` can accept another request of
    /// the given direction.
    pub fn can_accept(&self, line: LineAddr, is_write: bool) -> bool {
        self.channels[self.mapping.channel_of(line)].can_accept(is_write)
    }

    /// Runs all channel schedulers at `now`, collecting issued completions
    /// and the earliest next wake-up across channels.
    pub fn pump(&mut self, now: Time) -> PumpResult {
        let mut completions = Vec::new();
        let next_wake = self.pump_into(now, &mut completions);
        PumpResult {
            completions,
            next_wake,
        }
    }

    /// [`Self::pump`] appending the completions to `out` (a buffer the
    /// caller reuses, so pumping allocates nothing) and returning the
    /// earliest next wake-up.
    pub fn pump_into(&mut self, now: Time, out: &mut Vec<Completion>) -> Option<Time> {
        let mut next_wake: Option<Time> = None;
        for ch in &mut self.channels {
            if let Some(w) = ch.pump_into(now, out) {
                next_wake = Some(next_wake.map_or(w, |n| n.min(w)));
            }
        }
        next_wake
    }

    /// Aggregated statistics across channels.
    pub fn stats(&self) -> DramStats {
        let mut s = DramStats::default();
        for ch in &self.channels {
            s.merge(ch.stats());
        }
        s
    }

    /// Clears accumulated statistics (bank/queue *state* is preserved) —
    /// used at the end of a warmup phase.
    pub fn reset_stats(&mut self) {
        for ch in &mut self.channels {
            ch.reset_stats();
        }
    }

    /// Total requests currently queued (both directions, all channels).
    pub fn queued(&self) -> usize {
        self.channels.iter().map(|c| c.queued()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(id: u64, line: u64) -> DramRequest {
        DramRequest::read(id, LineAddr::new(line), RequestClass::Data)
    }

    #[test]
    fn cold_read_latency_is_activate_plus_cas() {
        let mut d = Dram::new(DramConfig::table_i(1));
        d.enqueue(read(1, 0), Time::ZERO).unwrap();
        let r = d.pump(Time::ZERO);
        let done = r.completions[0].done;
        // tRCD + tCL + burst = 13.75 + 13.75 + 2.5 = 30 ns (the paper's
        // "row buffer miss ≈ 30ns").
        assert_eq!(done, Time::from_ns_f64(30.0));
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = Dram::new(DramConfig::table_i(1));
        d.enqueue(read(1, 0), Time::ZERO).unwrap();
        let r1 = d.pump(Time::ZERO);
        let t1 = r1.completions[0].done;
        // Second access to the same row, right after.
        d.enqueue(read(2, 1), t1).unwrap();
        let r2 = d.pump(t1);
        let hit_latency = r2.completions[0].done - t1;
        // tCL + burst = 16.25 ns (paper: "row buffer hit ≈ 16ns").
        assert_eq!(hit_latency, Time::from_ns_f64(16.25));
    }

    #[test]
    fn eight_channels_split_traffic() {
        let mut d = Dram::new(DramConfig::table_i(8));
        // Lines 0..8 with channel = line bits 2..4: lines 0..3 → ch 0,
        // 4..7 → ch 1.
        for i in 0..8 {
            d.enqueue(read(i, i), Time::ZERO).unwrap();
        }
        let r = d.pump(Time::ZERO);
        // At least two channels issued immediately.
        assert!(r.completions.len() >= 2);
    }

    #[test]
    fn queue_full_reported() {
        let mut d = Dram::new(DramConfig::table_i(1));
        let cap = d.config().queue_capacity as u64;
        for i in 0..cap {
            d.enqueue(read(i, i * 1_000_000), Time::ZERO).unwrap();
        }
        assert!(d.enqueue(read(999, 42), Time::ZERO).is_err());
        assert!(!d.can_accept(LineAddr::new(42), false));
    }
}
