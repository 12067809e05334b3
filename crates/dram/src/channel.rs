//! Per-channel FR-FCFS-capped scheduler with banks and write drain.

use emcc_sim::{LineAddr, Time};

use crate::config::DramConfig;
use crate::mapping::AddressMapping;
use crate::request::{DramRequest, Pending, RequestClass, RequestId};
use crate::stats::DramStats;
use crate::QueueFull;

/// A finished DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The caller token from the request.
    pub id: RequestId,
    /// Time the last data beat leaves the channel.
    pub done: Time,
    /// Whether the access was a write.
    pub is_write: bool,
    /// The request's traffic class.
    pub class: RequestClass,
    /// The accessed line.
    pub line: LineAddr,
    /// True if the access hit an open row buffer.
    pub row_hit: bool,
    /// When the request entered the channel queue (critical-path
    /// attribution: `issued - enqueued` is the scheduling delay).
    pub enqueued: Time,
    /// When the scheduler issued the request to a bank.
    pub issued: Time,
}

/// Result of running a channel's scheduler.
#[derive(Debug, Clone, Default)]
pub struct PumpResult {
    /// Requests issued by this pump, with their completion times.
    pub completions: Vec<Completion>,
    /// When the scheduler next needs to run, if work remains.
    pub next_wake: Option<Time>,
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    ready_at: Time,
    last_access: Time,
    hit_streak: u32,
}

impl Default for BankState {
    fn default() -> Self {
        BankState {
            open_row: None,
            ready_at: Time::ZERO,
            last_access: Time::ZERO,
            hit_streak: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowOutcome {
    Hit,
    Closed,
    Conflict,
}

/// One DRAM channel: read/write queues, banks, the shared data bus.
#[derive(Debug)]
pub struct DramChannel {
    config: DramConfig,
    mapping: AddressMapping,
    read_q: Vec<Pending>,
    write_q: Vec<Pending>,
    banks: Vec<BankState>,
    rank_next_refresh: Vec<Time>,
    bus_free_at: Time,
    next_issue_at: Time,
    draining: bool,
    stats: DramStats,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(config: DramConfig) -> Self {
        let refi = config.t_refi;
        DramChannel {
            config,
            mapping: AddressMapping::new(config.channels),
            read_q: Vec::new(),
            write_q: Vec::new(),
            banks: vec![BankState::default(); config.banks()],
            rank_next_refresh: (0..config.ranks)
                .map(|r| refi * (r as u64 + 1) / config.ranks as u64)
                .collect(),
            bus_free_at: Time::ZERO,
            next_issue_at: Time::ZERO,
            draining: false,
            stats: DramStats::default(),
        }
    }

    /// Queues a request.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the direction's queue is at capacity.
    pub fn enqueue(&mut self, req: DramRequest, now: Time) -> Result<(), QueueFull> {
        let q = if req.is_write {
            &mut self.write_q
        } else {
            &mut self.read_q
        };
        if q.len() >= self.config.queue_capacity {
            return Err(QueueFull);
        }
        let loc = self.mapping.locate(req.line);
        q.push(Pending {
            req,
            enqueued_at: now,
            bank: loc.rank * self.config.banks_per_rank + loc.bank,
            row: loc.row,
        });
        Ok(())
    }

    /// True if a request of the given direction can be queued.
    pub fn can_accept(&self, is_write: bool) -> bool {
        let q = if is_write {
            &self.write_q
        } else {
            &self.read_q
        };
        q.len() < self.config.queue_capacity
    }

    /// Queued requests in both directions.
    pub fn queued(&self) -> usize {
        self.read_q.len() + self.write_q.len()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Clears statistics without touching timing state.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    fn apply_refresh(&mut self, now: Time) {
        for rank in 0..self.config.ranks {
            while self.rank_next_refresh[rank] <= now {
                let start = self.rank_next_refresh[rank];
                let end = start + self.config.t_rfc;
                let base = rank * self.config.banks_per_rank;
                for b in 0..self.config.banks_per_rank {
                    let bank = &mut self.banks[base + b];
                    bank.ready_at = bank.ready_at.max(end);
                    bank.open_row = None;
                }
                self.rank_next_refresh[rank] += self.config.t_refi;
            }
        }
    }

    fn row_outcome(&self, bank: &BankState, row: u64, at: Time) -> RowOutcome {
        match bank.open_row {
            None => RowOutcome::Closed,
            Some(open) => {
                if bank.last_access + self.config.row_timeout <= at {
                    // Timeout policy auto-precharged the row in the
                    // background; the next access pays activate only.
                    RowOutcome::Closed
                } else if open == row {
                    RowOutcome::Hit
                } else {
                    RowOutcome::Conflict
                }
            }
        }
    }

    /// Picks a request index from `q` per FR-FCFS-capped: among requests
    /// whose bank is ready at `now`, row hits win (unless the bank's hit
    /// streak exceeded the cap), ties broken by age. Returns the chosen
    /// index, or the earliest bank-ready time if none is ready.
    fn pick(&self, q: &[Pending], now: Time) -> Result<usize, Option<Time>> {
        let mut best: Option<(bool, usize)> = None; // (is_hit, idx)
        let mut earliest: Option<Time> = None;
        for (i, p) in q.iter().enumerate() {
            let bank = &self.banks[p.bank];
            if bank.ready_at > now {
                earliest = Some(match earliest {
                    None => bank.ready_at,
                    Some(e) => e.min(bank.ready_at),
                });
                continue;
            }
            let hit = self.row_outcome(bank, p.row, now) == RowOutcome::Hit
                && bank.hit_streak < self.config.frfcfs_cap;
            match best {
                None => best = Some((hit, i)),
                Some((best_hit, _)) => {
                    // Hits beat non-hits; within a class, age (queue
                    // order) wins, so never replace an equal class.
                    if hit && !best_hit {
                        best = Some((hit, i));
                    }
                }
            }
        }
        match best {
            Some((_, i)) => Ok(i),
            None => Err(earliest),
        }
    }

    fn issue(&mut self, pending: Pending, now: Time) -> Completion {
        let cfg = self.config;
        let bank_idx = pending.bank;
        let row = pending.row;
        let outcome = self.row_outcome(&self.banks[bank_idx], row, now);
        let access_latency = match outcome {
            RowOutcome::Hit => cfg.row_hit_latency(),
            RowOutcome::Closed => cfg.row_closed_latency(),
            RowOutcome::Conflict => cfg.row_conflict_latency(),
        };

        let data_ready = now + access_latency;
        let bus_start = (data_ready.saturating_sub(cfg.burst)).max(self.bus_free_at);
        let done = bus_start + cfg.burst;
        self.bus_free_at = done;

        let bank = &mut self.banks[bank_idx];
        bank.open_row = Some(row);
        bank.last_access = done;
        bank.ready_at = match outcome {
            RowOutcome::Hit => now + cfg.burst, // CAS-to-CAS pipelining
            RowOutcome::Closed => now + cfg.t_rcd,
            RowOutcome::Conflict => now + cfg.t_rp + cfg.t_rcd,
        };
        bank.hit_streak = match outcome {
            RowOutcome::Hit => bank.hit_streak + 1,
            _ => 0,
        };

        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Closed => self.stats.row_opens += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        let bucket = self
            .stats
            .bucket_mut(pending.req.class, pending.req.is_write);
        bucket.count += 1;
        bucket.queuing_ns.add_time(now - pending.enqueued_at);
        bucket.bus_busy += cfg.burst;

        Completion {
            id: pending.req.id,
            done,
            is_write: pending.req.is_write,
            class: pending.req.class,
            line: pending.req.line,
            row_hit: outcome == RowOutcome::Hit,
            enqueued: pending.enqueued_at,
            issued: now,
        }
    }

    /// Runs the scheduler at `now`: issues at most one request (command
    /// bandwidth is one per burst slot) and reports when to run next.
    pub fn pump(&mut self, now: Time) -> PumpResult {
        let mut completions = Vec::new();
        let next_wake = self.pump_into(now, &mut completions);
        PumpResult {
            completions,
            next_wake,
        }
    }

    /// [`Self::pump`] appending the issued request's completion to `out`
    /// (a buffer the caller reuses) and returning when to run next.
    pub fn pump_into(&mut self, now: Time, out: &mut Vec<Completion>) -> Option<Time> {
        self.apply_refresh(now);
        let mut next_wake = None;

        if self.next_issue_at > now {
            if self.queued() > 0 {
                next_wake = Some(self.next_issue_at);
            }
            return next_wake;
        }

        // Write-drain hysteresis.
        if self.write_q.len() >= self.config.write_high_watermark {
            self.draining = true;
        } else if self.write_q.len() <= self.config.write_low_watermark {
            self.draining = false;
        }

        // Pick the queue: drain mode forces writes; otherwise reads first,
        // opportunistically serving writes when no read exists.
        let use_writes = self.draining || self.read_q.is_empty();
        let (primary_is_write, primary_pick) = if use_writes {
            (true, self.pick(&self.write_q, now))
        } else {
            (false, self.pick(&self.read_q, now))
        };

        match primary_pick {
            Ok(idx) => {
                let pending = if primary_is_write {
                    self.write_q.remove(idx)
                } else {
                    self.read_q.remove(idx)
                };
                let completion = self.issue(pending, now);
                self.next_issue_at = now + self.config.burst;
                out.push(completion);
                if self.queued() > 0 {
                    next_wake = Some(self.next_issue_at);
                }
            }
            Err(earliest) => {
                // Nothing ready in the primary queue; consider the other
                // queue's earliest readiness too so we never stall.
                let other = if primary_is_write {
                    &self.read_q
                } else {
                    &self.write_q
                };
                let other_earliest = if other.is_empty() || self.draining {
                    None
                } else {
                    match self.pick(other, now) {
                        Ok(_) => Some(now + Time::from_ps(1)),
                        Err(e) => e,
                    }
                };
                // In non-drain mode with an empty read queue we already
                // picked writes; here both were unready.
                next_wake = match (earliest, other_earliest) {
                    (None, None) => None,
                    (Some(a), None) | (None, Some(a)) => Some(a),
                    (Some(a), Some(b)) => Some(a.min(b)),
                };
                // Opportunistic issue from the other queue when the
                // primary has no ready candidate but the other does.
                if !self.draining {
                    if let Some(w) = other_earliest {
                        if w <= now + Time::from_ps(1) {
                            let q = if primary_is_write {
                                // primary was writes (read_q empty) — other is reads
                                &self.read_q
                            } else {
                                &self.write_q
                            };
                            if let Ok(idx) = self.pick(q, now) {
                                let pending = if primary_is_write {
                                    self.read_q.remove(idx)
                                } else {
                                    self.write_q.remove(idx)
                                };
                                let completion = self.issue(pending, now);
                                self.next_issue_at = now + self.config.burst;
                                out.push(completion);
                                next_wake = if self.queued() > 0 {
                                    Some(self.next_issue_at)
                                } else {
                                    None
                                };
                            }
                        }
                    }
                }
            }
        }
        next_wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> DramChannel {
        DramChannel::new(DramConfig::table_i(1))
    }

    fn rd(id: u64, line: u64) -> DramRequest {
        DramRequest::read(id, LineAddr::new(line), RequestClass::Data)
    }

    fn wr(id: u64, line: u64) -> DramRequest {
        DramRequest::write(id, LineAddr::new(line), RequestClass::Data)
    }

    #[test]
    fn single_read_completes_with_closed_row_latency() {
        let mut c = chan();
        c.enqueue(rd(1, 0), Time::ZERO).unwrap();
        let r = c.pump(Time::ZERO);
        assert_eq!(r.completions.len(), 1);
        assert_eq!(r.completions[0].done, Time::from_ns_f64(30.0));
        assert!(!r.completions[0].row_hit);
    }

    #[test]
    fn row_hit_detected_within_timeout() {
        let mut c = chan();
        c.enqueue(rd(1, 0), Time::ZERO).unwrap();
        c.pump(Time::ZERO);
        let t = Time::from_ns(100);
        c.enqueue(rd(2, 1), t).unwrap();
        let r = c.pump(t);
        assert!(r.completions[0].row_hit);
    }

    #[test]
    fn row_times_out_after_500ns() {
        let mut c = chan();
        c.enqueue(rd(1, 0), Time::ZERO).unwrap();
        c.pump(Time::ZERO);
        let t = Time::from_ns(900); // beyond last_access + 500ns
        c.enqueue(rd(2, 1), t).unwrap();
        let r = c.pump(t);
        assert!(!r.completions[0].row_hit);
        // Closed, not conflict: timeout precharged in the background.
        assert_eq!(r.completions[0].done - t, Time::from_ns_f64(30.0));
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut c = chan();
        c.enqueue(rd(1, 0), Time::ZERO).unwrap();
        let r1 = c.pump(Time::ZERO);
        let t = r1.completions[0].done + Time::from_ns(50);
        // Same bank, different row: +16 banks * 8 ranks * 128 col stride.
        let conflict_line = 128 * 16 * 8 * 16; // row bits change, XOR keeps bank
        let loc_a = AddressMapping::new(1).locate(LineAddr::new(0));
        let loc_b = AddressMapping::new(1).locate(LineAddr::new(conflict_line));
        assert_eq!((loc_a.rank, loc_a.bank), (loc_b.rank, loc_b.bank));
        assert_ne!(loc_a.row, loc_b.row);
        c.enqueue(rd(2, conflict_line), t).unwrap();
        let r2 = c.pump(t);
        assert_eq!(r2.completions[0].done - t, Time::from_ns_f64(43.75));
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let mut c = chan();
        // Open row 0 of bank (0,0).
        c.enqueue(rd(1, 0), Time::ZERO).unwrap();
        let r = c.pump(Time::ZERO);
        let t = r.completions[0].done;
        // Old request to a conflicting row, young request hitting the
        // open row: the young hit should issue first.
        let conflict_line = 128 * 16 * 8 * 16;
        c.enqueue(rd(2, conflict_line), t).unwrap();
        c.enqueue(rd(3, 1), t).unwrap();
        let r = c.pump(t);
        assert_eq!(r.completions[0].id, 3, "row hit must bypass older conflict");
    }

    #[test]
    fn frfcfs_cap_limits_bypassing() {
        let mut c = chan();
        c.enqueue(rd(0, 0), Time::ZERO).unwrap();
        let mut t = c.pump(Time::ZERO).completions[0].done;
        let conflict_line = 128 * 16 * 8 * 16;
        // The old conflicting request waits while hits stream past — but
        // only up to the cap (4).
        c.enqueue(rd(100, conflict_line), t).unwrap();
        let mut served_before_old = 0;
        for i in 0..10 {
            c.enqueue(rd(i + 1, 1 + i), t).unwrap();
        }
        for _ in 0..20 {
            let r = c.pump(t);
            if let Some(comp) = r.completions.first() {
                if comp.id == 100 {
                    break;
                }
                served_before_old += 1;
                t = t.max(comp.done);
            }
            t = r.next_wake.unwrap_or(t + Time::from_ns(1));
        }
        assert!(
            served_before_old <= 4,
            "cap must bound bypassing, saw {served_before_old}"
        );
    }

    #[test]
    fn reads_prioritized_over_writes() {
        let mut c = chan();
        c.enqueue(wr(1, 1_000_000), Time::ZERO).unwrap();
        c.enqueue(rd(2, 0), Time::ZERO).unwrap();
        let r = c.pump(Time::ZERO);
        assert_eq!(r.completions[0].id, 2);
    }

    #[test]
    fn write_drain_kicks_in_at_watermark() {
        let mut c = chan();
        let hw = c.config.write_high_watermark;
        for i in 0..hw {
            c.enqueue(wr(i as u64, (i as u64) * 200_000), Time::ZERO)
                .unwrap();
        }
        c.enqueue(rd(9999, 7), Time::ZERO).unwrap();
        let r = c.pump(Time::ZERO);
        assert!(
            r.completions[0].is_write,
            "drain mode must serve writes before reads"
        );
    }

    #[test]
    fn saturated_row_hits_reach_bus_bandwidth() {
        // 256 sequential lines in one row: throughput must approach one
        // burst (2.5 ns) per access, not one access latency (16 ns).
        let mut c = chan();
        for i in 0..128 {
            c.enqueue(rd(i, i), Time::ZERO).unwrap();
        }
        let mut t = Time::ZERO;
        let mut last_done = Time::ZERO;
        let mut completed = 0;
        while completed < 128 {
            let r = c.pump(t);
            for comp in &r.completions {
                completed += 1;
                last_done = last_done.max(comp.done);
            }
            match r.next_wake {
                Some(w) => t = w,
                None => break,
            }
        }
        assert_eq!(completed, 128);
        let per_access = last_done.as_ns_f64() / 128.0;
        assert!(
            per_access < 4.0,
            "per-access time {per_access:.2} ns exceeds pipelined bound"
        );
    }

    #[test]
    fn refresh_stalls_banks() {
        let mut c = chan();
        // First refresh of rank 0 is at tREFI/8 = 975 ns.
        let t = Time::from_ns(980);
        c.enqueue(rd(1, 0), t).unwrap();
        let r = c.pump(t);
        // The bank is blocked until refresh completes (975 + 350 = 1325 ns).
        match r.completions.first() {
            Some(comp) => assert!(comp.done >= Time::from_ns(1325)),
            None => assert!(r.next_wake.unwrap() >= Time::from_ns(1325)),
        }
    }

    #[test]
    fn queuing_delay_recorded() {
        let mut c = chan();
        c.enqueue(rd(1, 0), Time::ZERO).unwrap();
        c.enqueue(rd(2, 1_000_000), Time::ZERO).unwrap();
        let mut t = Time::ZERO;
        for _ in 0..10 {
            let r = c.pump(t);
            match r.next_wake {
                Some(w) => t = w,
                None => break,
            }
        }
        let b = c.stats().bucket(RequestClass::Data, false);
        assert_eq!(b.count, 2);
        // The second request waited at least one issue slot.
        assert!(b.queuing_ns.max().unwrap() > 0.0);
    }
}
