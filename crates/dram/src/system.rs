//! Command-level DRAM timing model with the Piccolo-FIM extension.
//!
//! The model follows the same abstraction level as Ramulator (which the paper uses): each
//! request is translated into the DRAM commands it needs (PRE/ACT/RD/WR plus the FIM
//! virtual-row sequence), and per-bank / per-rank / per-channel timing windows decide when
//! each command may issue. A bounded look-ahead window reorders requests the way an
//! FR-FCFS scheduler would: requests that can finish earlier (typically row hits) issue
//! first within the window.
//!
//! A request's target bank and row are decoded once, when it enters the window. The
//! window is keyed: each entry keeps its current estimate of when its first column
//! command could issue and its arrival number, and the scheduler issues the entry with
//! the smallest `(estimate, arrival)`. An estimate reads only its own bank's state, and
//! issuing a request changes only its own bank (plus its rank and channel), so the scan
//! for the next pick re-keys only the entries on that bank. The picked request issues its
//! commands directly into the bank, rank and channel state and the statistics; command
//! records are built only when tracing is on.
//!
//! Each channel's data-bus schedule is kept as run-length coalesced busy runs: back-to-
//! back bursts on a saturated bus form one run, so finding the first gap a burst fits in
//! costs one step per run, not per burst.
//!
//! Refresh is accounted for in the energy model only; its timing impact (a few percent,
//! identical across all evaluated systems) is ignored, as is common in accelerator
//! studies.

use crate::address::AddressMapper;
use crate::config::DramConfig;
use crate::request::MemRequest;
use crate::stats::MemStats;
use std::collections::VecDeque;

/// Kinds of DRAM commands recorded in the (optional) verification trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Row activation.
    Act,
    /// Precharge.
    Pre,
    /// Column read (burst).
    Rd,
    /// Column write (burst).
    Wr,
}

/// One command in the verification trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandRecord {
    /// Issue time in memory clocks.
    pub time: u64,
    /// Command kind.
    pub kind: CommandKind,
    /// Channel index.
    pub channel: u32,
    /// Rank index.
    pub rank: u32,
    /// Bank index (global within the rank).
    pub bank: u32,
    /// Row (for ACT) or 0.
    pub row: u64,
    /// Data-bus busy interval `(start, end)` in clocks for RD/WR, `(0, 0)` otherwise.
    pub bus: (u64, u64),
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    act_ready: u64,
    col_ready: u64,
    pre_ready: u64,
    last_act: u64,
    busy_until: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct RankState {
    /// The last four activation times, as a ring indexed by `acts % 4`: tFAW only ever
    /// looks at the fourth-last one.
    act_ring: [u64; 4],
    /// Activations issued to the rank so far.
    acts: usize,
    last_act: u64,
    internal_bus_free: u64,
}

impl RankState {
    /// Earliest time tFAW (at most four activations per rank in any `t_faw` window)
    /// allows the next activation.
    fn faw_ready(&self, t_faw: u64) -> u64 {
        if self.acts >= 4 {
            self.act_ring[self.acts % 4] + t_faw
        } else {
            0
        }
    }

    fn record_act(&mut self, time: u64) {
        self.act_ring[self.acts % 4] = time;
        self.acts += 1;
        self.last_act = time;
    }
}

/// Channel data-bus schedule with gap filling: bursts issued to one bank do not block the
/// bus during another bank's internal (FIM) gap. Only a bounded window of recent
/// reservations is kept; anything older than the window is treated as unavailable, which
/// is conservative.
#[derive(Debug, Clone, Default)]
struct ChannelState {
    /// Sorted busy runs `(start, end, n)`: `n` back-to-back reservations cover
    /// `[start, end)`. Runs neither overlap nor touch.
    runs: VecDeque<(u64, u64, usize)>,
    /// Reservations held in `runs` (the sum of their `n`).
    held: usize,
    /// Everything before this time is considered unavailable (reservations older than the
    /// bookkeeping window have been folded into the horizon).
    horizon: u64,
}

impl ChannelState {
    /// The bookkeeping window, in reservations (not runs).
    const MAX_INTERVALS: usize = 256;

    /// Reserves `duration` (> 0) clocks on the bus starting no earlier than `earliest`.
    /// Returns the start of the reserved interval. Gaps between existing reservations are
    /// reused (gap filling), so a burst to one bank can use the bus while another bank is
    /// in its FIM internal-operation window.
    fn reserve(&mut self, earliest: u64, duration: u64) -> u64 {
        let mut start = earliest.max(self.horizon);
        // Runs ending at or before `start` can neither push it back nor leave room for
        // the burst in front of them, so the scan begins after them. The runs are sorted
        // by end as well as by start, because they do not overlap.
        let first = self.runs.partition_point(|&(_, e, _)| e <= start);
        // Find the first gap that fits.
        let mut at = self.runs.len();
        for (i, &(s, e, _)) in self.runs.range(first..).enumerate() {
            if start + duration <= s {
                at = first + i;
                break;
            }
            if start < e {
                start = e;
            }
        }
        let end = start + duration;
        // Coalesce with the runs the reservation touches.
        let joins_prev = at > 0 && self.runs[at - 1].1 == start;
        let joins_next = self.runs.get(at).is_some_and(|r| r.0 == end);
        match (joins_prev, joins_next) {
            (true, true) => {
                let (_, next_end, next_n) = self.runs.remove(at).expect("next run");
                let prev = &mut self.runs[at - 1];
                prev.1 = next_end;
                prev.2 += next_n + 1;
            }
            (true, false) => {
                let prev = &mut self.runs[at - 1];
                prev.1 = end;
                prev.2 += 1;
            }
            (false, true) => {
                let next = &mut self.runs[at];
                next.0 = start;
                next.2 += 1;
            }
            (false, false) => self.runs.insert(at, (start, end, 1)),
        }
        self.held += 1;
        // Bound the bookkeeping window: the oldest reservations are absorbed into the
        // horizon so the bus can never be double-booked. Folding one reservation out of a
        // longer run leaves the run's span busy, so raising the horizon to the run's start
        // makes exactly the same bus times unavailable as folding it on its own would.
        while self.held > Self::MAX_INTERVALS {
            let front = self.runs.front_mut().expect("held reservations");
            if front.2 == 1 {
                self.horizon = self.horizon.max(front.1);
                self.runs.pop_front();
            } else {
                front.2 -= 1;
                self.horizon = self.horizon.max(front.0);
            }
            self.held -= 1;
        }
        start
    }
}

/// Result of servicing one batch of requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchResult {
    /// Time (memory clocks) at which the batch started.
    pub start_clock: u64,
    /// Time (memory clocks) at which the last request completed.
    pub end_clock: u64,
    /// Number of requests serviced.
    pub requests: u64,
}

impl BatchResult {
    /// Elapsed memory clocks for the batch.
    pub fn elapsed_clocks(&self) -> u64 {
        self.end_clock - self.start_clock
    }
}

/// The memory system: all channels, ranks and banks of one [`DramConfig`].
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: DramConfig,
    mapper: AddressMapper,
    now: u64,
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    channels: Vec<ChannelState>,
    stats: MemStats,
    trace: Option<Vec<CommandRecord>>,
}

/// The bank a request addresses and the row it needs open, decoded once when the request
/// enters the FR-FCFS window.
#[derive(Debug, Clone, Copy)]
struct Target {
    channel: u32,
    rank: u32,
    bank: u32,
    row: u64,
    rank_idx: usize,
    bank_idx: usize,
}

impl Target {
    /// A trace record of a command to this bank.
    fn command(&self, time: u64, kind: CommandKind, row: u64, bus: (u64, u64)) -> CommandRecord {
        CommandRecord {
            time,
            kind,
            channel: self.channel,
            rank: self.rank,
            bank: self.bank,
            row,
            bus,
        }
    }
}

/// What the FR-FCFS window reads of one bank: its open row and when a row hit and a row
/// miss could issue their first column command.
#[derive(Debug, Clone, Copy)]
struct BankEstimate {
    open_row: Option<u64>,
    hit: u64,
    miss: u64,
}

impl BankEstimate {
    /// The estimate for a request to `row` of this bank.
    fn key(&self, row: u64) -> u64 {
        if self.open_row == Some(row) {
            self.hit
        } else {
            self.miss
        }
    }
}

/// The FR-FCFS window's scheduling view of one entry. `rank` is the entry's current
/// [`BankEstimate::key`] in the high 64 bits and its arrival number in the low
/// 64, so the smallest rank is the earliest estimate, ties going first come, first
/// served. Slots are kept apart from the requests so a pick scans only them.
#[derive(Debug, Clone, Copy)]
struct Slot {
    rank: u128,
    bank_idx: usize,
    row: u64,
}

impl Slot {
    fn rekey(&mut self, key: u64) {
        self.rank = (u128::from(key) << 64) | (self.rank & u128::from(u64::MAX));
    }
}

impl MemorySystem {
    /// Creates a memory system in the idle state at time zero.
    pub fn new(cfg: DramConfig) -> Self {
        let mapper = AddressMapper::new(&cfg);
        let nbanks =
            (cfg.org.channels * cfg.org.ranks_per_channel * cfg.org.banks_per_rank) as usize;
        let nranks = (cfg.org.channels * cfg.org.ranks_per_channel) as usize;
        Self {
            cfg,
            mapper,
            now: 0,
            banks: vec![BankState::default(); nbanks],
            ranks: vec![RankState::default(); nranks],
            channels: vec![ChannelState::default(); cfg.org.channels as usize],
            stats: MemStats::default(),
            trace: None,
        }
    }

    /// Enables command-trace recording (used by the timing-legality checker in tests).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded command trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&[CommandRecord]> {
        self.trace.as_deref()
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The address mapper (shared with caches/MSHRs so they can group by DRAM row).
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets statistics (the time cursor and bank states are kept).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Current time in memory clocks.
    pub fn now_clocks(&self) -> u64 {
        self.now
    }

    /// Current time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.now as f64 * self.cfg.clock_ns()
    }

    /// Converts clocks to nanoseconds using this system's memory clock.
    pub fn clocks_to_ns(&self, clocks: u64) -> f64 {
        clocks as f64 * self.cfg.clock_ns()
    }

    fn target(&self, req: &MemRequest) -> Target {
        let (channel, rank, bank, row) = match req {
            MemRequest::Read { addr, .. }
            | MemRequest::Write { addr, .. }
            | MemRequest::PimUpdate { addr, .. } => {
                let loc = self.mapper.decompose(*addr);
                (loc.channel, loc.rank, loc.bank, loc.row)
            }
            MemRequest::GatherFim { row, .. }
            | MemRequest::ScatterFim { row, .. }
            | MemRequest::GatherNmp { row, .. }
            | MemRequest::ScatterNmp { row, .. } => self.mapper.unpack_row_id(*row),
        };
        let rank_idx = (channel * self.cfg.org.ranks_per_channel + rank) as usize;
        Target {
            channel,
            rank,
            bank,
            row,
            rank_idx,
            bank_idx: rank_idx * self.cfg.org.banks_per_rank as usize + bank as usize,
        }
    }

    /// Services a batch of requests, returning the timing of the batch. Requests may be
    /// reordered within the configured queue window (FR-FCFS-style), but the batch only
    /// finishes when every request has completed.
    pub fn service_batch<I>(&mut self, requests: I) -> BatchResult
    where
        I: IntoIterator<Item = MemRequest>,
    {
        let start = self.now;
        let mut iter = requests.into_iter();
        let depth = self.cfg.queue_depth.max(1);
        // The window as two vectors kept index-aligned through `swap_remove`.
        let mut slots: Vec<Slot> = Vec::with_capacity(depth);
        let mut entries: Vec<(Target, MemRequest)> = Vec::with_capacity(depth);
        let mut arrivals = 0u64;
        let mut count = 0u64;
        let mut batch_end = start;
        // The bank the last request issued to and its estimate after the issue: only that
        // bank changed, and only its entries read it. Re-keying an entry from its bank's
        // current state is a no-op, so bank 0 stands in before the first issue.
        let mut issued_bank = 0;
        let mut estimate = self.bank_estimate(issued_bank);

        loop {
            while slots.len() < depth {
                let Some(req) = iter.next() else { break };
                let target = self.target(&req);
                let key = self.bank_estimate(target.bank_idx).key(target.row);
                slots.push(Slot {
                    rank: (u128::from(key) << 64) | u128::from(arrivals),
                    bank_idx: target.bank_idx,
                    row: target.row,
                });
                entries.push((target, req));
                arrivals += 1;
            }
            // Re-key the issued bank's entries and pick the entry whose first column
            // access could issue earliest (row hits win over row misses), breaking ties by
            // arrival order — the essence of FR-FCFS.
            if slots.is_empty() {
                break;
            }
            let mut best = 0;
            let mut best_rank = u128::MAX;
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.bank_idx == issued_bank {
                    slot.rekey(estimate.key(slot.row));
                }
                // Selects rather than branches: equal keys make the comparison unpredictable.
                let better = slot.rank < best_rank;
                best = if better { i } else { best };
                best_rank = best_rank.min(slot.rank);
            }
            slots.swap_remove(best);
            let (target, req) = entries.swap_remove(best);
            let completion = self.issue(&req, &target, self.now);
            batch_end = batch_end.max(completion);
            count += 1;
            issued_bank = target.bank_idx;
            estimate = self.bank_estimate(issued_bank);
        }

        // Advance the global cursor to the end of the batch so subsequent batches cannot
        // overlap with this one (the accelerator consumes the data before issuing more).
        self.now = self.now.max(batch_end);
        BatchResult {
            start_clock: start,
            end_clock: batch_end.max(start),
            requests: count,
        }
    }

    /// Services a single request immediately (convenience for microbenchmarks/tests).
    pub fn service_one(&mut self, request: MemRequest) -> BatchResult {
        self.service_batch(std::iter::once(request))
    }

    /// Cheap estimate of when a request to `bank_idx` could issue its first column
    /// command, used by the FR-FCFS-style selection (row hits get earlier estimates than
    /// row misses). The bank's state is all it reads.
    fn bank_estimate(&self, bank_idx: usize) -> BankEstimate {
        let t = &self.cfg.timing;
        let bank = &self.banks[bank_idx];
        BankEstimate {
            open_row: bank.open_row,
            hit: bank.col_ready.max(bank.busy_until),
            miss: bank
                .act_ready
                .max(bank.pre_ready)
                .max(bank.busy_until)
                .saturating_add(t.t_rp + t.t_rcd),
        }
    }

    /// Issues the commands of one request to its target bank, starting no earlier than
    /// `earliest`. Bank, rank and channel state and the statistics are updated in place;
    /// returns the time the request completes.
    fn issue(&mut self, req: &MemRequest, at: &Target, earliest: u64) -> u64 {
        match req {
            MemRequest::Read { useful_bytes, .. } => {
                self.issue_simple(at, false, *useful_bytes, earliest)
            }
            MemRequest::Write { useful_bytes, .. } => {
                self.issue_simple(at, true, *useful_bytes, earliest)
            }
            MemRequest::GatherFim { offsets, .. } => {
                self.issue_fim(at, offsets.len() as u64, false, earliest)
            }
            MemRequest::ScatterFim { offsets, .. } => {
                self.issue_fim(at, offsets.len() as u64, true, earliest)
            }
            MemRequest::GatherNmp { offsets, .. } => {
                self.issue_nmp(at, offsets.len() as u64, false, earliest)
            }
            MemRequest::ScatterNmp { offsets, .. } => {
                self.issue_nmp(at, offsets.len() as u64, true, earliest)
            }
            MemRequest::PimUpdate { .. } => self.issue_pim(at, earliest),
        }
    }

    /// Opens the target row in its bank if needed. Returns the time at which a column
    /// command may issue.
    fn ensure_row_open(&mut self, at: &Target, earliest: u64) -> u64 {
        let t = &self.cfg.timing;
        let bank = &mut self.banks[at.bank_idx];
        let rank = &mut self.ranks[at.rank_idx];
        let mut start = earliest.max(bank.busy_until);

        if bank.open_row == Some(at.row) {
            self.stats.row_hits += 1;
            return start.max(bank.col_ready);
        }
        self.stats.row_misses += 1;

        // Precharge if another row is open.
        if bank.open_row.is_some() {
            let t_pre = start.max(bank.pre_ready);
            if let Some(trace) = &mut self.trace {
                trace.push(at.command(t_pre, CommandKind::Pre, 0, (0, 0)));
            }
            self.stats.precharges += 1;
            bank.act_ready = bank.act_ready.max(t_pre + t.t_rp);
            start = t_pre;
        }

        // Activate, respecting tRC (same bank), tRRD (same rank) and tFAW (4-activate
        // window per rank).
        let t_act = start
            .max(bank.act_ready)
            .max(bank.last_act + t.t_rc)
            .max(rank.last_act + t.t_rrd)
            .max(rank.faw_ready(t.t_faw));
        if let Some(trace) = &mut self.trace {
            trace.push(at.command(t_act, CommandKind::Act, at.row, (0, 0)));
        }
        self.stats.activations += 1;
        bank.open_row = Some(at.row);
        bank.last_act = t_act;
        bank.col_ready = t_act + t.t_rcd;
        bank.pre_ready = t_act + t.t_ras;
        rank.record_act(t_act);
        bank.col_ready
    }

    /// Issues one column burst (RD or WR), returning the time its data transfer ends.
    fn issue_column(&mut self, at: &Target, is_write: bool, ready: u64) -> u64 {
        let t = &self.cfg.timing;
        let bank = &mut self.banks[at.bank_idx];
        let latency = if is_write { t.t_cwl } else { t.t_cl };
        // The data bus must be free for the burst; gap filling lets bursts to other banks
        // proceed during another bank's FIM gap.
        let earliest_data = ready.max(bank.col_ready) + latency;
        let data_start = self.channels[at.channel as usize].reserve(earliest_data, t.t_burst);
        let t_col = data_start - latency;
        let data_end = data_start + t.t_burst;
        bank.col_ready = t_col + t.t_ccd_l;
        let kind = if is_write {
            bank.pre_ready = bank.pre_ready.max(data_end + t.t_wr);
            self.stats.write_bursts += 1;
            CommandKind::Wr
        } else {
            bank.pre_ready = bank.pre_ready.max(t_col + t.t_rtp);
            self.stats.read_bursts += 1;
            CommandKind::Rd
        };
        if let Some(trace) = &mut self.trace {
            trace.push(at.command(t_col, kind, 0, (data_start, data_end)));
        }
        data_end
    }

    fn issue_simple(
        &mut self,
        at: &Target,
        is_write: bool,
        useful_bytes: u32,
        earliest: u64,
    ) -> u64 {
        let ready = self.ensure_row_open(at, earliest);
        let data_end = self.issue_column(at, is_write, ready);

        let burst = self.cfg.org.burst_bytes;
        let stats = &mut self.stats;
        stats.offchip_bytes += burst;
        stats.useful_offchip_bytes += u64::from(useful_bytes).min(burst);
        if is_write {
            stats.write_transactions += 1;
        } else {
            stats.read_transactions += 1;
        }
        data_end
    }

    /// Piccolo-FIM gather/scatter (Section IV/VI): offset-buffer write burst(s), the
    /// in-bank operation hidden under the virtual-row `tWR + tRP + tRCD` gap, and the
    /// data-buffer read (gather) or write (scatter) burst(s).
    fn issue_fim(&mut self, at: &Target, items: u64, is_scatter: bool, earliest: u64) -> u64 {
        let fim = self.cfg.fim;
        let org = self.cfg.org;

        let ready = self.ensure_row_open(at, earliest);

        // 1. Offset-buffer write burst(s) over the data bus.
        let offset_bursts = fim.offset_bursts(&org);
        let mut last_end = ready;
        for _ in 0..offset_bursts {
            last_end = self.issue_column(at, true, last_end);
        }

        // 2. The internal gather/scatter proceeds during the virtual-row gap. The memory
        //    controller may not touch this bank before the gap elapses.
        let gap = self
            .cfg
            .fim_gap_clocks()
            .max(self.cfg.fim_internal_clocks());
        let internal_done = last_end + gap;
        let bank = &mut self.banks[at.bank_idx];
        bank.col_ready = bank.col_ready.max(internal_done);

        // 3. Data-buffer access: read for gathers, write for scatters.
        let data_bursts = fim.data_bursts(&org);
        let mut completion = internal_done;
        for _ in 0..data_bursts {
            completion = self.issue_column(at, is_scatter, completion);
        }
        self.banks[at.bank_idx].busy_until = completion;

        // Traffic accounting.
        let burst = org.burst_bytes;
        let stats = &mut self.stats;
        stats.offchip_bytes += (offset_bursts + data_bursts) * burst;
        stats.useful_offchip_bytes += items * 8;
        stats.internal_bytes += items * burst; // full internal column access per item
        stats.write_transactions += offset_bursts;
        if is_scatter {
            stats.write_transactions += data_bursts;
            stats.fim_scatters += 1;
        } else {
            stats.read_transactions += data_bursts;
            stats.fim_gathers += 1;
        }
        completion
    }

    /// NMP (buffer-chip, rank-level) gather/scatter: the same off-chip traffic as a FIM
    /// operation, but the internal column accesses serialize on the rank-level bus shared
    /// by every bank of the rank.
    fn issue_nmp(&mut self, at: &Target, items: u64, is_scatter: bool, earliest: u64) -> u64 {
        let burst = self.cfg.org.burst_bytes;
        let internal_step = self.cfg.timing.t_ccd_l.max(self.cfg.timing.t_burst);

        let ready = self.ensure_row_open(at, earliest);

        // One command/offset burst from the host to the buffer chip.
        let cmd_end = self.issue_column(at, true, ready);

        // The buffer chip then performs `items` column accesses serialized on the
        // rank-internal bus (one burst each), without occupying the off-chip channel.
        let rank = &mut self.ranks[at.rank_idx];
        let bank = &mut self.banks[at.bank_idx];
        let internal_cursor =
            cmd_end.max(rank.internal_bus_free).max(bank.col_ready) + items * internal_step;
        rank.internal_bus_free = internal_cursor;
        bank.col_ready = bank.col_ready.max(internal_cursor);
        self.stats.internal_bytes += items * burst;

        // Finally one data burst over the channel carries the gathered words (or
        // acknowledges the scatter data which was sent along with the command).
        let data_end = self.issue_column(at, is_scatter, internal_cursor);
        self.banks[at.bank_idx].busy_until = data_end;

        let stats = &mut self.stats;
        stats.offchip_bytes += 2 * burst;
        stats.useful_offchip_bytes += items * 8;
        stats.nmp_ops += 1;
        stats.write_transactions += 1;
        if is_scatter {
            stats.write_transactions += 1;
        } else {
            stats.read_transactions += 1;
        }
        data_end
    }

    /// PIM near-bank update: in-bank read-modify-write of one word, no channel traffic.
    fn issue_pim(&mut self, at: &Target, earliest: u64) -> u64 {
        let ready = self.ensure_row_open(at, earliest);
        let t = &self.cfg.timing;
        let bank = &mut self.banks[at.bank_idx];
        // Internal column read + compute + column write; the near-bank ALU adds a couple
        // of cycles of latency that is irrelevant next to the column timing.
        let completion = ready.max(bank.col_ready) + 2 * t.t_ccd_l + 2;
        bank.col_ready = completion;
        bank.pre_ready = bank.pre_ready.max(completion + t.t_wr);
        bank.busy_until = completion;
        self.stats.pim_updates += 1;
        self.stats.internal_bytes += 2 * self.cfg.org.burst_bytes;
        completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::RowId;
    use crate::request::Region;
    use piccolo_graph::rng::Rng64;

    /// A bus schedule with one `(start, end)` interval per reservation, scanned front to
    /// back: the plain form of `ChannelState` that the run-length schedule must match.
    #[derive(Default)]
    struct LinearBus {
        busy: VecDeque<(u64, u64)>,
        horizon: u64,
    }

    impl LinearBus {
        fn reserve(&mut self, earliest: u64, duration: u64) -> u64 {
            let mut start = earliest.max(self.horizon);
            let mut insert_at = self.busy.len();
            for (i, &(s, e)) in self.busy.iter().enumerate() {
                if start + duration <= s {
                    insert_at = i;
                    break;
                }
                if start < e {
                    start = e;
                }
            }
            self.busy.insert(insert_at, (start, start + duration));
            while self.busy.len() > ChannelState::MAX_INTERVALS {
                if let Some((_, end)) = self.busy.pop_front() {
                    self.horizon = self.horizon.max(end);
                }
            }
            start
        }
    }

    /// The bus times a schedule treats as unavailable — `[0, horizon)` and every busy
    /// interval — as sorted, disjoint, non-touching intervals.
    fn unavailable(horizon: u64, busy: impl Iterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (s, e) in std::iter::once((0, horizon)).chain(busy) {
            match out.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => out.push((s, e)),
            }
        }
        out
    }

    #[test]
    fn reserve_matches_the_linear_scan_reference() {
        let mut rng = Rng64::seed_from_u64(0x7e5e_27e5);
        let (mut long_runs, mut folds_inside_run) = (0, 0);
        for trial in 0..8 {
            let mut fast = ChannelState::default();
            let mut reference = LinearBus::default();
            let mut clock = 0u64;
            let mut latest_end = 0u64;
            let mut gap_fills = 0;
            // Well over MAX_INTERVALS reservations, so the horizon folds many times.
            for step in 0..2_000 {
                // A cursor that mostly creeps forward and sometimes jumps, with requests
                // that reach back behind it: bursts queue up, gaps open, and later
                // requests fall into them.
                clock += if rng.gen_u32_below(8) == 0 {
                    rng.gen_u64_below(200)
                } else {
                    rng.gen_u64_below(4)
                };
                let earliest = clock.saturating_sub(rng.gen_u64_below(120));
                let duration = 1 + rng.gen_u64_below(8);
                let horizon_before = fast.horizon;
                let start = fast.reserve(earliest, duration);
                let ctx = format!("trial {trial} step {step}: reserve({earliest}, {duration})");
                assert_eq!(start, reference.reserve(earliest, duration), "{ctx}");
                assert_eq!(fast.held, reference.busy.len(), "{ctx}");
                assert_eq!(
                    fast.held,
                    fast.runs.iter().map(|r| r.2).sum::<usize>(),
                    "{ctx}"
                );
                let runs: Vec<_> = fast.runs.iter().collect();
                assert!(
                    runs.windows(2).all(|w| w[0].1 < w[1].0),
                    "runs touch: {ctx}"
                );
                assert_eq!(
                    unavailable(fast.horizon, fast.runs.iter().map(|&(s, e, _)| (s, e))),
                    unavailable(reference.horizon, reference.busy.iter().copied()),
                    "{ctx}"
                );
                if fast.runs.iter().any(|r| r.2 > 1) {
                    long_runs += 1;
                }
                // A fold that empties the front run leaves the horizon at its end, and
                // the next run starts strictly later; a fold inside a longer run leaves
                // the horizon at that run's start.
                if fast.horizon != horizon_before
                    && fast.runs.front().map(|r| r.0) == Some(fast.horizon)
                {
                    folds_inside_run += 1;
                }
                if start + duration < latest_end {
                    gap_fills += 1;
                }
                latest_end = latest_end.max(start + duration);
            }
            assert!(fast.horizon > 0, "trial {trial}: the horizon never folded");
            assert!(gap_fills > 0, "trial {trial}: no reservation filled a gap");
        }
        assert!(long_runs > 0, "no run ever held more than one reservation");
        assert!(
            folds_inside_run > 0,
            "the horizon never folded inside a run"
        );
    }

    /// `service_batch` with an unkeyed window: every pick re-estimates all entries and
    /// removes the winner from an arrival-ordered deque, ties going to the oldest. The
    /// reference the keyed window must match.
    fn service_batch_rescan(mem: &mut MemorySystem, requests: Vec<MemRequest>) -> BatchResult {
        let start = mem.now;
        let mut iter = requests.into_iter();
        let depth = mem.cfg.queue_depth.max(1);
        let mut window: VecDeque<(Target, MemRequest)> = VecDeque::with_capacity(depth);
        let mut count = 0u64;
        let mut batch_end = start;
        loop {
            while window.len() < depth {
                match iter.next() {
                    Some(r) => window.push_back((mem.target(&r), r)),
                    None => break,
                }
            }
            if window.is_empty() {
                break;
            }
            let mut best_idx = 0;
            let mut best_key = u64::MAX;
            for (i, (target, _)) in window.iter().enumerate() {
                let key = mem.bank_estimate(target.bank_idx).key(target.row);
                if key < best_key {
                    best_key = key;
                    best_idx = i;
                }
            }
            let (target, req) = window.remove(best_idx).expect("window entry");
            let completion = mem.issue(&req, &target, mem.now);
            batch_end = batch_end.max(completion);
            count += 1;
        }
        mem.now = mem.now.max(batch_end);
        BatchResult {
            start_clock: start,
            end_clock: batch_end.max(start),
            requests: count,
        }
    }

    /// A seeded batch of one of three shapes: a row-hit stream, random rows over every
    /// bank and channel, or a mix of every request kind.
    fn random_batch(rng: &mut Rng64, mapper: &AddressMapper, shape: u32) -> Vec<MemRequest> {
        let len = 1 + rng.gen_u64_below(300) as usize;
        let base = rng.gen_u64_below(1 << 24) * 64;
        let offsets = |rng: &mut Rng64| -> Vec<u16> {
            (0..1 + rng.gen_u64_below(8))
                .map(|_| rng.gen_u32_below(128) as u16)
                .collect()
        };
        (0..len as u64)
            .map(|i| match shape {
                0 => read(base + i * 64),
                1 => read(rng.gen_u64_below(1 << 22) * 1024 + rng.gen_u64_below(16) * 64),
                _ => {
                    // Few distinct rows, so requests meet open rows and each other.
                    let addr = rng.gen_u64_below(64) * 8192 + rng.gen_u64_below(128) * 8;
                    let row = mapper.row_id(addr);
                    let region = Region::PropertyRandom;
                    match rng.gen_u32_below(7) {
                        0 => read(addr),
                        1 => MemRequest::Write {
                            addr,
                            useful_bytes: 8,
                            region,
                        },
                        2 => MemRequest::GatherFim {
                            row,
                            offsets: offsets(rng),
                            region,
                        },
                        3 => MemRequest::ScatterFim {
                            row,
                            offsets: offsets(rng),
                            region,
                        },
                        4 => MemRequest::GatherNmp {
                            row,
                            offsets: offsets(rng),
                            region,
                        },
                        5 => MemRequest::ScatterNmp {
                            row,
                            offsets: offsets(rng),
                            region,
                        },
                        _ => MemRequest::PimUpdate { addr, region },
                    }
                }
            })
            .collect()
    }

    #[test]
    fn keyed_window_matches_the_rescan_reference() {
        let mut rng = Rng64::seed_from_u64(0x5ca1_ab1e);
        let configs = [
            DramConfig::ddr4_2400_x16().with_fim(),
            DramConfig::new(crate::config::MemoryKind::Ddr4X16, 1, 1).with_fim(),
            DramConfig::new(crate::config::MemoryKind::Ddr4X16, 4, 2).with_fim(),
        ];
        for (c, cfg) in configs.into_iter().enumerate() {
            let mut keyed = MemorySystem::new(cfg);
            keyed.enable_trace();
            let mut reference = keyed.clone();
            for batch in 0..60 {
                let reqs = random_batch(&mut rng, keyed.mapper(), batch % 3);
                let got = keyed.service_batch(reqs.clone());
                let want = service_batch_rescan(&mut reference, reqs);
                let ctx = format!("config {c} batch {batch}");
                assert_eq!(got, want, "{ctx}");
                assert_eq!(keyed.stats(), reference.stats(), "{ctx}");
                assert_eq!(keyed.trace(), reference.trace(), "{ctx}");
            }
            assert!(keyed.stats().row_hits > 0 && keyed.stats().row_misses > 0);
            assert!(keyed.stats().fim_gathers > 0 && keyed.stats().pim_updates > 0);
        }
    }

    fn read(addr: u64) -> MemRequest {
        MemRequest::read(addr, Region::Other)
    }

    #[test]
    fn sequential_reads_hit_open_rows() {
        let mut mem = MemorySystem::new(DramConfig::ddr4_2400_x16());
        let reqs: Vec<MemRequest> = (0..256u64).map(|i| read(i * 64)).collect();
        mem.service_batch(reqs);
        let s = mem.stats();
        assert_eq!(s.read_transactions, 256);
        // Sequential bursts across 2 channels: at most a handful of activations.
        assert!(s.activations <= 8, "activations = {}", s.activations);
        assert!(s.row_hit_rate() > 0.9);
    }

    #[test]
    fn random_reads_cause_activations() {
        let mut mem = MemorySystem::new(DramConfig::ddr4_2400_x16());
        // Touch one burst per row over many rows.
        let row_stride = 1 << 20;
        let reqs: Vec<MemRequest> = (0..128u64).map(|i| read(i * row_stride)).collect();
        mem.service_batch(reqs);
        assert!(mem.stats().activations >= 64);
    }

    #[test]
    fn random_reads_take_longer_than_sequential() {
        let cfg = DramConfig::ddr4_2400_x16();
        let mut seq = MemorySystem::new(cfg);
        let t_seq = seq
            .service_batch((0..512u64).map(|i| read(i * 64)))
            .elapsed_clocks();
        let mut rnd = MemorySystem::new(cfg);
        // A pseudo-random pattern touching many distinct rows within one bank's address
        // range, defeating both row locality and channel interleave.
        let t_rnd = rnd
            .service_batch((0..512u64).map(|i| read(((i * 2654435761) % 100_000) * 8192)))
            .elapsed_clocks();
        assert!(
            t_rnd > t_seq,
            "random ({t_rnd}) should be slower than sequential ({t_seq})"
        );
    }

    #[test]
    fn fim_gather_moves_less_offchip_data_than_eight_reads() {
        let cfg = DramConfig::ddr4_2400_x16().with_fim();
        let mapper = AddressMapper::new(&cfg);
        let mut fim = MemorySystem::new(cfg);
        let row = mapper.row_id(0);
        fim.service_one(MemRequest::GatherFim {
            row,
            offsets: (0..8).collect(),
            region: Region::PropertyRandom,
        });
        let fim_bytes = fim.stats().offchip_bytes;

        let mut conv = MemorySystem::new(DramConfig::ddr4_2400_x16());
        conv.service_batch((0..8u64).map(|i| MemRequest::Read {
            addr: i * 1024,
            useful_bytes: 8,
            region: Region::PropertyRandom,
        }));
        let conv_bytes = conv.stats().offchip_bytes;
        assert_eq!(fim_bytes, 128); // one offset burst + one data burst
        assert_eq!(conv_bytes, 512); // eight 64 B bursts
        assert_eq!(fim.stats().fim_gathers, 1);
        assert!(fim.stats().internal_bytes > 0);
    }

    #[test]
    fn fim_gathers_on_different_banks_overlap() {
        // Two gathers to different banks should take much less than twice one gather,
        // because the virtual-row gap of one bank overlaps the other bank's work.
        let cfg = DramConfig::new(crate::config::MemoryKind::Ddr4X16, 1, 1).with_fim();
        let mapper = AddressMapper::new(&cfg);
        let mut one = MemorySystem::new(cfg);
        let row_a = mapper.row_id(0);
        // A different bank: bank bits sit above the column bits.
        let row_b = mapper.row_id(cfg.org.row_bytes * 2);
        let t1 = one
            .service_one(MemRequest::GatherFim {
                row: row_a,
                offsets: (0..8).collect(),
                region: Region::Other,
            })
            .elapsed_clocks();
        let mut two = MemorySystem::new(cfg);
        let t2 = two
            .service_batch(vec![
                MemRequest::GatherFim {
                    row: row_a,
                    offsets: (0..8).collect(),
                    region: Region::Other,
                },
                MemRequest::GatherFim {
                    row: row_b,
                    offsets: (0..8).collect(),
                    region: Region::Other,
                },
            ])
            .elapsed_clocks();
        assert!(
            t2 < 2 * t1,
            "two overlapped gathers ({t2}) should beat 2x one gather ({t1})"
        );
    }

    #[test]
    fn nmp_gather_is_slower_than_fim_gather_at_scale() {
        // With many gathers spread over the banks of one rank, rank-level serialization
        // should make NMP slower than Piccolo-FIM.
        let cfg = DramConfig::new(crate::config::MemoryKind::Ddr4X16, 1, 1).with_fim();
        let mapper = AddressMapper::new(&cfg);
        let rows: Vec<RowId> = (0..64u64)
            .map(|i| mapper.row_id(i * cfg.org.row_bytes * 2))
            .collect();
        let mut fim = MemorySystem::new(cfg);
        let t_fim = fim
            .service_batch(rows.iter().map(|&row| MemRequest::GatherFim {
                row,
                offsets: (0..8).collect(),
                region: Region::Other,
            }))
            .elapsed_clocks();
        let mut nmp = MemorySystem::new(cfg);
        let t_nmp = nmp
            .service_batch(rows.iter().map(|&row| MemRequest::GatherNmp {
                row,
                offsets: (0..8).collect(),
                region: Region::Other,
            }))
            .elapsed_clocks();
        assert!(
            t_nmp > t_fim,
            "NMP ({t_nmp}) should be slower than FIM ({t_fim})"
        );
    }

    #[test]
    fn pim_updates_have_no_offchip_traffic() {
        let mut mem = MemorySystem::new(DramConfig::ddr4_2400_x16());
        mem.service_batch((0..32u64).map(|i| MemRequest::PimUpdate {
            addr: i * 8,
            region: Region::PropertyRandom,
        }));
        assert_eq!(mem.stats().offchip_bytes, 0);
        assert_eq!(mem.stats().pim_updates, 32);
        assert!(mem.stats().internal_bytes > 0);
    }

    #[test]
    fn more_ranks_reduce_random_access_time() {
        let one_rank = DramConfig::new(crate::config::MemoryKind::Ddr4X16, 1, 1);
        let four_rank = DramConfig::new(crate::config::MemoryKind::Ddr4X16, 1, 4);
        let pattern: Vec<MemRequest> = (0..512u64)
            .map(|i| read(((i * 2654435761) % (1 << 22)) * 4096))
            .collect();
        let mut m1 = MemorySystem::new(one_rank);
        let t1 = m1.service_batch(pattern.clone()).elapsed_clocks();
        let mut m4 = MemorySystem::new(four_rank);
        let t4 = m4.service_batch(pattern).elapsed_clocks();
        assert!(t4 < t1, "4 ranks ({t4}) should beat 1 rank ({t1})");
    }

    #[test]
    fn time_advances_monotonically_across_batches() {
        let mut mem = MemorySystem::new(DramConfig::default());
        let b1 = mem.service_batch((0..16u64).map(|i| read(i * 64)));
        let b2 = mem.service_batch((0..16u64).map(|i| read(i * 64)));
        assert!(b2.start_clock >= b1.end_clock);
        assert!(mem.now_ns() > 0.0);
    }
}
