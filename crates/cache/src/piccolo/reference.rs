//! A Piccolo-cache with one heap `Vec` per line for sector valid bits, dirty bits and
//! fg-tags, and a `Vec` of same-tag ways per access: the plain form of
//! [`super::PiccoloCache`] that its differential test runs against.

use super::PiccoloCacheConfig;
use crate::stats::CacheStats;
use crate::traits::{AccessResult, MissAction, ReplacementPolicy, SectorCache};

const SECTOR_BYTES: u64 = 8;

#[derive(Debug, Clone)]
struct Line {
    valid: bool,
    tag: u64,
    lru: u64,
    /// 2-bit re-reference prediction value when RRIP replacement is used.
    rrpv: u8,
    sector_valid: Vec<bool>,
    sector_dirty: Vec<bool>,
    sector_fgtag: Vec<u16>,
}

impl Line {
    fn empty(sectors: usize) -> Self {
        Self {
            valid: false,
            tag: 0,
            lru: 0,
            rrpv: 3,
            sector_valid: vec![false; sectors],
            sector_dirty: vec![false; sectors],
            sector_fgtag: vec![0; sectors],
        }
    }
}

/// The reference Piccolo-cache.
#[derive(Debug, Clone)]
pub struct ReferencePiccoloCache {
    cfg: PiccoloCacheConfig,
    sets: u64,
    sectors_per_line: u32,
    lines: Vec<Line>,
    lru_clock: u64,
    /// Ways each tag may occupy in a set (equal way partitioning over the tags of the
    /// current tile); `ways` when tiling information is absent.
    allocated_ways_per_tag: u32,
    stats: CacheStats,
}

impl ReferencePiccoloCache {
    /// Creates the reference cache.
    pub fn new(cfg: PiccoloCacheConfig) -> Self {
        assert!(cfg.ways > 0, "ways must be positive");
        assert!(
            cfg.line_bytes as u64 >= SECTOR_BYTES && cfg.line_bytes.is_multiple_of(8),
            "line must be a multiple of 8 B"
        );
        let sets = (cfg.capacity_bytes / (cfg.line_bytes as u64 * cfg.ways as u64)).max(1);
        let sectors_per_line = cfg.line_bytes / SECTOR_BYTES as u32;
        Self {
            cfg,
            sets,
            sectors_per_line,
            lines: vec![Line::empty(sectors_per_line as usize); (sets * cfg.ways as u64) as usize],
            lru_clock: 0,
            allocated_ways_per_tag: cfg.ways,
            stats: CacheStats::default(),
        }
    }

    /// The address fields `(tag, fg_tag, set, fg_offset)` of an 8 B-aligned address.
    fn fields(&self, addr: u64) -> (u64, u16, u64, usize) {
        let word = addr / SECTOR_BYTES;
        let fg_offset = (word % self.sectors_per_line as u64) as usize;
        let rest = word / self.sectors_per_line as u64;
        let set = rest % self.sets;
        let rest = rest / self.sets;
        let fg_mask = (1u64 << self.cfg.fg_tag_bits) - 1;
        let fg_tag = (rest & fg_mask) as u16;
        let tag = rest >> self.cfg.fg_tag_bits;
        (tag, fg_tag, set, fg_offset)
    }

    /// Reconstructs the byte address of a sector from its stored coordinates.
    fn sector_addr(&self, tag: u64, fg_tag: u16, set: u64, fg_offset: usize) -> u64 {
        let rest = (tag << self.cfg.fg_tag_bits) | fg_tag as u64;
        let word = (rest * self.sets + set) * self.sectors_per_line as u64 + fg_offset as u64;
        word * SECTOR_BYTES
    }

    fn touch(&mut self, idx: usize) {
        self.lru_clock += 1;
        self.lines[idx].lru = self.lru_clock;
        self.lines[idx].rrpv = 0;
    }
}

impl SectorCache for ReferencePiccoloCache {
    fn access(&mut self, addr: u64, bytes: u32, write: bool) -> AccessResult {
        self.stats.accesses += 1;
        let (tag, fg_tag, set, fg_offset) = self.fields(addr);
        let requested = bytes.min(SECTOR_BYTES as u32);
        let start = (set * self.cfg.ways as u64) as usize;
        let ways = self.cfg.ways as usize;

        // Sequential search of the ways for matching tags (Section V-A).
        let mut same_tag_ways: Vec<usize> = Vec::with_capacity(ways);
        let mut invalid_way: Option<usize> = None;
        for w in 0..ways {
            let line = &self.lines[start + w];
            if line.valid && line.tag == tag {
                same_tag_ways.push(start + w);
            } else if !line.valid && invalid_way.is_none() {
                invalid_way = Some(start + w);
            }
        }

        // Hit: a same-tag line whose sector holds our fg-tag.
        for &idx in &same_tag_ways {
            let line = &self.lines[idx];
            if line.sector_valid[fg_offset] && line.sector_fgtag[fg_offset] == fg_tag {
                self.touch(idx);
                self.lines[idx].sector_dirty[fg_offset] |= write;
                self.stats.hits += 1;
                return AccessResult::hit();
            }
        }

        self.stats.misses += 1;
        let mut actions = Vec::with_capacity(2);

        // Decide between installing a new line (way partitioning allows it) or replacing
        // a sector inside an existing same-tag line.
        let may_take_new_way = (same_tag_ways.len() as u32) < self.allocated_ways_per_tag;
        let install_idx = if may_take_new_way {
            if let Some(idx) = invalid_way {
                Some(idx)
            } else {
                // Evict a whole line belonging to another tag, chosen by LRU/RRIP.
                (0..ways)
                    .map(|w| start + w)
                    .filter(|&i| !same_tag_ways.contains(&i))
                    .min_by_key(|&i| match self.cfg.policy {
                        ReplacementPolicy::Lru => self.lines[i].lru,
                        ReplacementPolicy::Rrip => {
                            // Higher RRPV = evict first; fall back to LRU order.
                            (u64::from(3 - self.lines[i].rrpv) << 60) | self.lines[i].lru
                        }
                    })
            }
        } else {
            None
        };

        let idx = match install_idx {
            Some(idx) => {
                // Whole-line eviction (write back every dirty sector).
                let line = &self.lines[idx];
                if line.valid {
                    let (vtag, vset) = (line.tag, set);
                    for s in 0..self.sectors_per_line as usize {
                        if line.sector_valid[s] && line.sector_dirty[s] {
                            let a = self.sector_addr(vtag, line.sector_fgtag[s], vset, s);
                            actions.push(MissAction::Writeback {
                                addr: a,
                                bytes: SECTOR_BYTES as u32,
                            });
                            self.stats.writeback_bytes += SECTOR_BYTES;
                        }
                    }
                    self.stats.line_evictions += 1;
                }
                let line = &mut self.lines[idx];
                *line = Line::empty(self.sectors_per_line as usize);
                line.valid = true;
                line.tag = tag;
                idx
            }
            None => {
                // Sector replacement among the same-tag lines (Fig. 6 right): prefer a
                // line whose target sector slot is still invalid (no data lost), otherwise
                // the LRU/RRIP line, whose sector is evicted.
                let idx = same_tag_ways
                    .iter()
                    .copied()
                    .find(|&i| !self.lines[i].sector_valid[fg_offset])
                    .unwrap_or_else(|| {
                        *same_tag_ways
                            .iter()
                            .min_by_key(|&&i| match self.cfg.policy {
                                ReplacementPolicy::Lru => self.lines[i].lru,
                                ReplacementPolicy::Rrip => {
                                    (u64::from(3 - self.lines[i].rrpv) << 60) | self.lines[i].lru
                                }
                            })
                            .expect("at least one same-tag line when partition is full")
                    });
                let line = &self.lines[idx];
                if line.sector_valid[fg_offset] && line.sector_dirty[fg_offset] {
                    let a =
                        self.sector_addr(line.tag, line.sector_fgtag[fg_offset], set, fg_offset);
                    actions.push(MissAction::Writeback {
                        addr: a,
                        bytes: SECTOR_BYTES as u32,
                    });
                    self.stats.writeback_bytes += SECTOR_BYTES;
                }
                if line.sector_valid[fg_offset] {
                    self.stats.sector_evictions += 1;
                }
                idx
            }
        };

        // Install the new sector.
        let line = &mut self.lines[idx];
        line.sector_valid[fg_offset] = true;
        line.sector_dirty[fg_offset] = write;
        line.sector_fgtag[fg_offset] = fg_tag;
        self.touch(idx);
        self.stats.fill_bytes += SECTOR_BYTES;
        actions.push(MissAction::Fill {
            addr: addr & !(SECTOR_BYTES - 1),
            bytes: SECTOR_BYTES as u32,
            useful: requested,
        });

        AccessResult {
            hit: false,
            actions,
        }
    }

    fn flush(&mut self) -> Vec<MissAction> {
        let mut actions = Vec::new();
        for set in 0..self.sets {
            for w in 0..self.cfg.ways as u64 {
                let idx = (set * self.cfg.ways as u64 + w) as usize;
                let sectors = self.sectors_per_line as usize;
                for s in 0..sectors {
                    let line = &self.lines[idx];
                    if line.valid && line.sector_valid[s] && line.sector_dirty[s] {
                        let a = self.sector_addr(line.tag, line.sector_fgtag[s], set, s);
                        actions.push(MissAction::Writeback {
                            addr: a,
                            bytes: SECTOR_BYTES as u32,
                        });
                        self.stats.writeback_bytes += SECTOR_BYTES;
                    }
                }
                self.lines[idx] = Line::empty(self.sectors_per_line as usize);
            }
        }
        actions
    }

    fn begin_tile(&mut self, distinct_tags: u32) {
        // Equal way partitioning over the tags of the tile (Section V-B).
        self.allocated_ways_per_tag = (self.cfg.ways / distinct_tags.max(1)).max(1);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        match self.cfg.policy {
            ReplacementPolicy::Lru => "Piccolo (LRU)",
            ReplacementPolicy::Rrip => "Piccolo (RRIP)",
        }
    }

    fn capacity_bytes(&self) -> u64 {
        self.sets * self.cfg.ways as u64 * self.cfg.line_bytes as u64
    }

    fn tag_coverage_bytes(&self) -> u64 {
        // Addresses sharing one line tag span fg-tag x set x fg-offset x 8 B
        // (32 KiB for the paper's 4 MiB geometry).
        (1u64 << self.cfg.fg_tag_bits) * self.sets * self.sectors_per_line as u64 * SECTOR_BYTES
    }
}
