//! Piccolo-cache (Section V of the paper).
//!
//! Piccolo-cache stores 8 B sectors inside 128 B lines (16 sectors). Each line carries one
//! address *tag*; each sector additionally carries an 8-bit *fine-grained tag* (fg-tag),
//! so the sectors of one line may come from anywhere in a 32 KiB window (fg-tag 8 bits +
//! fg-offset 4 bits + byte offset 3 bits) that shares the line tag. This keeps the tag
//! overhead near a conventional cache (≈2 % line tags + 12.5 % fg-tags) while behaving
//! almost like the ideal 8 B-line cache.
//!
//! Address split (paper example: 48-bit addresses, 4 MiB, 8-way):
//!
//! ```text
//!  | tag | fg-tag | set index | fg-offset | byte offset |
//!  |  21 |      8 |        12 |         4 |           3 |
//! ```
//!
//! The same tag may occupy several ways of a set; lookups search the ways sequentially
//! (cheap, throughput-oriented). Replacement follows Section V-B: on an fg-tag miss the
//! victim is a *sector* of the LRU line with the same tag, unless the tag occupies fewer
//! ways than its way-partitioning allocation, in which case a whole line of another tag
//! is evicted to install a new line for this tag.

use crate::stats::CacheStats;
use crate::traits::{AccessResult, MissAction, ReplacementPolicy, SectorCache};

const SECTOR_BYTES: u64 = 8;

/// One line's tag state. Sector `s`'s valid and dirty flags are bit `s` of the masks; its
/// fg-tag lives in [`PiccoloCache::fg_tags`] and means something only while it is valid.
#[derive(Debug, Clone, Copy)]
struct Line {
    valid: bool,
    tag: u64,
    lru: u64,
    /// 2-bit re-reference prediction value when RRIP replacement is used.
    rrpv: u8,
    sector_valid: u64,
    sector_dirty: u64,
}

impl Line {
    const EMPTY: Line = Line {
        valid: false,
        tag: 0,
        lru: 0,
        rrpv: 3,
        sector_valid: 0,
        sector_dirty: 0,
    };
}

/// The sectors set in `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// Geometry of a [`PiccoloCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PiccoloCacheConfig {
    /// Total data capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (16 sectors of 8 B by default).
    pub line_bytes: u32,
    /// Number of fg-tag bits (8 in the paper).
    pub fg_tag_bits: u32,
    /// Replacement policy among same-tag lines / victim lines.
    pub policy: ReplacementPolicy,
}

impl Default for PiccoloCacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 4 << 20,
            ways: 8,
            line_bytes: 128,
            fg_tag_bits: 8,
            policy: ReplacementPolicy::Lru,
        }
    }
}

/// The Piccolo-cache model.
#[derive(Debug, Clone)]
pub struct PiccoloCache {
    cfg: PiccoloCacheConfig,
    sets: u64,
    sectors_per_line: u32,
    lines: Vec<Line>,
    /// The fg-tag of every sector, `sectors_per_line` consecutive entries per line.
    fg_tags: Vec<u16>,
    lru_clock: u64,
    /// Ways each tag may occupy in a set (equal way partitioning over the tags of the
    /// current tile); `ways` when tiling information is absent.
    allocated_ways_per_tag: u32,
    stats: CacheStats,
}

impl PiccoloCache {
    /// Creates a Piccolo-cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero ways, line smaller than a sector)
    /// or too wide for the per-set way mask and per-line sector masks (more than 64 ways,
    /// lines over 512 B).
    pub fn new(cfg: PiccoloCacheConfig) -> Self {
        assert!(cfg.ways > 0, "ways must be positive");
        assert!(cfg.ways <= 64, "at most 64 ways");
        assert!(cfg.line_bytes <= 512, "lines of at most 512 B (64 sectors)");
        assert!(
            cfg.line_bytes as u64 >= SECTOR_BYTES && cfg.line_bytes.is_multiple_of(8),
            "line must be a multiple of 8 B"
        );
        let sets = (cfg.capacity_bytes / (cfg.line_bytes as u64 * cfg.ways as u64)).max(1);
        let sectors_per_line = cfg.line_bytes / SECTOR_BYTES as u32;
        let lines = (sets * cfg.ways as u64) as usize;
        Self {
            cfg,
            sets,
            sectors_per_line,
            lines: vec![Line::EMPTY; lines],
            fg_tags: vec![0; lines * sectors_per_line as usize],
            lru_clock: 0,
            allocated_ways_per_tag: cfg.ways,
            stats: CacheStats::default(),
        }
    }

    /// Creates a Piccolo-cache with the given capacity, 8 ways, LRU, 128 B lines.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        Self::new(PiccoloCacheConfig {
            capacity_bytes,
            ..Default::default()
        })
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
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

    /// Index of sector `s` of line `idx` in `fg_tags`.
    fn sector(&self, idx: usize, s: usize) -> usize {
        idx * self.sectors_per_line as usize + s
    }

    /// Replacement order among valid lines: the smallest key is evicted first.
    fn victim_key(&self, idx: usize) -> u64 {
        let line = &self.lines[idx];
        match self.cfg.policy {
            ReplacementPolicy::Lru => line.lru,
            // Higher RRPV = evict first; fall back to LRU order.
            ReplacementPolicy::Rrip => (u64::from(3 - line.rrpv) << 60) | line.lru,
        }
    }

    /// Writes back the dirty sectors of line `idx` of `set` that `mask` selects.
    fn write_back(&mut self, idx: usize, set: u64, mask: u64, actions: &mut Vec<MissAction>) {
        let line = self.lines[idx];
        for s in bits(mask & line.sector_valid & line.sector_dirty) {
            let addr = self.sector_addr(line.tag, self.fg_tags[self.sector(idx, s)], set, s);
            actions.push(MissAction::Writeback {
                addr,
                bytes: SECTOR_BYTES as u32,
            });
            self.stats.writeback_bytes += SECTOR_BYTES;
        }
    }
}

impl SectorCache for PiccoloCache {
    fn access(&mut self, addr: u64, bytes: u32, write: bool) -> AccessResult {
        self.stats.accesses += 1;
        let (tag, fg_tag, set, fg_offset) = self.fields(addr);
        let requested = bytes.min(SECTOR_BYTES as u32);
        let start = (set * self.cfg.ways as u64) as usize;
        let ways = self.cfg.ways as usize;
        let sector_bit = 1u64 << fg_offset;

        // Sequential search of the ways for matching tags (Section V-A); bit `w` of
        // `same_tag` marks way `w`.
        let mut same_tag = 0u64;
        let mut invalid_way: Option<usize> = None;
        for (w, line) in self.lines[start..start + ways].iter().enumerate() {
            if line.valid && line.tag == tag {
                same_tag |= 1 << w;
            } else if !line.valid && invalid_way.is_none() {
                invalid_way = Some(start + w);
            }
        }

        // Hit: a same-tag line whose sector holds our fg-tag.
        for idx in bits(same_tag).map(|w| start + w) {
            if self.lines[idx].sector_valid & sector_bit != 0
                && self.fg_tags[self.sector(idx, fg_offset)] == fg_tag
            {
                self.touch(idx);
                if write {
                    self.lines[idx].sector_dirty |= sector_bit;
                }
                self.stats.hits += 1;
                return AccessResult::hit();
            }
        }

        self.stats.misses += 1;
        let mut actions = Vec::with_capacity(2);

        // Decide between installing a new line (way partitioning allows it) or replacing
        // a sector inside an existing same-tag line.
        let may_take_new_way = same_tag.count_ones() < self.allocated_ways_per_tag;
        let install_idx = if may_take_new_way {
            // An invalid way, else a whole line of another tag chosen by LRU/RRIP.
            invalid_way.or_else(|| {
                (0..ways)
                    .filter(|&w| same_tag & (1 << w) == 0)
                    .map(|w| start + w)
                    .min_by_key(|&i| self.victim_key(i))
            })
        } else {
            None
        };

        let idx = match install_idx {
            Some(idx) => {
                // Whole-line eviction (write back every dirty sector).
                if self.lines[idx].valid {
                    self.write_back(idx, set, u64::MAX, &mut actions);
                    self.stats.line_evictions += 1;
                }
                self.lines[idx] = Line {
                    valid: true,
                    tag,
                    ..Line::EMPTY
                };
                idx
            }
            None => {
                // Sector replacement among the same-tag lines (Fig. 6 right): prefer a
                // line whose target sector slot is still invalid (no data lost), otherwise
                // the LRU/RRIP line, whose sector is evicted.
                let same_tag_lines = bits(same_tag).map(|w| start + w);
                let idx = same_tag_lines
                    .clone()
                    .find(|&i| self.lines[i].sector_valid & sector_bit == 0)
                    .unwrap_or_else(|| {
                        same_tag_lines
                            .min_by_key(|&i| self.victim_key(i))
                            .expect("at least one same-tag line when partition is full")
                    });
                self.write_back(idx, set, sector_bit, &mut actions);
                if self.lines[idx].sector_valid & sector_bit != 0 {
                    self.stats.sector_evictions += 1;
                }
                idx
            }
        };

        // Install the new sector.
        let line = &mut self.lines[idx];
        line.sector_valid |= sector_bit;
        if write {
            line.sector_dirty |= sector_bit;
        } else {
            line.sector_dirty &= !sector_bit;
        }
        let slot = self.sector(idx, fg_offset);
        self.fg_tags[slot] = fg_tag;
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
        let ways = self.cfg.ways as usize;
        for idx in 0..self.lines.len() {
            if self.lines[idx].valid {
                self.write_back(idx, (idx / ways) as u64, u64::MAX, &mut actions);
            }
            self.lines[idx] = Line::EMPTY;
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

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PiccoloCache {
        PiccoloCache::new(PiccoloCacheConfig {
            capacity_bytes: 4096,
            ways: 4,
            line_bytes: 128,
            fg_tag_bits: 8,
            policy: ReplacementPolicy::Lru,
        })
    }

    #[test]
    fn address_field_roundtrip() {
        let c = small();
        for addr in [0u64, 8, 4096, 123456 & !7, (1 << 30) + 8 * 77] {
            let (tag, fg, set, off) = c.fields(addr);
            assert_eq!(c.sector_addr(tag, fg, set, off), addr & !7);
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small();
        assert!(!c.access(64, 8, false).hit);
        assert!(c.access(64, 8, false).hit);
        assert!(c.access(64, 8, true).hit);
    }

    #[test]
    fn fills_are_sector_sized() {
        let mut c = small();
        let r = c.access(1 << 20, 8, false);
        assert!(matches!(
            r.actions.last().unwrap(),
            MissAction::Fill {
                bytes: 8,
                useful: 8,
                ..
            }
        ));
    }

    #[test]
    fn same_tag_different_fgtag_evicts_sector_not_line() {
        let mut c = small();
        // Two addresses with the same (tag, set, fg-offset) but different fg-tags: the
        // fg-tag stride is sets * sectors_per_line * 8 bytes.
        let stride = c.sets() * 16 * 8;
        c.access(0, 8, true);
        c.begin_tile(4); // one way per tag -> forces sector replacement for same tag
                         // Fill the allowed way, then force an fg-tag conflict.
        let r = c.access(stride, 8, false);
        assert!(!r.hit);
        // Second access to the first address misses again (its sector was replaced) but
        // the line itself was reused, not evicted.
        assert_eq!(c.stats().line_evictions, 0);
        assert!(c.stats().sector_evictions >= 1);
        // The dirty evicted sector produced a writeback.
        assert!(r
            .actions
            .iter()
            .any(|a| matches!(a, MissAction::Writeback { addr: 0, bytes: 8 })));
    }

    #[test]
    fn different_tags_can_coexist_across_ways() {
        let mut c = small();
        c.begin_tile(2);
        // Two different tags map to the same set; with 4 ways and 2 tags each may hold 2.
        let tag_stride = c.sets() * 16 * 8 * 256; // beyond the fg-tag range -> new tag
        c.access(0, 8, false);
        c.access(tag_stride, 8, false);
        assert!(c.access(0, 8, false).hit);
        assert!(c.access(tag_stride, 8, false).hit);
    }

    #[test]
    fn way_partitioning_limits_ways_per_tag() {
        let mut c = small();
        c.begin_tile(4);
        assert_eq!(c.allocated_ways_per_tag, 1);
        c.begin_tile(1);
        assert_eq!(c.allocated_ways_per_tag, 4);
        c.begin_tile(100);
        assert_eq!(c.allocated_ways_per_tag, 1);
    }

    #[test]
    fn flush_writes_back_dirty_sectors() {
        let mut c = small();
        c.access(8, 8, true);
        c.access(80, 8, false);
        let wb = c.flush();
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].addr(), 8);
        assert!(!c.access(8, 8, false).hit);
    }

    #[test]
    fn rrip_variant_works() {
        let mut c = PiccoloCache::new(PiccoloCacheConfig {
            capacity_bytes: 2048,
            ways: 2,
            policy: ReplacementPolicy::Rrip,
            ..Default::default()
        });
        assert_eq!(c.name(), "Piccolo (RRIP)");
        for i in 0..64 {
            c.access(i * 8, 8, i % 2 == 0);
        }
        assert!(c.stats().accesses == 64);
    }

    #[test]
    fn behaves_like_8b_cache_for_dense_working_set_within_capacity() {
        // A dense working set smaller than capacity should be fully held after a warm-up
        // pass, like the ideal 8B-line cache.
        let mut c = PiccoloCache::with_capacity(64 * 1024);
        let words = 4096u64; // 32 KiB of 8 B words
        for i in 0..words {
            c.access(i * 8, 8, false);
        }
        let misses_before = c.stats().misses;
        for i in 0..words {
            c.access(i * 8, 8, false);
        }
        let misses_after = c.stats().misses;
        assert_eq!(misses_before, words, "first pass all cold misses");
        assert_eq!(misses_after, misses_before, "second pass must be all hits");
    }

    #[test]
    fn matches_the_per_line_vec_reference() {
        use super::reference::ReferencePiccoloCache;
        use piccolo_graph::rng::Rng64;

        let mut rng = Rng64::seed_from_u64(0xcac4_e5ec);
        let geometries = [
            (4096, 4, 128),
            (16 << 10, 8, 64),
            (8192, 2, 256),
            (32 << 10, 16, 128),
        ];
        for (capacity_bytes, ways, line_bytes) in geometries {
            for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Rrip] {
                let cfg = PiccoloCacheConfig {
                    capacity_bytes,
                    ways,
                    line_bytes,
                    fg_tag_bits: 8,
                    policy,
                };
                let mut fast = PiccoloCache::new(cfg);
                let mut reference = ReferencePiccoloCache::new(cfg);
                let coverage = fast.tag_coverage_bytes();
                let mut writebacks = 0;
                for tile in [1, 2, 4, 8, 100] {
                    fast.begin_tile(tile);
                    reference.begin_tile(tile);
                    // A few tags, so lines of one tag compete for sectors and tags compete
                    // for ways; a narrow window within each, so accesses also hit.
                    let tags = 1 + rng.gen_u64_below(2 * u64::from(ways));
                    let window = 1 + rng.gen_u64_below(coverage / 8);
                    for i in 0..4_000 {
                        let addr = rng.gen_u64_below(tags) * coverage + rng.gen_u64_below(window);
                        let bytes = 1 + rng.gen_u32_below(16);
                        let write = rng.gen_u32_below(3) == 0;
                        let got = fast.access(addr, bytes, write);
                        assert_eq!(
                            got,
                            reference.access(addr, bytes, write),
                            "{cfg:?} tile {tile} access {i}: {addr:#x}"
                        );
                        writebacks += got.actions.iter().filter(|a| !a.is_fill()).count();
                    }
                    assert_eq!(fast.stats(), reference.stats(), "{cfg:?} tile {tile}");
                    assert_eq!(fast.flush(), reference.flush(), "{cfg:?} tile {tile}");
                }
                assert_eq!(fast.stats(), reference.stats(), "{cfg:?}");
                let s = fast.stats();
                assert!(
                    s.hits > 0 && s.line_evictions > 0 && s.sector_evictions > 0,
                    "{cfg:?}"
                );
                assert!(writebacks > 0, "{cfg:?}");
            }
        }
    }
}
