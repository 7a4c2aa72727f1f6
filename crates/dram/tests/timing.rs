//! Property-style timing tests: arbitrary request mixes must never violate DDR timing
//! constraints, and higher-level invariants (traffic accounting, monotonic time) must
//! hold. This is the software stand-in for the paper's FPGA protocol validation
//! (Section VII-B).
//!
//! No crates.io access in the build container, so instead of `proptest` these run seeded
//! random cases through [`piccolo_graph::rng::Rng64`]; a failing seed is printed in the
//! assertion message.

use piccolo_dram::{
    check_trace, AddressMapper, DramConfig, MemRequest, MemoryKind, MemorySystem, Region,
};
use piccolo_graph::rng::Rng64;

const CASES: u64 = 48;

/// Generates an arbitrary mix of 1..200 reads, writes, FIM, NMP and PIM requests.
fn random_requests(rng: &mut Rng64, cfg: DramConfig) -> Vec<MemRequest> {
    let mapper = AddressMapper::new(&cfg);
    let addr_space = 1u64 << 28;
    let len = 1 + rng.gen_index(199);
    (0..len)
        .map(|_| {
            let kind = rng.gen_u32_below(8) as u8;
            let addr = rng.gen_u64_below(addr_space) & !7; // 8-byte aligned
            let items = 1 + rng.gen_index(8);
            let row = mapper.row_id(addr);
            let offsets: Vec<u16> = (0..items as u16).collect();
            match kind {
                0 | 1 => MemRequest::Read {
                    addr,
                    useful_bytes: 8,
                    region: Region::PropertyRandom,
                },
                2 => MemRequest::Write {
                    addr,
                    useful_bytes: 8,
                    region: Region::PropertyRandom,
                },
                3 => MemRequest::GatherFim {
                    row,
                    offsets,
                    region: Region::PropertyRandom,
                },
                4 => MemRequest::ScatterFim {
                    row,
                    offsets,
                    region: Region::PropertyRandom,
                },
                5 => MemRequest::GatherNmp {
                    row,
                    offsets,
                    region: Region::PropertyRandom,
                },
                6 => MemRequest::ScatterNmp {
                    row,
                    offsets,
                    region: Region::PropertyRandom,
                },
                _ => MemRequest::PimUpdate {
                    addr,
                    region: Region::PropertyRandom,
                },
            }
        })
        .collect()
}

/// No request mix may produce a command trace that violates DDR timing constraints.
#[test]
fn timing_constraints_hold_for_arbitrary_mixes() {
    for seed in 0..CASES {
        let cfg = DramConfig::ddr4_2400_x16().with_fim();
        let reqs = random_requests(&mut Rng64::seed_from_u64(seed), cfg);
        let mut mem = MemorySystem::new(cfg);
        mem.enable_trace();
        mem.service_batch(reqs);
        let violations = check_trace(mem.config(), mem.trace().unwrap());
        assert!(
            violations.is_empty(),
            "seed {seed}: violations: {:?}",
            &violations[..violations.len().min(3)]
        );
    }
}

/// The same holds for a single-channel single-rank configuration where contention is
/// maximal.
#[test]
fn timing_constraints_hold_on_minimal_config() {
    for seed in 0..CASES {
        let cfg = DramConfig::new(MemoryKind::Ddr4X16, 1, 1).with_fim();
        let reqs = random_requests(&mut Rng64::seed_from_u64(seed), cfg);
        let mut mem = MemorySystem::new(cfg);
        mem.enable_trace();
        mem.service_batch(reqs);
        let violations = check_trace(mem.config(), mem.trace().unwrap());
        assert!(
            violations.is_empty(),
            "seed {seed}: violations: {:?}",
            &violations[..violations.len().min(3)]
        );
    }
}

/// Useful bytes never exceed transferred bytes, and time is monotonic.
#[test]
fn traffic_accounting_is_consistent() {
    for seed in 0..CASES {
        let cfg = DramConfig::ddr4_2400_x16().with_fim();
        let reqs = random_requests(&mut Rng64::seed_from_u64(seed), cfg);
        let mut mem = MemorySystem::new(cfg);
        let n = reqs.len() as u64;
        let batch = mem.service_batch(reqs);
        assert_eq!(batch.requests, n, "seed {seed}");
        assert!(batch.end_clock >= batch.start_clock, "seed {seed}");
        let s = mem.stats();
        assert!(s.useful_offchip_bytes <= s.offchip_bytes, "seed {seed}");
        assert!(s.row_hits + s.row_misses >= n, "seed {seed}");
    }
}

/// Tracing only records the commands: a traced and an untraced system serving the same
/// batches report the same timing and the same statistics.
#[test]
fn tracing_does_not_change_timing_or_stats() {
    let mut total = piccolo_dram::MemStats::default();
    for seed in 0..CASES {
        let cfg = DramConfig::ddr4_2400_x16().with_fim();
        let reqs = random_requests(&mut Rng64::seed_from_u64(seed), cfg);
        let mut traced = MemorySystem::new(cfg);
        traced.enable_trace();
        let mut plain = MemorySystem::new(cfg);
        let (first, second) = reqs.split_at(reqs.len() / 2);
        for batch in [first, second] {
            assert_eq!(
                traced.service_batch(batch.to_vec()),
                plain.service_batch(batch.to_vec()),
                "seed {seed}"
            );
        }
        assert_eq!(traced.stats(), plain.stats(), "seed {seed}");
        assert!(plain.trace().is_none(), "seed {seed}");
        assert!(!traced.trace().unwrap().is_empty(), "seed {seed}");
        total.merge(plain.stats());
    }
    // The mixes exercise every request kind, the memory-side ones included.
    assert!(total.fim_gathers > 0 && total.fim_scatters > 0);
    assert!(total.nmp_ops > 0 && total.pim_updates > 0);
    assert!(total.read_transactions > 0 && total.write_transactions > 0);
}

/// Servicing requests in two batches takes at least as long as one batch (no lost
/// work), and produces identical traffic counters.
#[test]
fn batching_does_not_change_traffic() {
    for seed in 0..CASES {
        let cfg = DramConfig::ddr4_2400_x16();
        let reqs = random_requests(&mut Rng64::seed_from_u64(seed), cfg);
        let mut one = MemorySystem::new(cfg);
        one.service_batch(reqs.clone());
        let mut two = MemorySystem::new(cfg);
        let mid = reqs.len() / 2;
        two.service_batch(reqs[..mid].to_vec());
        two.service_batch(reqs[mid..].to_vec());
        assert_eq!(
            one.stats().offchip_bytes,
            two.stats().offchip_bytes,
            "seed {seed}"
        );
        assert_eq!(
            one.stats().read_transactions,
            two.stats().read_transactions,
            "seed {seed}"
        );
        assert_eq!(
            one.stats().write_transactions,
            two.stats().write_transactions,
            "seed {seed}"
        );
        // Note: elapsed time is *not* compared — the FR-FCFS window reorders requests, so
        // the makespan of one large batch is not necessarily shorter than two halves.
    }
}

#[test]
fn fim_microbenchmark_speedup_is_close_to_4x_in_row() {
    // Fig. 9a: reading strided 8 B items that all sit in open rows approaches the
    // theoretical 4x bandwidth gain at stride 8 (64 B between items).
    let cfg = DramConfig::new(MemoryKind::Ddr4X16, 1, 4);
    let mapper = AddressMapper::new(&cfg);
    let items = 4096u64;
    let stride_bytes = 64u64;

    // Conventional: one 64 B read per 8 B item.
    let mut conv = MemorySystem::new(cfg);
    let t_conv = conv
        .service_batch((0..items).map(|i| MemRequest::Read {
            addr: i * stride_bytes,
            useful_bytes: 8,
            region: Region::Other,
        }))
        .elapsed_clocks();

    // Piccolo: gather 8 items per FIM op, grouped by row.
    let fim_cfg = DramConfig::new(MemoryKind::Ddr4X16, 1, 4).with_fim();
    let mut fim = MemorySystem::new(fim_cfg);
    let mut by_row: std::collections::HashMap<_, Vec<u16>> = std::collections::HashMap::new();
    let mut order = Vec::new();
    for i in 0..items {
        let addr = i * stride_bytes;
        let row = mapper.row_id(addr);
        let entry = by_row.entry(row).or_insert_with(|| {
            order.push(row);
            Vec::new()
        });
        entry.push(mapper.decompose(addr).word_offset());
    }
    let mut reqs = Vec::new();
    for row in order {
        for chunk in by_row[&row].chunks(8) {
            reqs.push(MemRequest::GatherFim {
                row,
                offsets: chunk.to_vec(),
                region: Region::Other,
            });
        }
    }
    let t_fim = fim.service_batch(reqs).elapsed_clocks();

    let speedup = t_conv as f64 / t_fim as f64;
    assert!(
        speedup > 2.0 && speedup < 4.5,
        "in-row strided gather speedup should be near 4x, got {speedup:.2} ({t_conv} vs {t_fim})"
    );
}
