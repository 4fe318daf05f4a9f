//! Map phase: fingerprint generation and length partitioning (Section
//! III-A).
//!
//! Batches of reads are staged on the device; each read *and its reverse
//! complement* (vertices `2i` / `2i+1`) is fingerprinted — all prefixes and
//! all suffixes derived from them (see `fingerprint::batch`) — and the
//! `(fingerprint, vertex)` tuples are routed into per-length partition
//! files. Lengths below `l_min` and the full read length are dropped (the
//! latter would create self-loops).

use crate::config::AssemblyConfig;
use crate::Result;
use fingerprint::{batch_fingerprints_into, BatchOutput, RabinKarp};
use genome::ReadSet;
use gstream::spill::{PartitionKind, PartitionSet, SpillDir};
use gstream::{HostMem, KvPair};
use std::collections::BTreeMap;
use vgpu::Device;

/// Per-length record counts produced by the map phase.
pub type PartitionCounts = BTreeMap<u32, (u64, u64)>;

/// Run the map phase over all reads: returns
/// `(length → (suffix records, prefix records))`.
pub fn run(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    reads: &ReadSet,
) -> Result<PartitionCounts> {
    run_range(device, host, spill, config, reads, 0, reads.len())
}

/// [`run`] with structured events: `map.batches` plus the per-length
/// `spill.tuples.*` / `spill.bytes` counters on the current span.
pub fn run_traced(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    reads: &ReadSet,
    rec: &obs::Recorder,
) -> Result<PartitionCounts> {
    run_range_traced(device, host, spill, config, reads, 0, reads.len(), rec)
}

/// Map a contiguous block of reads `[start, end)`. Vertex ids stay global
/// (`2 · read-index + strand`), which is what lets the distributed map
/// assign blocks to arbitrary nodes (Section III-E1).
pub fn run_range(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    reads: &ReadSet,
    start: usize,
    end: usize,
) -> Result<PartitionCounts> {
    run_range_traced(
        device,
        host,
        spill,
        config,
        reads,
        start,
        end,
        &obs::Recorder::disabled(),
    )
}

/// [`run_range`] with structured events.
#[allow(clippy::too_many_arguments)]
pub fn run_range_traced(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    reads: &ReadSet,
    start: usize,
    end: usize,
    rec: &obs::Recorder,
) -> Result<PartitionCounts> {
    config.validate()?;
    let n = reads.read_len();
    if n != config.l_max as usize {
        return Err(crate::LasagnaError::BadConfig(format!(
            "reads have length {n} but config.l_max is {}",
            config.l_max
        )));
    }
    if start > end || end > reads.len() {
        return Err(crate::LasagnaError::BadConfig(format!(
            "block [{start}, {end}) out of range for {} reads",
            reads.len()
        )));
    }
    let rk = RabinKarp::new(n);
    let mut partitions =
        PartitionSet::create_split(spill, config.l_min, config.l_max, config.range_split)?;

    // Batch sizing. On the host a batch stages forward + reverse codes
    // (2n bytes per read); on the device it holds those codes plus the
    // prefix and suffix fingerprints of both orientations (2·2·n·16 B per
    // read). The paper allocates "a fixed amount of device memory for each
    // phase regardless of the data size, and the device memory assigned is
    // fully utilized" (Section IV-C2) — so the batch grows until it fills
    // 90% of the device, bounded by half the host budget.
    let per_read_device_bytes = 2 * n + 2 * 2 * n * 16;
    let device_cap = (device.capacity() as usize * 9 / 10 / per_read_device_bytes).max(1);
    let host_cap = (host.capacity() as usize / (n * 2) / 2).max(1);
    let batch_reads = config.map_batch_reads.min(host_cap).min(device_cap);
    // Width truncation keeps the top bits; `validate` bounds the width to
    // 1..=128, so the shift is in 0..=127.
    let shift = 128 - config.fingerprint_bits;
    // Staging and output buffers, reused by every batch.
    let mut codes_buf: Vec<u8> = Vec::new();
    let mut batch: Vec<u8> = Vec::with_capacity(batch_reads * 2 * n);
    let mut out = BatchOutput::default();

    let mut batches = 0u64;
    let mut read_idx = start;
    while read_idx < end {
        batches += 1;
        let batch_end = (read_idx + batch_reads).min(end);
        // Host staging buffer for the batch: forward + reverse codes; the
        // device holds the batch plus its fingerprint outputs.
        let _host_guard = host.reserve(((batch_end - read_idx) * n * 2) as u64)?;
        let _device_staging = device.alloc::<u8>((batch_end - read_idx) * per_read_device_bytes)?;

        // Strand b of the batch is vertex 2·read_idx + b: forward strands
        // are even, reverse complements odd.
        batch.clear();
        for i in read_idx..batch_end {
            reads.read_codes_into(i, &mut codes_buf);
            batch.extend_from_slice(&codes_buf);
            batch.extend(codes_buf.iter().rev().map(|&c| c ^ 3));
        }
        let strands = 2 * (batch_end - read_idx);

        // The reads travel to the device 2-bit packed; the kept tuples come
        // back as (16 B fingerprint + 4 B vertex) per partition entry.
        let kept_lengths = (config.l_max - config.l_min) as u64;
        device.charge_transfer(
            (strands * n) as u64 / 4,
            strands as u64 * kept_lengths * 2 * KvPair::BYTES as u64,
        );

        batch_fingerprints_into(
            device,
            &rk,
            &batch,
            strands,
            config.fingerprint_scheme,
            &mut out,
        );

        // Length-major: every strand's tuple for one length, in strand
        // order, before the next length. Each partition file receives its
        // tuples in the same order as strand-major routing would.
        for l in config.l_min..config.l_max {
            // Suffix of length l starts at position n − l; prefix of
            // length l ends at position l − 1.
            let (sfx_at, pfx_at) = (n - l as usize, l as usize - 1);
            for b in 0..strands {
                let vertex = (2 * read_idx + b) as u32;
                let sfx = out.suffix(b)[sfx_at] >> shift;
                let pfx = out.prefix(b)[pfx_at] >> shift;
                partitions.write(PartitionKind::Suffix, l, KvPair::new(sfx, vertex))?;
                partitions.write(PartitionKind::Prefix, l, KvPair::new(pfx, vertex))?;
            }
        }
        read_idx = batch_end;
    }

    if rec.is_enabled() && batches > 0 {
        rec.counter("map.batches", batches);
    }
    Ok(partitions.finish_traced(rec)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::{GenomeSim, ShotgunSim};
    use gstream::IoStats;
    use vgpu::GpuProfile;

    fn setup() -> (testkit::TempDir, Device, HostMem, SpillDir) {
        let dir = testkit::tempdir().unwrap();
        let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
        let device = Device::new(GpuProfile::k40());
        let host = HostMem::new(64 << 20);
        (dir, device, host, spill)
    }

    fn tiny_reads() -> ReadSet {
        let genome = GenomeSim::uniform(400, 5).generate();
        ShotgunSim::error_free(20, 4.0, 6).sample(&genome)
    }

    #[test]
    fn map_creates_partitions_with_one_tuple_per_vertex_per_length() {
        let (_g, device, host, spill) = setup();
        let reads = tiny_reads();
        let config = AssemblyConfig::for_dataset(12, 20);
        let counts = run(&device, &host, &spill, &config, &reads).unwrap();
        assert_eq!(counts.len(), 8); // lengths 12..20
        let vertices = reads.vertex_count() as u64;
        for (len, (s, p)) in &counts {
            assert_eq!(*s, vertices, "suffix count at length {len}");
            assert_eq!(*p, vertices, "prefix count at length {len}");
        }
    }

    #[test]
    fn partition_tuples_hash_the_right_substrings() {
        let (_g, device, host, spill) = setup();
        let mut reads = ReadSet::new(8);
        reads.push(&"ACGTACGT".parse().unwrap()).unwrap();
        reads.push(&"TTACGTAC".parse().unwrap()).unwrap();
        let config = AssemblyConfig::for_dataset(5, 8);
        run(&device, &host, &spill, &config, &reads).unwrap();

        let rk = RabinKarp::new(8);
        // Suffix partition at length 6: vertex 0's tuple must equal the
        // direct fingerprint of the last 6 bases of read 0.
        let sfx: Vec<KvPair> = spill
            .reader(PartitionKind::Suffix, 6)
            .unwrap()
            .read_all()
            .unwrap();
        let read0 = reads.read(0).to_codes();
        let expect = rk.fingerprint(&read0[2..]);
        let v0 = sfx.iter().find(|p| p.val == 0).unwrap();
        assert_eq!(v0.key, expect);

        // Prefix partition at length 6: vertex 3 (reverse of read 1).
        let pfx: Vec<KvPair> = spill
            .reader(PartitionKind::Prefix, 6)
            .unwrap()
            .read_all()
            .unwrap();
        let rc1 = reads.read(1).reverse_complement().to_codes();
        let expect = rk.fingerprint(&rc1[..6]);
        let v3 = pfx.iter().find(|p| p.val == 3).unwrap();
        assert_eq!(v3.key, expect);
    }

    #[test]
    fn overlapping_reads_share_fingerprints_across_partitions() {
        let (_g, device, host, spill) = setup();
        let mut reads = ReadSet::new(8);
        // read1's 5-suffix "CGTAC" == read2's 5-prefix.
        reads.push(&"TAACGTAC".parse().unwrap()).unwrap();
        reads.push(&"CGTACTTA".parse().unwrap()).unwrap();
        let config = AssemblyConfig::for_dataset(5, 8);
        run(&device, &host, &spill, &config, &reads).unwrap();
        let sfx = spill
            .reader(PartitionKind::Suffix, 5)
            .unwrap()
            .read_all()
            .unwrap();
        let pfx = spill
            .reader(PartitionKind::Prefix, 5)
            .unwrap()
            .read_all()
            .unwrap();
        let s0 = sfx.iter().find(|p| p.val == 0).unwrap();
        let p2 = pfx.iter().find(|p| p.val == 2).unwrap();
        assert_eq!(s0.key, p2.key, "matching overlap must share a fingerprint");
    }

    #[test]
    fn wrong_read_length_is_rejected() {
        let (_g, device, host, spill) = setup();
        let reads = tiny_reads(); // length 20
        let config = AssemblyConfig::for_dataset(12, 21);
        assert!(run(&device, &host, &spill, &config, &reads).is_err());
    }

    #[test]
    fn empty_read_set_produces_empty_partitions() {
        let (_g, device, host, spill) = setup();
        let reads = ReadSet::new(20);
        let config = AssemblyConfig::for_dataset(12, 20);
        let counts = run(&device, &host, &spill, &config, &reads).unwrap();
        assert!(counts.values().all(|&(s, p)| s == 0 && p == 0));
    }

    #[test]
    fn truncated_fingerprints_lose_low_bits() {
        let (_g, device, host, spill) = setup();
        let reads = tiny_reads();
        let mut config = AssemblyConfig::for_dataset(12, 20);
        config.fingerprint_bits = 16;
        run(&device, &host, &spill, &config, &reads).unwrap();
        let sfx = spill
            .reader(PartitionKind::Suffix, 12)
            .unwrap()
            .read_all()
            .unwrap();
        assert!(sfx.iter().all(|p| p.key < (1 << 16)));
    }

    #[test]
    fn spill_files_hold_direct_fingerprints_in_strand_order() {
        let (_g, device, host, spill) = setup();
        // Overlaps of 40 bases and more: σ^l exceeds q from l = 28 on, so
        // the high hash words wrap and spread over the key space.
        let genome = GenomeSim::uniform(2000, 5).generate();
        let reads = ShotgunSim::error_free(64, 4.0, 6).sample(&genome);
        let mut config = AssemblyConfig::for_dataset(40, 64);
        // Truncated keys (ranges split the top 32 key bits, so one bit
        // less still spreads them over two of the three ranges), and
        // several batches, the last one short.
        config.fingerprint_bits = 127;
        config.range_split = 3;
        config.map_batch_reads = 7;
        assert!(reads.len() > 2 * 7 && !reads.len().is_multiple_of(7));
        run(&device, &host, &spill, &config, &reads).unwrap();

        // The reference hashes each substring with whole-string Horner,
        // not through the batch kernel.
        let rk = RabinKarp::new(64);
        let strands: Vec<Vec<u8>> = (0..reads.len())
            .flat_map(|i| {
                let read = reads.read(i);
                [read.to_codes(), read.reverse_complement().to_codes()]
            })
            .collect();
        for kind in [PartitionKind::Suffix, PartitionKind::Prefix] {
            for l in 40..64usize {
                let expect: Vec<KvPair> = strands
                    .iter()
                    .enumerate()
                    .map(|(v, codes)| {
                        let sub = match kind {
                            PartitionKind::Suffix => &codes[64 - l..],
                            PartitionKind::Prefix => &codes[..l],
                        };
                        KvPair::new(rk.fingerprint(sub) >> 1, v as u32)
                    })
                    .collect();
                let mut filled = 0;
                for r in 0..3 {
                    let got = spill
                        .reader_range(kind, l as u32, r, 3)
                        .unwrap()
                        .read_all()
                        .unwrap();
                    let want: Vec<KvPair> = expect
                        .iter()
                        .copied()
                        .filter(|p| gstream::range_of(p.key, 3) == r)
                        .collect();
                    assert_eq!(got, want, "{kind:?} length {l} range {r}");
                    filled += usize::from(!want.is_empty());
                }
                assert_eq!(filled, 2, "{kind:?} length {l}");
            }
        }
    }

    #[test]
    fn map_charges_device_kernels_and_transfers() {
        let (_g, device, host, spill) = setup();
        let reads = tiny_reads();
        let config = AssemblyConfig::for_dataset(12, 20);
        run(&device, &host, &spill, &config, &reads).unwrap();
        let stats = device.stats();
        assert!(stats.kernel_launches > 0);
        assert!(stats.h2d_bytes > 0);
        assert!(stats.d2h_bytes > 0);
    }
}
