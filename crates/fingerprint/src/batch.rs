//! Batched fingerprint generation on the virtual device.
//!
//! The map phase loads "batches of reads ... in the GPU" and fingerprints
//! them. The paper contrasts two kernel schemes (Section III-A):
//!
//! * **thread-per-read** — natural but slow on real GPUs: each thread walks
//!   one read sequentially, producing strided (uncoalesced) memory traffic
//!   and "excessive memory throttling";
//! * **block-per-read** — one block per read, threads = read length, prefix
//!   fingerprints by Hillis-Steele scan, suffixes derived in shared memory.
//!
//! Both schemes compute identical fingerprints here; they differ in the
//! *cost* charged to the device. Thread-per-read issues one 1-byte global
//! transaction per base per step with no coalescing — we charge its traffic
//! at the 32-byte transaction granularity real devices use, an 8× penalty
//! per logical byte. Block-per-read performs `log2(l)` coalesced passes via
//! shared memory. The `fingerprint` ablation bench shows the resulting gap.
//!
//! What executes on the CPU is the same for both: the O(n) pass of
//! [`RabinKarp::fingerprints_into`] per read, as the vgpu radix and merge
//! kernels also run sequential CPU code charged at a GPU-shaped cost.

use crate::scan::RabinKarp;
use crate::Fingerprint128;
use rayon::prelude::*;
use vgpu::{Device, KernelCost};

/// Kernel organization for fingerprint generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintScheme {
    /// One thread walks each read (the strawman).
    ThreadPerRead,
    /// One block of `read_len` threads per read (the paper's kernel).
    BlockPerRead,
}

/// Fingerprints of one batch of same-length reads, stored flat: row `r`
/// occupies `[r·read_len, (r+1)·read_len)` of each buffer. In
/// [`BatchOutput::prefix`] row `r`, index `i` is read `r`'s `(i+1)`-length
/// prefix; in [`BatchOutput::suffix`] row `r`, index `i` is its suffix
/// starting at `i`. The buffers keep their capacity across
/// [`batch_fingerprints_into`] calls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutput {
    read_len: usize,
    prefix: Vec<Fingerprint128>,
    suffix: Vec<Fingerprint128>,
}

impl BatchOutput {
    /// Prefix fingerprints of read `r`.
    pub fn prefix(&self, r: usize) -> &[Fingerprint128] {
        &self.prefix[r * self.read_len..(r + 1) * self.read_len]
    }

    /// Suffix fingerprints of read `r`.
    pub fn suffix(&self, r: usize) -> &[Fingerprint128] {
        &self.suffix[r * self.read_len..(r + 1) * self.read_len]
    }
}

/// Uncoalesced global-memory transaction size on real devices.
const TRANSACTION_BYTES: u64 = 32;

fn scheme_cost(scheme: FingerprintScheme, reads: usize, read_len: usize) -> KernelCost {
    let n = reads as u64;
    let l = read_len.max(1) as u64;
    let steps = (read_len.max(2) as f64).log2().ceil() as u64;
    match scheme {
        FingerprintScheme::ThreadPerRead => KernelCost {
            // Sequential Horner per thread. Every base load and every
            // fingerprint store is strided across threads, so each logical
            // access burns a full 32-byte transaction: one per base read
            // and four per position for the two 16-byte fingerprint halves.
            flops: n * l * 8,
            bytes: n * l * TRANSACTION_BYTES + n * l * 4 * TRANSACTION_BYTES,
        },
        FingerprintScheme::BlockPerRead => KernelCost {
            // One coalesced load of the encoded read, log2(l) scan steps
            // entirely in *shared memory* (no global traffic), and one
            // coalesced 32-byte fingerprint store per position.
            flops: n * l * steps * 4,
            bytes: n * l + n * l * 32,
        },
    }
}

/// Fingerprint a batch of same-length reads on `device`.
///
/// `batch` holds the 2-bit codes of each read. The math is identical for
/// both schemes; only the modeled device time differs.
pub fn batch_fingerprints(
    device: &Device,
    rk: &RabinKarp,
    batch: &[Vec<u8>],
    scheme: FingerprintScheme,
) -> BatchOutput {
    let read_len = batch.first().map_or(0, Vec::len);
    assert!(
        batch.iter().all(|r| r.len() == read_len),
        "batch reads must share one length"
    );
    let mut out = BatchOutput::default();
    batch_fingerprints_into(device, rk, &batch.concat(), batch.len(), scheme, &mut out);
    out
}

/// [`batch_fingerprints`] over `reads` reads stored flat in `codes` (read
/// `r` at `[r·len, (r+1)·len)`), writing into `out` and reusing its
/// buffers.
pub fn batch_fingerprints_into(
    device: &Device,
    rk: &RabinKarp,
    codes: &[u8],
    reads: usize,
    scheme: FingerprintScheme,
    out: &mut BatchOutput,
) {
    let read_len = codes.len().checked_div(reads).unwrap_or(0);
    assert_eq!(
        codes.len(),
        reads * read_len,
        "codes must hold `reads` reads of one length"
    );
    device.charge_kernel(
        match scheme {
            FingerprintScheme::ThreadPerRead => "fingerprint_thread_per_read",
            FingerprintScheme::BlockPerRead => "fingerprint_block_per_read",
        },
        scheme_cost(scheme, reads, read_len),
    );
    out.read_len = read_len;
    out.prefix.resize(codes.len(), 0);
    out.suffix.resize(codes.len(), 0);
    if codes.is_empty() {
        return;
    }
    // A few contiguous runs of rows per worker thread, mirroring
    // grid-of-blocks execution; each row is one block's read.
    let span = reads.div_ceil(4 * rayon::current_num_threads()) * read_len;
    let mut tasks: Vec<_> = codes
        .chunks(span)
        .zip(out.prefix.chunks_mut(span))
        .zip(out.suffix.chunks_mut(span))
        .collect();
    tasks.par_iter_mut().for_each(|((codes, prefix), suffix)| {
        let rows = codes
            .chunks(read_len)
            .zip(prefix.chunks_mut(read_len))
            .zip(suffix.chunks_mut(read_len));
        for ((c, p), s) in rows {
            rk.fingerprints_into(c, p, s);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::GpuProfile;

    fn batch() -> Vec<Vec<u8>> {
        vec![
            vec![0, 1, 2, 3, 0, 1, 2, 3],
            vec![3, 3, 3, 3, 3, 3, 3, 3],
            vec![0, 0, 0, 0, 1, 1, 1, 1],
        ]
    }

    #[test]
    fn both_schemes_compute_identical_fingerprints() {
        let dev = Device::new(GpuProfile::k40());
        let rk = RabinKarp::new(8);
        let a = batch_fingerprints(&dev, &rk, &batch(), FingerprintScheme::ThreadPerRead);
        let b = batch_fingerprints(&dev, &rk, &batch(), FingerprintScheme::BlockPerRead);
        assert_eq!(a, b);
        assert_eq!(a.prefix(0).len(), 8);
        assert_eq!(a.suffix(2).len(), 8);
    }

    #[test]
    fn batch_matches_single_read_api() {
        let dev = Device::new(GpuProfile::k40());
        let rk = RabinKarp::new(8);
        let out = batch_fingerprints(&dev, &rk, &batch(), FingerprintScheme::BlockPerRead);
        for (i, codes) in batch().iter().enumerate() {
            let (p, s) = rk.all_fingerprints(codes);
            assert_eq!(out.prefix(i), p);
            assert_eq!(out.suffix(i), s);
        }
    }

    #[test]
    fn reused_buffers_give_the_fresh_result() {
        let dev = Device::new(GpuProfile::k40());
        let rk = RabinKarp::new(100);
        let long: Vec<Vec<u8>> = (0..37).map(|i| vec![(i % 4) as u8; 100]).collect();
        let short: Vec<Vec<u8>> = (0..5).map(|i| vec![(i % 3) as u8; 60]).collect();
        let mut out = BatchOutput::default();
        for batch in [&long, &short, &long] {
            let codes = batch.concat();
            let scheme = FingerprintScheme::BlockPerRead;
            batch_fingerprints_into(&dev, &rk, &codes, batch.len(), scheme, &mut out);
            assert_eq!(out, batch_fingerprints(&dev, &rk, batch, scheme));
        }
    }

    #[test]
    #[should_panic(expected = "batch reads must share one length")]
    fn mixed_read_lengths_panic() {
        let dev = Device::new(GpuProfile::k40());
        let batch = vec![vec![0; 8], vec![0; 7]];
        batch_fingerprints(
            &dev,
            &RabinKarp::new(8),
            &batch,
            FingerprintScheme::BlockPerRead,
        );
    }

    #[test]
    fn thread_per_read_charges_more_device_time() {
        let reads: Vec<Vec<u8>> = (0..64).map(|i| vec![(i % 4) as u8; 100]).collect();
        let rk = RabinKarp::new(100);

        let dev_naive = Device::new(GpuProfile::k40());
        batch_fingerprints(&dev_naive, &rk, &reads, FingerprintScheme::ThreadPerRead);
        let dev_block = Device::new(GpuProfile::k40());
        batch_fingerprints(&dev_block, &rk, &reads, FingerprintScheme::BlockPerRead);

        let naive_s = dev_naive.stats().kernel_seconds;
        let block_s = dev_block.stats().kernel_seconds;
        assert!(
            naive_s > block_s,
            "memory-throttled scheme must be slower: {naive_s} vs {block_s}"
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let dev = Device::new(GpuProfile::k40());
        let rk = RabinKarp::new(8);
        let out = batch_fingerprints(&dev, &rk, &[], FingerprintScheme::BlockPerRead);
        assert_eq!(out, BatchOutput::default());
        assert_eq!(dev.stats().kernel_launches, 1);
    }
}
