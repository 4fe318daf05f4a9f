//! # fingerprint — Rabin-Karp fingerprints of all prefixes and suffixes
//!
//! The map phase needs, for every read (and its reverse complement), the
//! fingerprints of *all* of its prefixes and suffixes (Section III-A).
//! LaSAGNA computes the prefix fingerprints as a **Hillis-Steele scan**
//! (paper Fig. 5): after `log2(l)` steps, lane `i` holds the hash of the
//! prefix ending at position `i`. The suffix fingerprints are then derived
//! from the prefix fingerprints and the place-value table in one more step
//! (Fig. 6): `S[i] = (F − P[i−1]·σ^(n−i)) mod q` where `F` is the full-read
//! hash.
//!
//! The device model charges that scan (`log2(l)` steps per read), and
//! [`RabinKarp::scan_steps`] replays it step by step. The kernel that runs
//! on the CPU, [`RabinKarp::fingerprints_into`], computes the same prefix
//! hashes in one O(n) Horner pass and the suffixes with the Fig. 6 step,
//! both hash sets together.
//!
//! Following Section IV-B, a fingerprint is **two independent 64-bit
//! hashes** (different radixes and prime moduli) packed into a `u128` —
//! wide enough that the paper observed zero false-positive edges, a claim
//! the `fpcheck` experiment reproduces (and the `fp_width` ablation breaks
//! on purpose by truncating).

pub mod batch;
pub mod params;
pub mod scan;

pub use batch::{batch_fingerprints, batch_fingerprints_into, BatchOutput, FingerprintScheme};
pub use params::{HashParams, PlaceValues};
pub use scan::RabinKarp;

/// A 128-bit fingerprint: hash under parameter set 0 in the high 64 bits,
/// hash under parameter set 1 in the low 64 bits.
pub type Fingerprint128 = u128;

/// Pack two 64-bit hashes into a [`Fingerprint128`].
pub fn pack(h0: u64, h1: u64) -> Fingerprint128 {
    ((h0 as u128) << 64) | h1 as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_places_hashes_in_expected_halves() {
        let fp = pack(0xAAAA, 0xBBBB);
        assert_eq!((fp >> 64) as u64, 0xAAAA);
        assert_eq!(fp as u64, 0xBBBB);
    }
}
