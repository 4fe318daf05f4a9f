//! The prefix/suffix fingerprint kernel and the paper's scan it stands
//! in for.

use crate::params::{HashParams, PlaceValues};
use crate::{pack, Fingerprint128};

/// Dual Rabin-Karp hasher over 2-bit base codes.
///
/// [`RabinKarp::fingerprints_into`] is the kernel the map phase executes:
/// one O(n) pass per read computes both hashes of every prefix by Horner's
/// rule and derives every suffix from them with the paper's Fig. 6 step.
/// The paper's device kernel computes the prefixes with a Hillis-Steele
/// scan of `log2(n)` doubling steps instead (Fig. 5). That scan is what
/// the device model charges, and [`RabinKarp::scan_steps`] replays it step
/// by step; the tests check it against the kernel. [`RabinKarp::fingerprint`]
/// (Horner over one whole string) is the oracle for both.
#[derive(Debug, Clone)]
pub struct RabinKarp {
    places: [PlaceValues; 2],
}

impl RabinKarp {
    /// Dual hasher with the default parameter sets, for reads up to
    /// `max_len` bases.
    pub fn new(max_len: usize) -> Self {
        RabinKarp {
            places: [
                PlaceValues::new(HashParams::set0(), max_len),
                PlaceValues::new(HashParams::set1(), max_len),
            ],
        }
    }

    /// Hasher with explicit parameter sets (tests use the Fig. 5 toys).
    pub fn with_params(p0: HashParams, p1: HashParams, max_len: usize) -> Self {
        RabinKarp {
            places: [PlaceValues::new(p0, max_len), PlaceValues::new(p1, max_len)],
        }
    }

    /// Longest read this hasher supports.
    pub fn max_len(&self) -> usize {
        self.places[0].max_len()
    }

    /// The paper's prefix kernel for one parameter set, replayed step by
    /// step (Fig. 5). Row 0 holds the base codes; each later row is one
    /// lock-step pass of the block with a doubled offset,
    /// `P[i] ← P[i−off]·σ^off + P[i]` for `i ≥ off`. The last row holds the
    /// prefix hashes: `P[i]` hashes the prefix of length `i + 1`.
    pub fn scan_steps(&self, set: usize, codes: &[u8]) -> Vec<Vec<u64>> {
        assert!(
            codes.len() <= self.max_len(),
            "read longer than place table"
        );
        let pv = &self.places[set];
        let p = pv.params();
        let mut rows = vec![codes.iter().map(|&c| c as u64 % p.q).collect::<Vec<_>>()];
        let mut offset = 1usize;
        while offset < codes.len() {
            let m_off = pv.get(offset);
            let prev = &rows[rows.len() - 1];
            let next = (0..prev.len())
                .map(|i| {
                    if i >= offset {
                        p.addmod(p.mulmod(prev[i - offset], m_off), prev[i])
                    } else {
                        prev[i]
                    }
                })
                .collect();
            rows.push(next);
            offset *= 2;
        }
        rows
    }

    /// Both hashes of every prefix and suffix of a read, in one pass:
    /// `prefix[i]` is the fingerprint of the `(i+1)`-length prefix,
    /// `suffix[i]` of the suffix *starting* at position `i` (length
    /// `n − i`). Both slices must be exactly as long as the read.
    pub fn fingerprints_into(
        &self,
        codes: &[u8],
        prefix: &mut [Fingerprint128],
        suffix: &mut [Fingerprint128],
    ) {
        let n = codes.len();
        assert!(n <= self.max_len(), "read longer than place table");
        assert!(
            prefix.len() == n && suffix.len() == n,
            "output rows must match the read length"
        );
        let [pv0, pv1] = &self.places;
        let (p0, p1) = (pv0.params(), pv1.params());

        // Prefixes by Horner's rule: P[i] = P[i−1]·σ + code[i].
        let (mut f0, mut f1) = (0u64, 0u64);
        for (out, &c) in prefix.iter_mut().zip(codes) {
            f0 = p0.mul_add(f0, p0.sigma, c as u64);
            f1 = p1.mul_add(f1, p1.sigma, c as u64);
            *out = pack(f0, f1);
        }

        // Suffixes from the prefixes (Fig. 6): with F the full-read hash,
        // S[0] = F and S[i] = (F − P[i−1]·σ^(n−i)) mod q.
        let Some((first, rest)) = suffix.split_first_mut() else {
            return;
        };
        *first = pack(f0, f1);
        for (i, (out, &p)) in rest.iter_mut().zip(prefix.iter()).enumerate() {
            let shift = n - 1 - i;
            let s0 = p0.submod(f0, p0.mulmod((p >> 64) as u64, pv0.get(shift)));
            let s1 = p1.submod(f1, p1.mulmod(p as u64, pv1.get(shift)));
            *out = pack(s0, s1);
        }
    }

    /// [`RabinKarp::fingerprints_into`] into fresh vectors:
    /// `(prefixes, suffixes)`.
    pub fn all_fingerprints(&self, codes: &[u8]) -> (Vec<Fingerprint128>, Vec<Fingerprint128>) {
        let mut prefix = vec![0; codes.len()];
        let mut suffix = vec![0; codes.len()];
        self.fingerprints_into(codes, &mut prefix, &mut suffix);
        (prefix, suffix)
    }

    /// Horner-rule hash of a whole string for one parameter set — the
    /// sequential oracle.
    pub fn horner_one(&self, set: usize, codes: &[u8]) -> u64 {
        let p = self.places[set].params();
        let mut h = 0u64;
        for &c in codes {
            h = p.addmod(p.mulmod(h, p.sigma), c as u64);
        }
        h
    }

    /// Horner-rule fingerprint of a whole string (both sets packed).
    pub fn fingerprint(&self, codes: &[u8]) -> Fingerprint128 {
        pack(self.horner_one(0, codes), self.horner_one(1, codes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Codes under the paper's Fig. 5 convention (A=0, C=1, T=2, G=3) for
    /// the worked example GATACCAGTA.
    fn fig5_codes() -> Vec<u8> {
        // G A T A C C A G T A
        vec![3, 0, 2, 0, 1, 1, 0, 3, 2, 0]
    }

    fn fig5_rk() -> RabinKarp {
        RabinKarp::with_params(HashParams::fig5(), HashParams::set1(), 16)
    }

    /// The high (parameter set 0) hash of each fingerprint.
    fn high(fps: &[Fingerprint128]) -> Vec<u64> {
        fps.iter().map(|&fp| (fp >> 64) as u64).collect()
    }

    /// Both hash sets of the scan's last row, packed like the kernel's.
    fn scan_prefixes(rk: &RabinKarp, codes: &[u8]) -> Vec<Fingerprint128> {
        let last = |set| rk.scan_steps(set, codes).pop().unwrap();
        let (h0, h1) = (last(0), last(1));
        h0.into_iter().zip(h1).map(|(a, b)| pack(a, b)).collect()
    }

    #[test]
    fn replays_the_fig5_scan_step_by_step() {
        let rows = fig5_rk().scan_steps(0, &fig5_codes());
        let expect: [[u64; 10]; 5] = [
            [3, 0, 2, 0, 1, 1, 0, 3, 2, 0],     // input codes
            [3, 12, 2, 8, 1, 5, 4, 3, 1, 8],    // offset 1, σ^1 = 4
            [3, 12, 11, 5, 7, 3, 7, 5, 0, 4],   // offset 2, σ^2 = 3
            [3, 12, 11, 5, 8, 7, 2, 11, 11, 5], // offset 4, σ^4 = 9
            [3, 12, 11, 5, 8, 7, 2, 11, 7, 2],  // offset 8, σ^8 = 3
        ];
        assert_eq!(rows, expect.map(Vec::from).to_vec());
    }

    #[test]
    fn reproduces_fig5_prefix_fingerprints() {
        let rk = fig5_rk();
        let (prefixes, _) = rk.all_fingerprints(&fig5_codes());
        // Fig. 5's output row: 3 12 11 5 8 7 2 11 7 2.
        assert_eq!(high(&prefixes), vec![3, 12, 11, 5, 8, 7, 2, 11, 7, 2]);
        assert_eq!(prefixes, scan_prefixes(&rk, &fig5_codes()));
    }

    #[test]
    fn reproduces_fig6_suffix_fingerprints() {
        let (_, suffixes) = fig5_rk().all_fingerprints(&fig5_codes());
        // Fig. 6's output row S: 2 5 5 10 10 0 4 4 8 0.
        assert_eq!(high(&suffixes), vec![2, 5, 5, 10, 10, 0, 4, 4, 8, 0]);
    }

    #[test]
    fn scan_matches_horner_for_every_prefix() {
        let rk = RabinKarp::new(64);
        let codes: Vec<u8> = (0..37).map(|i| (i * 7 % 4) as u8).collect();
        let (prefixes, _) = rk.all_fingerprints(&codes);
        assert_eq!(prefixes, scan_prefixes(&rk, &codes));
        for (i, &fp) in prefixes.iter().enumerate() {
            assert_eq!(fp, rk.fingerprint(&codes[..=i]), "prefix length {}", i + 1);
        }
    }

    #[test]
    fn suffix_derivation_matches_direct_hash() {
        let rk = RabinKarp::new(64);
        let codes: Vec<u8> = (0..41).map(|i| (i * 13 % 4) as u8).collect();
        let (_, suffixes) = rk.all_fingerprints(&codes);
        for (i, &fp) in suffixes.iter().enumerate() {
            assert_eq!(fp, rk.fingerprint(&codes[i..]), "suffix start {i}");
        }
    }

    #[test]
    fn matching_suffix_prefix_pairs_share_fingerprints() {
        // Overlap: suffix of r1 == prefix of r2 of length 5.
        let r1: Vec<u8> = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let r2: Vec<u8> = vec![0, 1, 2, 3, 3, 3, 3, 3];
        let rk = RabinKarp::new(16);
        let (_, s1) = rk.all_fingerprints(&r1);
        let (p2, _) = rk.all_fingerprints(&r2);
        // r1's 4-length suffix is [0,1,2,3] = r2's 4-length prefix.
        assert_eq!(s1[4], p2[3]);
        // And a non-matching length disagrees.
        assert_ne!(s1[5], p2[2]);
    }

    #[test]
    fn empty_and_single_base_inputs() {
        let rk = RabinKarp::new(8);
        assert_eq!(rk.all_fingerprints(&[]), (vec![], vec![]));
        assert_eq!(rk.scan_steps(0, &[]), vec![Vec::<u64>::new()]);
        let (p, s) = rk.all_fingerprints(&[2]);
        assert_eq!(p, vec![rk.fingerprint(&[2])]);
        assert_eq!(s, p);
    }

    #[test]
    #[should_panic(expected = "read longer than place table")]
    fn read_longer_than_table_panics() {
        RabinKarp::new(4).all_fingerprints(&[0; 5]);
    }

    #[test]
    #[should_panic(expected = "output rows must match the read length")]
    fn short_output_rows_panic() {
        RabinKarp::new(8).fingerprints_into(&[0; 4], &mut [0; 4], &mut [0; 3]);
    }

    #[test]
    fn scan_equals_horner_for_random_reads() {
        testkit::check(testkit::CASES, |g| {
            let codes = g.vec(1..150, |g| g.range(0u8..4));
            // The default pseudo-Mersenne moduli, or the Fig. 5 toy
            // modulus that takes the plain-remainder path.
            let rk = if g.range(0u8..2) == 0 {
                RabinKarp::new(150)
            } else {
                RabinKarp::with_params(HashParams::fig5(), HashParams::set1(), 150)
            };
            let (prefixes, suffixes) = rk.all_fingerprints(&codes);
            assert_eq!(prefixes, scan_prefixes(&rk, &codes));
            for (i, &fp) in prefixes.iter().enumerate() {
                assert_eq!(fp, rk.fingerprint(&codes[..=i]));
            }
            for (i, &fp) in suffixes.iter().enumerate() {
                assert_eq!(fp, rk.fingerprint(&codes[i..]));
            }
        });
    }

    #[test]
    fn distinct_short_strings_have_distinct_fingerprints() {
        testkit::check(testkit::CASES, |g| {
            let a = g.vec(1..40, |g| g.range(0u8..4));
            let b = g.vec(1..40, |g| g.range(0u8..4));
            let rk = RabinKarp::new(40);
            if a != b {
                assert_ne!(rk.fingerprint(&a), rk.fingerprint(&b));
            }
        });
    }
}
