//! Hash parameters and place-value tables.

use serde::{Deserialize, Serialize};

/// Parameters of one Rabin-Karp hash: a radix σ ("a small prime larger than
/// the alphabet size") and a prime modulus q ("a large prime number") —
/// Section III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashParams {
    /// Radix σ.
    pub sigma: u64,
    /// Prime modulus q (must exceed the radix; may be any value up to
    /// 2^64 − 1: every operation reduces exactly, whatever its inputs).
    pub q: u64,
}

/// Largest `c` for which a modulus `q = 2^64 − c` takes the folding
/// reduction in [`HashParams::reduce`]. Below `2^32 − 1` two folds bring
/// any 128-bit value under `2q`; `2^31` keeps a margin.
const FOLD_MAX_C: u64 = 1 << 31;

impl HashParams {
    /// First default parameter set: σ = 5, q = 2^64 − 83 (the second
    /// largest 64-bit prime). A full-width modulus matters beyond collision
    /// resistance: the packed fingerprint's *high* word drives both
    /// fingerprint-range partitioning and width truncation, so its top
    /// bits must carry entropy.
    pub fn set0() -> Self {
        HashParams {
            sigma: 5,
            q: 18_446_744_073_709_551_533,
        }
    }

    /// Second default parameter set: σ = 11, q = 2^64 − 59 (largest prime
    /// below 2^64).
    pub fn set1() -> Self {
        HashParams {
            sigma: 11,
            q: 18_446_744_073_709_551_557,
        }
    }

    /// The toy parameters of the paper's worked example in Fig. 5
    /// (radix 4, prime 13) — used by tests that recompute the figure.
    pub fn fig5() -> Self {
        HashParams { sigma: 4, q: 13 }
    }

    /// `x mod q`, bit-identical to `x % q`.
    ///
    /// Both default moduli are pseudo-Mersenne, `q = 2^64 − c` with a small
    /// `c`, so `2^64 ≡ c (mod q)` and the high word folds down:
    /// `hi·2^64 + lo ≡ hi·c + lo`. The first fold leaves a value below
    /// `(c + 1)·2^64`, the second one below `c² + 2^64 < 2q`, and one
    /// conditional subtract finishes. Other moduli (the Fig. 5 toy q = 13)
    /// take the plain 128-bit remainder.
    #[inline]
    fn reduce(&self, x: u128) -> u64 {
        let c = self.q.wrapping_neg();
        if c == 0 || c > FOLD_MAX_C {
            return (x % self.q as u128) as u64;
        }
        let c = c as u128;
        let y = (x >> 64) * c + (x as u64 as u128);
        let z = (y >> 64) * c + (y as u64 as u128);
        let q = self.q as u128;
        (if z >= q { z - q } else { z }) as u64
    }

    /// `(a · b) mod q` without overflow.
    #[inline]
    pub fn mulmod(&self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 * b as u128)
    }

    /// `(a + b) mod q` without overflow.
    #[inline]
    pub fn addmod(&self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 + b as u128)
    }

    /// `(a · b + c) mod q`, one reduction: a Horner step is
    /// `mul_add(h, σ, code)`, equal to `addmod(mulmod(h, σ), code)`.
    #[inline]
    pub(crate) fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce(a as u128 * b as u128 + c as u128)
    }

    /// `(a − b) mod q`, wrapped into `[0, q)`.
    #[inline]
    pub fn submod(&self, a: u64, b: u64) -> u64 {
        let (a, b) = (self.reduce(a as u128), self.reduce(b as u128));
        // With a < b ≤ q − 1, a + (q − b) lies in [1, q).
        if a >= b {
            a - b
        } else {
            a + (self.q - b)
        }
    }
}

/// The precomputed place values `M[i] = σ^i mod q`.
///
/// "This step is done once for the entire program and reused for all reads"
/// (Section III-A): one table per parameter set, sized to the read length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaceValues {
    params: HashParams,
    m: Vec<u64>,
}

impl PlaceValues {
    /// Table of `σ^0 .. σ^max_len mod q` (inclusive, so `get(max_len)` is
    /// valid — the suffix derivation indexes by suffix *length*).
    pub fn new(params: HashParams, max_len: usize) -> Self {
        let mut m = Vec::with_capacity(max_len + 1);
        let mut v = 1u64 % params.q;
        for _ in 0..=max_len {
            m.push(v);
            v = params.mulmod(v, params.sigma);
        }
        PlaceValues { params, m }
    }

    /// The parameters this table belongs to.
    pub fn params(&self) -> HashParams {
        self.params
    }

    /// `σ^i mod q`.
    pub fn get(&self, i: usize) -> u64 {
        self.m[i]
    }

    /// Largest exponent in the table.
    pub fn max_len(&self) -> usize {
        self.m.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_values_are_powers_of_sigma() {
        let p = HashParams::fig5();
        let pv = PlaceValues::new(p, 6);
        assert_eq!(pv.get(0), 1);
        assert_eq!(pv.get(1), 4);
        assert_eq!(pv.get(2), 3); // 16 mod 13
        assert_eq!(pv.get(3), 12); // 64 mod 13
        assert_eq!(pv.max_len(), 6);
    }

    #[test]
    fn modular_ops_stay_in_range_at_extreme_values() {
        let p = HashParams::set1(); // q just below 2^64
        let a = p.q - 1;
        assert_eq!(p.addmod(a, a), p.q - 2);
        assert_eq!(p.mulmod(a, a), 1); // (-1)^2 = 1 mod q
        assert_eq!(p.submod(0, a), 1);
        assert_eq!(p.submod(a, a), 0);
    }

    #[test]
    fn modular_ops_match_the_u128_remainder() {
        let moduli = [
            HashParams::set0(),
            HashParams::set1(),
            HashParams::fig5(),
            // Far from 2^64: the plain-remainder path.
            HashParams {
                sigma: 7,
                q: (1 << 40) + 15,
            },
            // Either side of the folding limit.
            HashParams {
                sigma: 7,
                q: FOLD_MAX_C.wrapping_neg(),
            },
            HashParams {
                sigma: 7,
                q: FOLD_MAX_C.wrapping_neg() - 1,
            },
        ];
        for p in moduli {
            let q = p.q as u128;
            let check = |a: u64, b: u64| {
                let (x, y) = (a as u128, b as u128);
                assert_eq!(p.mulmod(a, b) as u128, x * y % q, "{a} * {b} mod {q}");
                assert_eq!(p.addmod(a, b) as u128, (x + y) % q, "{a} + {b} mod {q}");
                assert_eq!(
                    p.submod(a, b) as u128,
                    (x + q - y % q) % q,
                    "{a} - {b} mod {q}"
                );
                assert_eq!(
                    p.mul_add(a, b, b) as u128,
                    (x * y + y) % q,
                    "{a} * {b} + {b} mod {q}"
                );
            };
            let edges = [0, 1, p.q - 1, p.q, u64::MAX];
            for a in edges {
                for b in edges {
                    check(a, b);
                }
            }
            // Values within 100 of q, on both sides where they fit.
            let near_q =
                |g: &mut testkit::Gen| p.q.saturating_sub(100).saturating_add(g.range(0u64..200));
            testkit::check(testkit::CASES, |g| {
                check(g.any(), g.any());
                check(near_q(g), near_q(g));
                check(near_q(g), g.any());
                check(g.any(), near_q(g));
            });
        }
    }

    #[test]
    fn default_sets_use_distinct_primes_and_radixes() {
        let (a, b) = (HashParams::set0(), HashParams::set1());
        assert_ne!(a.sigma, b.sigma);
        assert_ne!(a.q, b.q);
        assert!(
            a.sigma > 4 && b.sigma > 4,
            "radix must exceed alphabet size"
        );
    }

    #[test]
    fn place_values_wrap_modulo_q() {
        let pv = PlaceValues::new(HashParams::fig5(), 12);
        for i in 0..=12 {
            assert!(pv.get(i) < 13);
        }
        // σ^6 = 4096 mod 13 = 1, so the sequence is periodic with period 6.
        assert_eq!(pv.get(6), 1);
        assert_eq!(pv.get(7), 4);
    }
}
