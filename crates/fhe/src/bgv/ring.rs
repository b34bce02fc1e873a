//! RNS polynomial arithmetic for the BGV scheme.
//!
//! Ring: `R_Q = Z_Q[X] / Φ_m(X)` with the ciphertext modulus `Q` held
//! in **residue number system** form as a product of distinct odd
//! word-sized primes (the modulus chain). A polynomial is stored as
//! one residue vector per active prime; dropping the last prime
//! (modulus switching) simply drops a row.
//!
//! The index `m` is an odd prime, so the ring has degree
//! `φ(m) = m - 1`. Reduction modulo `Φ_m = 1 + X + ... + X^(m-1)` uses
//! the prime-`m` identity `X^(m-1) ≡ -(1 + X + ... + X^(m-2))`:
//! multiply modulo `X^m - 1` (cyclic wrap), then fold the top
//! coefficient. The NTT fast path computes the *linear* product by
//! zero-padded forward/pointwise/inverse transforms of size
//! `next_pow2(2m - 1)` (chain primes `q ≡ 1 mod 2^s` from
//! [`crate::math::modq::ntt_chain_primes`]), then wraps and folds.
//!
//! A chain prime whose multiplicative group is too small for the
//! transform falls back to a schoolbook `O(φ(m)^2)` cyclic-wrap-and-fold
//! convolution, which doubles as the test oracle for the NTT path.
//!
//! A context built with [`RnsContext::with_special_prime`] also holds
//! the key-switching **special prime** `P`. It sits after the chain, at
//! row index [`RnsContext::primes`]`.len()`: ciphertexts never carry
//! it, but key material lives over `Q·P` (one more row than the full
//! chain), and [`RnsContext::mod_down_special`] divides a key-switch
//! product back down to `Q`.

use crate::math::modq::{add_mod, gcd, inv_mod, mul_mod, ntt_chain_primes, sub_mod};
use crate::math::ntt::NttPlan;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shared ring description: the cyclotomic index, the full modulus
/// chain (plus the optional special prime), and one cached NTT plan per
/// NTT-friendly prime.
#[derive(Debug)]
pub struct RnsContext {
    m: usize,
    /// The chain primes, then the special prime if there is one.
    primes: Vec<u64>,
    /// Number of chain primes (`primes.len()` less the special prime).
    chain_len: usize,
    /// One plan per prime, sized `next_pow2(2m - 1)`; `None` where the
    /// prime's 2-adicity is too small (schoolbook fallback).
    plans: Vec<Option<NttPlan>>,
    use_ntt: bool,
    /// Parallel degree for per-prime row loops (1 = sequential). An
    /// atomic so the knob can be turned through a shared handle (the
    /// server holds its backend in an `Arc`); results are bitwise
    /// independent of the value — see [`RnsContext::set_threads`].
    threads: AtomicUsize,
}

impl Clone for RnsContext {
    fn clone(&self) -> Self {
        Self {
            m: self.m,
            primes: self.primes.clone(),
            chain_len: self.chain_len,
            plans: self.plans.clone(),
            use_ntt: self.use_ntt,
            threads: AtomicUsize::new(self.threads.load(Ordering::Relaxed)),
        }
    }
}

/// A ring element over a prefix of the modulus chain.
///
/// `residues[j][i]` is coefficient `i` modulo `primes[j]`; the number
/// of rows is the element's *level* (active primes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RnsPoly {
    pub(crate) residues: Vec<Vec<u64>>,
}

/// A ring element in the **evaluation (NTT) domain**: one length-
/// [`RnsContext::ntt_size`] forward transform per active prime.
///
/// Pointwise products of evaluation rows are linear convolutions of the
/// corresponding coefficient rows (no cyclic aliasing: a single product
/// has degree `<= 2m - 4 < n`, and the transform is linear, so sums of
/// products stay representable too). This is the natural resident form
/// for *hot fixed operands* — key-switching key parts and plaintext
/// model diagonals are transformed once and then
/// multiply-accumulated pointwise against each query, with a single
/// inverse transform per output row at the end.
///
/// Level reduction is a prefix view: operations that take an
/// `EvalPoly` operand at a higher level than the accumulator simply
/// read its first rows — no cloning of key material.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalPoly {
    pub(crate) rows: Vec<Vec<u64>>,
}

impl EvalPoly {
    /// Number of active primes (rows).
    pub fn level(&self) -> usize {
        self.rows.len()
    }
}

impl RnsContext {
    /// Creates a prime-cyclotomic context for odd prime `m` with the
    /// given chain.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even, fewer than one prime is supplied, or any
    /// prime is even.
    pub fn new(m: usize, primes: Vec<u64>) -> Self {
        let chain_len = primes.len();
        Self::build(m, primes, chain_len)
    }

    /// [`RnsContext::new`] plus the key-switching special prime
    /// `special`, which must be odd and outside the chain. It is not a
    /// chain prime: [`RnsContext::primes`] and every ciphertext level
    /// exclude it; only key material (at [`RnsContext::key_level`]
    /// rows) and key-switch products carry its row.
    ///
    /// # Panics
    ///
    /// Panics as [`RnsContext::new`] does, or if `special` is a chain
    /// prime.
    pub fn with_special_prime(m: usize, chain: Vec<u64>, special: u64) -> Self {
        assert!(!chain.contains(&special), "special prime is in the chain");
        let chain_len = chain.len();
        let mut primes = chain;
        primes.push(special);
        Self::build(m, primes, chain_len)
    }

    fn build(m: usize, primes: Vec<u64>, chain_len: usize) -> Self {
        assert!(
            m >= 3 && m % 2 == 1,
            "prime-cyclotomic index m = {m} must be an odd prime"
        );
        assert!(chain_len > 0, "modulus chain must be nonempty");
        assert!(
            primes.iter().all(|&q| q % 2 == 1),
            "chain primes must be odd"
        );
        let n = Self::ntt_size(m);
        let plans = primes.iter().map(|&q| NttPlan::new(q, n)).collect();
        Self {
            m,
            primes,
            chain_len,
            plans,
            use_ntt: true,
            threads: AtomicUsize::new(1),
        }
    }

    /// Sets the parallel degree for per-prime row loops: with
    /// `threads > 1`, multiplications, forward/inverse transforms, and
    /// pointwise kernels fork their independent residue rows onto the
    /// process-wide [`copse_pool::global`] worker pool.
    ///
    /// Results are **bitwise identical** for every value: each prime's
    /// row is computed independently and collected in chain order, so
    /// the degree only affects wall-clock time. `1` (the default) is
    /// the fully sequential differential baseline.
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(threads.max(1), Ordering::Relaxed);
    }

    /// The configured parallel degree for per-prime row loops.
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// Runs `f(j)` for each of `rows` per-prime rows, forking onto the
    /// shared pool when the parallel degree allows and this thread is
    /// not already inside a pool task (inner μs-scale loops gain
    /// nothing from forking under an already-parallel outer stage).
    /// Row order is preserved, so parallel == sequential bitwise.
    pub(crate) fn par_rows<R: Send>(&self, rows: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let threads = self.threads();
        if threads > 1 && rows > 1 && !copse_pool::in_worker() {
            copse_pool::global().scope_indices(rows, threads, f)
        } else {
            (0..rows).map(f).collect()
        }
    }

    /// Transform length for linear products of two degree-`< φ(m)`
    /// rows: the product has degree `<= 2m - 4`, so `next_pow2(2m - 1)`
    /// holds it without cyclic aliasing.
    pub fn ntt_size(m: usize) -> usize {
        (2 * m - 1).next_power_of_two()
    }

    /// Whether the NTT fast path is enabled (per-prime plans still
    /// decide availability; unfriendly primes always use schoolbook).
    pub fn ntt_enabled(&self) -> bool {
        self.use_ntt
    }

    /// Enables or disables the NTT fast path; with `false` every
    /// product takes the schoolbook route (the test oracle).
    pub fn set_ntt_enabled(&mut self, enabled: bool) {
        self.use_ntt = enabled;
    }

    /// Number of chain primes holding a cached NTT plan.
    pub fn ntt_ready_primes(&self) -> usize {
        self.plans[..self.chain_len]
            .iter()
            .filter(|p| p.is_some())
            .count()
    }

    /// Builds the same ring twice over one freshly generated
    /// NTT-friendly chain: once on the fast path and once forced
    /// through schoolbook. The differential-testing and benchmarking
    /// pairing — both contexts compute bitwise-identical products.
    pub fn ntt_schoolbook_pair(m: usize, prime_bits: u32, chain: usize) -> (Self, Self) {
        let s = Self::ntt_size(m).trailing_zeros();
        let primes = ntt_chain_primes(prime_bits, chain, s);
        let ntt = Self::new(m, primes.clone());
        assert_eq!(ntt.ntt_ready_primes(), chain, "chain generated friendly");
        let mut school = Self::new(m, primes);
        school.set_ntt_enabled(false);
        (ntt, school)
    }

    /// Cyclotomic index `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Ring degree `φ(m) = m - 1`.
    pub fn phi(&self) -> usize {
        self.m - 1
    }

    /// The full modulus chain (without the special prime).
    pub fn primes(&self) -> &[u64] {
        &self.primes[..self.chain_len]
    }

    /// The key-switching special prime, if the context has one.
    pub fn special_prime(&self) -> Option<u64> {
        (self.primes.len() > self.chain_len).then(|| self.primes[self.chain_len])
    }

    /// Rows of key-switching material: the full chain plus the special
    /// prime's row (just the chain when there is no special prime).
    /// Level-taking constructors such as [`RnsContext::from_signed`]
    /// and [`RnsContext::sample_uniform`] accept it as a level.
    pub fn key_level(&self) -> usize {
        self.primes.len()
    }

    /// The prime indices a key switch at `level` works over: the
    /// level's chain prefix, then the special prime.
    ///
    /// # Panics
    ///
    /// Panics if the context has no special prime or `level` exceeds
    /// the chain.
    pub fn key_switch_rows(&self, level: usize) -> Vec<usize> {
        assert!(self.special_prime().is_some(), "no special prime");
        assert!(level <= self.chain_len, "level beyond the chain");
        (0..level).chain([self.chain_len]).collect()
    }

    /// Number of active primes of an element.
    pub fn level_of(&self, a: &RnsPoly) -> usize {
        a.residues.len()
    }

    /// The zero element at `level` primes.
    pub fn zero(&self, level: usize) -> RnsPoly {
        RnsPoly {
            residues: vec![vec![0; self.phi()]; level],
        }
    }

    /// Lifts a small signed polynomial (degree < φ) to all `level`
    /// primes.
    pub fn from_signed(&self, coeffs: &[i64], level: usize) -> RnsPoly {
        assert!(level <= self.primes.len(), "level beyond the key basis");
        RnsPoly {
            residues: (0..level).map(|j| self.signed_row(coeffs, j)).collect(),
        }
    }

    /// Lifts a signed polynomial (degree < φ) to one residue row modulo
    /// prime `j`. Every coefficient is reduced modulo that prime, so
    /// values wider than it — a key-switch digit of a larger chain
    /// prime lifted to the special prime — come out canonical, as the
    /// transforms require.
    ///
    /// # Panics
    ///
    /// Panics on degree overflow.
    pub fn signed_row(&self, coeffs: &[i64], j: usize) -> Vec<u64> {
        assert!(coeffs.len() <= self.phi(), "degree too large for the ring");
        let q = self.primes[j] as i64;
        let mut row = vec![0u64; self.phi()];
        for (r, &c) in row.iter_mut().zip(coeffs) {
            *r = c.rem_euclid(q) as u64;
        }
        row
    }

    /// Row `j` of `a` as centered residues in `(-q_j/2, q_j/2]`: the
    /// `j`-th digit of a hybrid key switch.
    pub fn centered_row(&self, a: &RnsPoly, j: usize) -> Vec<i64> {
        let q = self.primes[j];
        a.residues[j]
            .iter()
            .map(|&c| crate::math::modq::center(c, q))
            .collect()
    }

    /// Uniformly random element at `level` primes.
    pub fn sample_uniform(&self, level: usize, rng: &mut impl Rng) -> RnsPoly {
        RnsPoly {
            residues: self.primes[..level]
                .iter()
                .map(|&q| (0..self.phi()).map(|_| rng.gen_range(0..q)).collect())
                .collect(),
        }
    }

    /// Random ternary polynomial (coefficients in {-1, 0, 1} with
    /// probabilities 1/4, 1/2, 1/4) as signed coefficients.
    pub fn sample_ternary(&self, rng: &mut impl Rng) -> Vec<i64> {
        (0..self.phi())
            .map(|_| match rng.gen_range(0..4u8) {
                0 => -1,
                1 | 2 => 0,
                _ => 1,
            })
            .collect()
    }

    /// Centered-binomial error polynomial with parameter `eta`
    /// (variance `eta/2`), as signed coefficients.
    pub fn sample_error(&self, eta: u32, rng: &mut impl Rng) -> Vec<i64> {
        (0..self.phi())
            .map(|_| {
                let mut acc = 0i64;
                for _ in 0..eta {
                    acc += i64::from(rng.gen::<bool>());
                    acc -= i64::from(rng.gen::<bool>());
                }
                acc
            })
            .collect()
    }

    fn check_same_level(&self, a: &RnsPoly, b: &RnsPoly) {
        assert_eq!(
            a.residues.len(),
            b.residues.len(),
            "RNS level mismatch: {} vs {}",
            a.residues.len(),
            b.residues.len()
        );
    }

    /// `a + b`.
    pub fn add(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.check_same_level(a, b);
        self.zip(a, b, add_mod)
    }

    /// `a - b`.
    pub fn sub(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.check_same_level(a, b);
        self.zip(a, b, sub_mod)
    }

    /// `-a`.
    pub fn neg(&self, a: &RnsPoly) -> RnsPoly {
        RnsPoly {
            residues: a
                .residues
                .iter()
                .zip(&self.primes)
                .map(|(row, &q)| row.iter().map(|&x| sub_mod(0, x, q)).collect())
                .collect(),
        }
    }

    /// Scales by a small unsigned constant (e.g. the plaintext modulus
    /// 2).
    pub fn mul_scalar(&self, a: &RnsPoly, k: u64) -> RnsPoly {
        RnsPoly {
            residues: a
                .residues
                .iter()
                .zip(&self.primes)
                .map(|(row, &q)| row.iter().map(|&x| mul_mod(x, k % q, q)).collect())
                .collect(),
        }
    }

    /// Full ring product `a * b mod (Φ_m, Q)`: per chain prime, an NTT
    /// linear convolution when a plan is cached (and the fast path is
    /// enabled), schoolbook otherwise; both then wrap mod `X^m - 1`
    /// and fold the top coefficient by `Φ_m`.
    pub fn mul(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.check_same_level(a, b);
        self.mul_prefix(a, b, a.residues.len())
    }

    /// [`RnsContext::mul`] restricted to the first `level` rows of each
    /// operand. Level reduction happens as a borrowed row-prefix view,
    /// so multiplying full-level key material at a ciphertext's lower
    /// level costs no intermediate clone.
    ///
    /// # Panics
    ///
    /// Panics if either operand has fewer than `level` rows.
    pub fn mul_prefix(&self, a: &RnsPoly, b: &RnsPoly, level: usize) -> RnsPoly {
        assert!(
            a.residues.len() >= level && b.residues.len() >= level,
            "operand below the requested level"
        );
        let residues = self.par_rows(level, |j| self.mul_row(&a.residues[j], &b.residues[j], j));
        RnsPoly { residues }
    }

    /// Ring product of two residue rows modulo prime `j`.
    ///
    /// NTT path: zero-pad both rows to the plan size, take the linear
    /// product via forward/pointwise/inverse transforms (coefficients
    /// come back fully reduced mod `q`), then wrap mod `X^m - 1` and
    /// fold. The product degree `2φ - 2 = 2m - 4` fits the
    /// `next_pow2(2m - 1)` transform, so no cyclic aliasing occurs
    /// inside the NTT itself. Schoolbook otherwise.
    pub(crate) fn mul_row(&self, a: &[u64], b: &[u64], j: usize) -> Vec<u64> {
        let q = self.primes[j];
        match &self.plans[j] {
            Some(plan) if self.use_ntt => self.wrap_fold(&plan.cyclic_mul(a, b), q),
            _ => self.mul_row_schoolbook(a, b, q),
        }
    }

    /// Reduces an `n`-coefficient linear-convolution row into the ring:
    /// wrap mod `X^m - 1`, then fold the top coefficient by `Φ_m`.
    fn wrap_fold(&self, full: &[u64], q: u64) -> Vec<u64> {
        let mut wrapped = vec![0u64; self.m];
        for (i, &c) in full.iter().enumerate() {
            if c != 0 {
                let k = i % self.m;
                wrapped[k] = add_mod(wrapped[k], c, q);
            }
        }
        self.fold_row(wrapped, q)
    }

    /// Schoolbook fallback (and test oracle for the NTT path): the
    /// `O(φ^2)` convolution accumulates directly mod `X^m - 1`,
    /// reducing every term with `mul_mod`/`add_mod` so coefficients
    /// stay canonical for arbitrary word-sized chains — no lazy `u128`
    /// accumulator, whose headroom would cap `φ · q^2` and thus tie the
    /// ring degree to the prime size.
    fn mul_row_schoolbook(&self, a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        let m = self.m;
        let mut wrapped = vec![0u64; m];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                if bj == 0 {
                    continue;
                }
                let k = (i + j) % m;
                wrapped[k] = add_mod(wrapped[k], mul_mod(ai, bj, q), q);
            }
        }
        self.fold_row(wrapped, q)
    }

    /// Whether the evaluation-domain APIs are usable at `level`: the
    /// fast path is enabled and every one of the first `level` chain
    /// primes holds a cached plan.
    pub fn eval_ready(&self, level: usize) -> bool {
        self.use_ntt && self.plans[..level].iter().all(|p| p.is_some())
    }

    /// Forward-transforms an element into the evaluation domain: one
    /// zero-padded NTT per active prime.
    ///
    /// # Panics
    ///
    /// Panics unless [`RnsContext::eval_ready`] holds at the element's
    /// level.
    pub fn to_eval(&self, a: &RnsPoly) -> EvalPoly {
        let rows = self.par_rows(a.residues.len(), |j| self.forward_row(&a.residues[j], j));
        EvalPoly { rows }
    }

    fn plan(&self, j: usize) -> &NttPlan {
        self.plans[j].as_ref().expect("prime lacks an NTT plan")
    }

    /// Zero-pads a canonical residue row modulo prime `j` and
    /// forward-transforms it: one evaluation row.
    pub(crate) fn forward_row(&self, row: &[u64], j: usize) -> Vec<u64> {
        let plan = self.plan(j);
        let mut padded = vec![0u64; plan.size()];
        padded[..row.len()].copy_from_slice(row);
        plan.forward(&mut padded);
        padded
    }

    /// Inverse-transforms one evaluation row modulo prime `j`, then
    /// wraps and folds it back into a coefficient row.
    pub(crate) fn inverse_row(&self, row: &[u64], j: usize) -> Vec<u64> {
        let mut full = row.to_vec();
        self.plan(j).inverse(&mut full);
        self.wrap_fold(&full, self.primes[j])
    }

    /// Inverse-transforms an evaluation-domain element back to
    /// coefficient form: one inverse NTT per row, then wrap mod
    /// `X^m - 1` and fold by `Φ_m`. Bitwise
    /// identical to performing the corresponding coefficient-domain
    /// products and sums directly (the transform is linear and exact
    /// over `Z_q`).
    pub fn from_eval(&self, e: &EvalPoly) -> RnsPoly {
        let residues = self.par_rows(e.rows.len(), |j| self.inverse_row(&e.rows[j], j));
        RnsPoly { residues }
    }

    /// The evaluation-domain zero at `level` rows (an accumulator).
    pub fn eval_zero(&self, level: usize) -> EvalPoly {
        EvalPoly {
            rows: vec![vec![0u64; Self::ntt_size(self.m)]; level],
        }
    }

    /// Pointwise multiply-accumulate: `acc += a ∘ b`, row by row. The
    /// operands may live at a *higher* level than the accumulator —
    /// only their first `acc.level()` rows are read, which is how
    /// full-level key parts serve reduced-level ciphertexts without
    /// being cloned.
    ///
    /// # Panics
    ///
    /// Panics if an operand has fewer rows than the accumulator.
    pub fn eval_mul_acc(&self, acc: &mut EvalPoly, a: &EvalPoly, b: &EvalPoly) {
        let level = acc.rows.len();
        assert!(
            a.rows.len() >= level && b.rows.len() >= level,
            "operand below the accumulator level"
        );
        let acc_row =
            |j: usize, out: &mut Vec<u64>| self.mul_acc_row(out, &a.rows[j], &b.rows[j], j);
        let threads = self.threads();
        if threads > 1 && level > 1 && !copse_pool::in_worker() {
            let _: Vec<()> =
                copse_pool::global().scope_chunks_mut(&mut acc.rows, threads, |range, rows| {
                    for (offset, out) in rows.iter_mut().enumerate() {
                        acc_row(range.start + offset, out);
                    }
                });
        } else {
            for (j, out) in acc.rows.iter_mut().enumerate() {
                acc_row(j, out);
            }
        }
    }

    /// One row of [`RnsContext::eval_mul_acc`]: `out += x ∘ y`
    /// pointwise modulo prime `j`.
    pub(crate) fn mul_acc_row(&self, out: &mut [u64], x: &[u64], y: &[u64], j: usize) {
        let q = self.primes[j];
        for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
            *o = add_mod(*o, mul_mod(x, y, q), q);
        }
    }

    /// Pointwise sum `acc += other`, row by row. Modular addition is
    /// exactly associative and commutative, so partial accumulators
    /// fold together bitwise identically in any order.
    ///
    /// # Panics
    ///
    /// Panics if `other` has fewer rows than `acc`.
    pub fn eval_add_assign(&self, acc: &mut EvalPoly, other: &EvalPoly) {
        assert!(
            other.rows.len() >= acc.rows.len(),
            "operand below the accumulator"
        );
        for (j, out) in acc.rows.iter_mut().enumerate() {
            self.add_row_assign(out, &other.rows[j], j);
        }
    }

    /// `out += x` modulo prime `j`, coefficient by coefficient.
    pub(crate) fn add_row_assign(&self, out: &mut [u64], x: &[u64], j: usize) {
        let q = self.primes[j];
        for (o, &x) in out.iter_mut().zip(x) {
            *o = add_mod(*o, x, q);
        }
    }

    /// Pointwise product of the first `level` rows of two
    /// evaluation-domain elements.
    ///
    /// # Panics
    ///
    /// Panics if either operand has fewer than `level` rows.
    pub fn eval_mul(&self, a: &EvalPoly, b: &EvalPoly, level: usize) -> EvalPoly {
        assert!(
            a.rows.len() >= level && b.rows.len() >= level,
            "operand below the requested level"
        );
        EvalPoly {
            rows: self.par_rows(level, |j| {
                let q = self.primes[j];
                a.rows[j]
                    .iter()
                    .zip(&b.rows[j])
                    .map(|(&x, &y)| mul_mod(x, y, q))
                    .collect()
            }),
        }
    }

    /// Scales each prime's residue row by its own scalar (used for the
    /// RNS key-switching gadget factors `P · q*_j`).
    ///
    /// # Panics
    ///
    /// Panics if fewer scalars than active primes are supplied.
    pub fn mul_scalar_rns(&self, a: &RnsPoly, scalars: &[u64]) -> RnsPoly {
        assert!(scalars.len() >= a.residues.len(), "scalar per active prime");
        RnsPoly {
            residues: a
                .residues
                .iter()
                .enumerate()
                .map(|(j, row)| {
                    let q = self.primes[j];
                    let k = scalars[j] % q;
                    row.iter().map(|&x| mul_mod(x, k, q)).collect()
                })
                .collect(),
        }
    }

    /// Restricts an element to its first `level` primes (dropping
    /// residue rows without rescaling; used to reduce key material to
    /// a ciphertext's level).
    pub fn reduce_level(&self, a: &RnsPoly, level: usize) -> RnsPoly {
        assert!(level >= 1 && level <= a.residues.len(), "bad level");
        RnsPoly {
            residues: a.residues[..level].to_vec(),
        }
    }

    /// Applies the Galois map `X -> X^a`.
    ///
    /// # Panics
    ///
    /// Panics unless `gcd(a, m) = 1`: a non-unit exponent (such as `0` or a multiple
    /// of `m`) is not a Galois automorphism — it merges distinct
    /// monomials into shared slots and would silently return a
    /// corrupted ring element.
    pub fn automorphism(&self, p: &RnsPoly, a: u64) -> RnsPoly {
        let m = self.m as u64;
        assert!(
            gcd(a % m, m) == 1,
            "automorphism exponent {a} is not coprime to m = {m}"
        );
        let residues = p
            .residues
            .iter()
            .zip(&self.primes)
            .map(|(row, &q)| {
                let mut wrapped = vec![0u64; self.m];
                for (i, &c) in row.iter().enumerate() {
                    if c != 0 {
                        let k = ((i as u64 * a) % m) as usize;
                        wrapped[k] = add_mod(wrapped[k], c, q);
                    }
                }
                self.fold_row(wrapped, q)
            })
            .collect();
        RnsPoly { residues }
    }

    /// Reduces an `m`-coefficient (mod `X^m - 1`) row modulo `Φ_m`:
    /// `X^(m-1) = -(1 + X + ... + X^(m-2))`.
    fn fold_row(&self, mut wrapped: Vec<u64>, q: u64) -> Vec<u64> {
        let top = wrapped[self.m - 1];
        wrapped.truncate(self.phi());
        if top != 0 {
            for c in wrapped.iter_mut() {
                *c = sub_mod(*c, top, q);
            }
        }
        wrapped
    }

    /// Modulus switching: scales from the element's current chain
    /// prefix down by its last prime while preserving the value modulo
    /// `plain_modulus` (BGV scale-down). Noise shrinks by roughly the
    /// dropped prime.
    ///
    /// # Panics
    ///
    /// Panics if the element has only one active prime.
    pub fn mod_switch_down(&self, a: &RnsPoly, plain_modulus: u64) -> RnsPoly {
        let level = a.residues.len();
        assert!(level >= 2, "cannot switch below one prime");
        let (keep, last) = a.residues.split_at(level - 1);
        self.scale_down(keep, &last[0], self.primes[level - 1], plain_modulus)
    }

    /// The last step of a hybrid key switch: divides an element over
    /// `Q_l · P` — `l + 1` rows, the chain prefix then the special
    /// prime's row, as [`RnsContext::key_switch_rows`] orders them —
    /// by `P`, with the same value-mod-`plain_modulus`-preserving
    /// correction as [`RnsContext::mod_switch_down`]. Returns the
    /// `l`-row element.
    ///
    /// # Panics
    ///
    /// Panics without a special prime or with fewer than two rows.
    pub fn mod_down_special(&self, rows: &[Vec<u64>], plain_modulus: u64) -> RnsPoly {
        let special = self.special_prime().expect("no special prime");
        assert!(rows.len() >= 2, "nothing left after dividing out P");
        let (keep, last) = rows.split_at(rows.len() - 1);
        self.scale_down(keep, &last[0], special, plain_modulus)
    }

    /// Computes `(x - delta) / q_last` on the chain rows `keep`, where
    /// `last` is `x`'s residue row modulo `q_last` (not itself a row
    /// of `keep`). The per-coefficient correction satisfies
    /// `delta ≡ x (mod q_last)`, `delta ≡ 0 (mod plain_modulus)` and
    /// `|delta| <= q_last`, so the division is exact and preserves the
    /// value modulo the plaintext modulus.
    fn scale_down(
        &self,
        keep: &[Vec<u64>],
        last: &[u64],
        q_last: u64,
        plain_modulus: u64,
    ) -> RnsPoly {
        let step = q_last as i64;
        let t = plain_modulus as i64;
        let deltas: Vec<i64> = last
            .iter()
            .map(|&c| {
                let mut d = crate::math::modq::center(c, q_last);
                // q_last is odd so adding/subtracting it fixes the
                // residue class mod 2 (and generally shifts mod t); for
                // t > 2 one step may not cancel the residue, so loop
                // until it does (t is tiny).
                let mut guard = 0;
                while d.rem_euclid(t) != 0 {
                    d += if d > 0 { -step } else { step };
                    guard += 1;
                    assert!(guard <= plain_modulus, "correction loop diverged");
                }
                d
            })
            .collect();
        let residues = keep
            .iter()
            .enumerate()
            .map(|(j, row)| {
                let q = self.primes[j];
                let inv = inv_mod(q_last % q, q).expect("chain primes are coprime");
                row.iter()
                    .zip(&deltas)
                    .map(|(&c, &d)| {
                        let d_mod = d.rem_euclid(q as i64) as u64;
                        mul_mod(sub_mod(c, d_mod, q), inv, q)
                    })
                    .collect()
            })
            .collect();
        RnsPoly { residues }
    }

    /// Centered coefficients of a **single-prime** element.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one prime is active.
    pub fn to_centered(&self, a: &RnsPoly) -> Vec<i64> {
        assert_eq!(a.residues.len(), 1, "center only at the last level");
        let q = self.primes[0];
        a.residues[0]
            .iter()
            .map(|&c| crate::math::modq::center(c, q))
            .collect()
    }

    fn zip(&self, a: &RnsPoly, b: &RnsPoly, f: impl Fn(u64, u64, u64) -> u64) -> RnsPoly {
        RnsPoly {
            residues: a
                .residues
                .iter()
                .zip(&b.residues)
                .zip(&self.primes)
                .map(|((ar, br), &q)| ar.iter().zip(br).map(|(&x, &y)| f(x, y, q)).collect())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::modq::chain_primes;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ctx() -> RnsContext {
        RnsContext::new(31, chain_primes(20, 4))
    }

    #[test]
    fn add_sub_roundtrip() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(1);
        let a = ctx.sample_uniform(4, &mut rng);
        let b = ctx.sample_uniform(4, &mut rng);
        assert_eq!(ctx.sub(&ctx.add(&a, &b), &b), a);
        assert_eq!(ctx.add(&a, &ctx.neg(&a)), ctx.zero(4));
    }

    #[test]
    fn mul_is_commutative_and_distributive() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(2);
        let a = ctx.sample_uniform(3, &mut rng);
        let b = ctx.sample_uniform(3, &mut rng);
        let c = ctx.sample_uniform(3, &mut rng);
        assert_eq!(ctx.mul(&a, &b), ctx.mul(&b, &a));
        assert_eq!(
            ctx.mul(&a, &ctx.add(&b, &c)),
            ctx.add(&ctx.mul(&a, &b), &ctx.mul(&a, &c))
        );
    }

    #[test]
    fn one_is_identity() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(3);
        let one = ctx.from_signed(&[1], 4);
        let a = ctx.sample_uniform(4, &mut rng);
        assert_eq!(ctx.mul(&a, &one), a);
    }

    #[test]
    fn phi_m_is_zero_in_the_ring() {
        // 1 + X + ... + X^(m-1) reduces to zero.
        let ctx = ctx();
        let all_ones = vec![1i64; 30]; // degree < phi part
        let p = ctx.from_signed(&all_ones, 2);
        // X^(m-1) folds to -(1+..+X^(m-2)), so p == -X^(m-1); check
        // p + X^(m-1)-image == 0 by multiplying x * X^(m-2)... simpler:
        // multiply X * X^(m-2) = X^(m-1) and compare to -p.
        let x = ctx.from_signed(&[0, 1], 2);
        let mut xm2 = vec![0i64; 30];
        xm2[29] = 1; // X^(phi-1) = X^(m-2)
        let xm2 = ctx.from_signed(&xm2, 2);
        let xm1 = ctx.mul(&x, &xm2);
        assert_eq!(xm1, ctx.neg(&p));
    }

    #[test]
    fn automorphism_is_multiplicative() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(4);
        let a = ctx.sample_uniform(2, &mut rng);
        let b = ctx.sample_uniform(2, &mut rng);
        for g in [3u64, 7, 12] {
            let lhs = ctx.automorphism(&ctx.mul(&a, &b), g);
            let rhs = ctx.mul(&ctx.automorphism(&a, g), &ctx.automorphism(&b, g));
            assert_eq!(lhs, rhs, "sigma_{g}");
        }
    }

    #[test]
    fn automorphisms_compose() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(5);
        let a = ctx.sample_uniform(2, &mut rng);
        let s3 = ctx.automorphism(&ctx.automorphism(&a, 3), 7);
        let s21 = ctx.automorphism(&a, 21);
        assert_eq!(s3, s21);
    }

    #[test]
    fn from_signed_handles_negatives() {
        let ctx = ctx();
        let p = ctx.from_signed(&[-1, 2, -3], 2);
        for (j, &q) in ctx.primes()[..2].iter().enumerate() {
            assert_eq!(p.residues[j][0], q - 1);
            assert_eq!(p.residues[j][1], 2);
            assert_eq!(p.residues[j][2], q - 3);
        }
    }

    #[test]
    fn mod_switch_preserves_parity_of_small_values() {
        // A "noiseless" element holding small even+message values must
        // keep its value mod 2 across a switch.
        let ctx = ctx();
        for value in [0i64, 1, 2, 3, 7, -5, -4] {
            let mut coeffs = vec![0i64; 30];
            coeffs[0] = value;
            coeffs[7] = -value;
            let p = ctx.from_signed(&coeffs, 3);
            let switched = ctx.mod_switch_down(&p, 2);
            let switched = ctx.mod_switch_down(&switched, 2);
            let centered = ctx.to_centered(&switched);
            assert_eq!(
                centered[0].rem_euclid(2),
                value.rem_euclid(2),
                "value {value}"
            );
            assert_eq!(centered[7].rem_euclid(2), (-value).rem_euclid(2));
            // The magnitude also shrinks to ~|value|/q + 1.
            assert!(centered[0].abs() <= 2, "scaled magnitude {}", centered[0]);
        }
    }

    #[test]
    fn error_samples_are_small() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(7);
        let e = ctx.sample_error(2, &mut rng);
        assert!(e.iter().all(|&x| x.abs() <= 2));
        let t = ctx.sample_ternary(&mut rng);
        assert!(t.iter().all(|&x| x.abs() <= 1));
    }

    #[test]
    fn ntt_mul_is_bitwise_identical_to_schoolbook() {
        for m in [5usize, 17, 31] {
            let (ntt, school) = RnsContext::ntt_schoolbook_pair(m, 25, 3);
            let mut rng = SmallRng::seed_from_u64(m as u64);
            for level in 1..=3 {
                let a = ntt.sample_uniform(level, &mut rng);
                let b = ntt.sample_uniform(level, &mut rng);
                assert_eq!(ntt.mul(&a, &b), school.mul(&a, &b), "m = {m}");
            }
        }
    }

    #[test]
    fn ntt_path_satisfies_ring_laws() {
        let (ntt, _) = RnsContext::ntt_schoolbook_pair(31, 25, 4);
        let mut rng = SmallRng::seed_from_u64(8);
        let a = ntt.sample_uniform(4, &mut rng);
        let b = ntt.sample_uniform(4, &mut rng);
        let one = ntt.from_signed(&[1], 4);
        assert_eq!(ntt.mul(&a, &one), a);
        assert_eq!(ntt.mul(&a, &b), ntt.mul(&b, &a));
    }

    #[test]
    fn unfriendly_chain_falls_back_to_schoolbook() {
        // Generic descending primes almost never have 64-fold
        // 2-adicity; the context must still multiply correctly.
        let ctx = ctx();
        assert_eq!(ctx.ntt_ready_primes(), 0);
        assert!(ctx.ntt_enabled(), "enabled, but no plan to use");
        let mut rng = SmallRng::seed_from_u64(9);
        let a = ctx.sample_uniform(2, &mut rng);
        let one = ctx.from_signed(&[1], 2);
        assert_eq!(ctx.mul(&a, &one), a);
    }

    #[test]
    fn eval_roundtrip_is_identity() {
        let (ntt, _) = RnsContext::ntt_schoolbook_pair(31, 25, 4);
        let mut rng = SmallRng::seed_from_u64(20);
        for level in 1..=4 {
            let a = ntt.sample_uniform(level, &mut rng);
            assert!(ntt.eval_ready(level));
            assert_eq!(ntt.from_eval(&ntt.to_eval(&a)), a, "level {level}");
        }
    }

    #[test]
    fn eval_mul_matches_coefficient_mul_bitwise() {
        let (ntt, school) = RnsContext::ntt_schoolbook_pair(17, 25, 3);
        let mut rng = SmallRng::seed_from_u64(21);
        for level in 1..=3 {
            let a = ntt.sample_uniform(level, &mut rng);
            let b = ntt.sample_uniform(level, &mut rng);
            let via_eval = ntt.from_eval(&ntt.eval_mul(&ntt.to_eval(&a), &ntt.to_eval(&b), level));
            assert_eq!(via_eval, ntt.mul(&a, &b), "vs fast path, level {level}");
            assert_eq!(via_eval, school.mul(&a, &b), "vs oracle, level {level}");
        }
    }

    #[test]
    fn eval_mul_acc_is_sum_of_products() {
        // Σ_i a_i * b_i accumulated pointwise in the evaluation domain
        // equals the coefficient-domain sum bitwise — the key-switch
        // digit-loop identity.
        let (ntt, _) = RnsContext::ntt_schoolbook_pair(31, 25, 3);
        let mut rng = SmallRng::seed_from_u64(22);
        let level = 3;
        let pairs: Vec<(RnsPoly, RnsPoly)> = (0..5)
            .map(|_| {
                (
                    ntt.sample_uniform(level, &mut rng),
                    ntt.sample_uniform(level, &mut rng),
                )
            })
            .collect();
        let mut acc = ntt.eval_zero(level);
        for (a, b) in &pairs {
            ntt.eval_mul_acc(&mut acc, &ntt.to_eval(a), &ntt.to_eval(b));
        }
        let mut want = ntt.zero(level);
        for (a, b) in &pairs {
            want = ntt.add(&want, &ntt.mul(a, b));
        }
        assert_eq!(ntt.from_eval(&acc), want);
    }

    #[test]
    fn eval_prefix_view_reduces_level_without_clone() {
        // Full-level operands serve a lower-level accumulator: the
        // result matches multiplying explicitly reduced operands.
        let (ntt, _) = RnsContext::ntt_schoolbook_pair(31, 25, 4);
        let mut rng = SmallRng::seed_from_u64(23);
        let a = ntt.sample_uniform(4, &mut rng);
        let b = ntt.sample_uniform(4, &mut rng);
        let (ea, eb) = (ntt.to_eval(&a), ntt.to_eval(&b));
        for level in 1..=3 {
            let got = ntt.from_eval(&ntt.eval_mul(&ea, &eb, level));
            let want = ntt.mul(&ntt.reduce_level(&a, level), &ntt.reduce_level(&b, level));
            assert_eq!(got, want, "level {level}");
            assert_eq!(
                ntt.mul_prefix(&a, &b, level),
                want,
                "mul_prefix at level {level}"
            );
        }
    }

    /// A context with a special prime below every chain prime, as
    /// keygen builds it: the last of `chain + 1` NTT-friendly primes.
    fn special_ctx(m: usize, chain: usize) -> RnsContext {
        let mut primes = ntt_chain_primes(25, chain + 1, RnsContext::ntt_size(m).trailing_zeros());
        let special = primes.pop().unwrap();
        RnsContext::with_special_prime(m, primes, special)
    }

    #[test]
    fn special_prime_sits_after_the_chain() {
        let ctx = special_ctx(17, 3);
        let p = ctx.special_prime().unwrap();
        assert_eq!(ctx.primes().len(), 3, "P is not a chain prime");
        assert!(ctx.primes().iter().all(|&q| q > p), "P is the smallest");
        assert_eq!(ctx.key_level(), 4);
        assert_eq!(ctx.ntt_ready_primes(), 3);
        assert!(ctx.eval_ready(ctx.key_level()), "P has a plan too");
        assert_eq!(ctx.key_switch_rows(2), vec![0, 1, 3]);
        assert_eq!(ctx.from_signed(&[-1], 4).residues[3][0], p - 1);
        assert_eq!(
            RnsContext::new(17, ctx.primes().to_vec()).special_prime(),
            None
        );
    }

    #[test]
    fn wide_digits_exceeding_a_smaller_prime_are_reduced() {
        // A centered digit of the largest chain prime can exceed P/2
        // because P is the smallest prime; lifted to P's row it must
        // come out reduced mod P, or the transform (which needs
        // canonical input) silently corrupts the key switch.
        let ctx = special_ctx(17, 3);
        let (q0, p) = (ctx.primes()[0], ctx.special_prime().unwrap());
        let top = (q0 / 2) as i64;
        let digit = vec![
            top,
            -top,
            top - 1,
            (p / 2) as i64 + 1,
            -((p / 2) as i64) - 1,
            5,
        ];
        assert!(digit.iter().any(|&d| d.unsigned_abs() > p / 2));
        for j in 0..ctx.key_level() {
            let q = ctx.primes[j];
            let row = ctx.signed_row(&digit, j);
            for (&r, &d) in row.iter().zip(&digit) {
                assert!(r < q, "canonical mod prime {j}");
                assert_eq!(i128::from(r), i128::from(d).rem_euclid(i128::from(q)));
            }
            assert_eq!(
                ctx.inverse_row(&ctx.forward_row(&row, j), j),
                row,
                "prime {j}"
            );
        }
        // The eval-domain product of a lifted digit matches schoolbook.
        let mut school = ctx.clone();
        school.set_ntt_enabled(false);
        let other = ctx.signed_row(&[3, -7, 11], 3);
        let lifted = ctx.signed_row(&digit, 3);
        assert_eq!(
            ctx.mul_row(&lifted, &other, 3),
            school.mul_row(&lifted, &other, 3)
        );
    }

    #[test]
    fn centered_row_is_the_signed_residue() {
        let ctx = special_ctx(17, 2);
        let q = ctx.primes()[1];
        let a = ctx.from_signed(&[-3, 4, (q / 2) as i64, -((q / 2) as i64)], 2);
        assert_eq!(
            ctx.centered_row(&a, 1)[..4],
            [-3, 4, (q / 2) as i64, -((q / 2) as i64)]
        );
    }

    #[test]
    fn mod_down_special_divides_out_p_exactly() {
        // x = P*y + e with e even and small: dividing by P with the even
        // correction returns y exactly, at every level.
        let ctx = special_ctx(17, 3);
        let p = ctx.special_prime().unwrap() as i64;
        let y = vec![5i64, -2, 0, 9, -11];
        let e = vec![2i64, -4, 6, 0, -8];
        let x: Vec<i64> = y.iter().zip(&e).map(|(&y, &e)| p * y + e).collect();
        for level in 1..=3 {
            let rows: Vec<Vec<u64>> = ctx
                .key_switch_rows(level)
                .into_iter()
                .map(|j| ctx.signed_row(&x, j))
                .collect();
            assert_eq!(ctx.mod_down_special(&rows, 2), ctx.from_signed(&y, level));
        }
    }

    #[test]
    fn eval_ready_respects_toggle_and_plan_gaps() {
        let (mut ntt, _) = RnsContext::ntt_schoolbook_pair(17, 25, 2);
        assert!(ntt.eval_ready(2));
        ntt.set_ntt_enabled(false);
        assert!(!ntt.eval_ready(1));
        let unfriendly = ctx();
        assert!(!unfriendly.eval_ready(1), "no plans on a generic chain");
    }

    #[test]
    #[should_panic(expected = "not coprime to m")]
    fn automorphism_rejects_zero_exponent() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(10);
        let a = ctx.sample_uniform(1, &mut rng);
        let _ = ctx.automorphism(&a, 0);
    }

    #[test]
    #[should_panic(expected = "not coprime to m")]
    fn automorphism_rejects_exponent_equal_to_m() {
        let ctx = ctx();
        let mut rng = SmallRng::seed_from_u64(11);
        let a = ctx.sample_uniform(1, &mut rng);
        let _ = ctx.automorphism(&a, 31);
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn level_mismatch_panics() {
        let ctx = ctx();
        let a = ctx.zero(2);
        let b = ctx.zero(3);
        let _ = ctx.add(&a, &b);
    }

    #[test]
    #[should_panic(expected = "odd prime")]
    fn prime_constructor_rejects_power_of_two_index() {
        let _ = RnsContext::new(32, chain_primes(20, 1));
    }
}
