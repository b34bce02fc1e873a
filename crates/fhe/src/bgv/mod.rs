//! A from-scratch leveled BGV cryptosystem with GF(2) SIMD slots.
//!
//! This is the real-lattice counterpart of the clear evaluator: the
//! substrate role HElib plays in the paper, rebuilt in three layers —
//!
//! * [`ring`] — RNS polynomial arithmetic in the prime cyclotomic ring
//!   `Z_Q[X]/Φ_m(X)` (odd prime `m`), including BGV modulus switching
//!   and the special prime of hybrid key switching;
//! * [`scheme`] — RLWE keys, encryption, homomorphic add/multiply with
//!   relinearisation, Galois-automorphism slot rotation, and an
//!   automatic modulus-switching noise policy;
//! * [`backend`] — the [`FheBackend`](crate::FheBackend)
//!   implementation with logical-width slot packing (masked rotations,
//!   cyclic extension), differentially tested against
//!   [`ClearBackend`](crate::ClearBackend).
//!
//! Parameters are demonstration-sized (`m = 31` or `m = 127`); the
//! algebra is faithful, the security level is not (see DESIGN.md).

pub mod backend;
pub mod ring;
pub mod scheme;

pub use backend::{BgvBackend, BgvCiphertext, BgvPlaintext};
pub use scheme::{BgvParams, BgvScheme};
