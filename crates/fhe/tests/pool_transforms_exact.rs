//! Exactness of transform counting under worker-pool concurrency: a
//! parallel kernel performs the *same number* of forward/inverse NTTs
//! as its sequential twin, and every one of them — including those run
//! on pool workers — lands in the scoped [`OpMeter`] installed around
//! the call (no lost updates, no approximation).

use copse_fhe::bgv::scheme::{BgvParams, BgvScheme, Ciphertext};
use copse_fhe::{BitVec, OpMeter, TransformCounts};
use std::sync::Arc;

/// Runs `f` under a fresh scoped meter; returns its result and the
/// transforms it ran, on this thread and on pool tasks forked from it.
fn metered<R>(f: impl FnOnce() -> R) -> (R, TransformCounts) {
    let meter = Arc::new(OpMeter::new());
    let out = {
        let _scope = meter.install_scope();
        f()
    };
    (out, meter.transforms())
}

fn pair() -> (BgvScheme, BgvScheme, Ciphertext, Ciphertext) {
    let seq = BgvScheme::keygen(BgvParams::tiny());
    let par = BgvScheme::keygen(BgvParams::tiny());
    par.set_threads(4);
    let bits = BitVec::from_bools(&[true, false, true, true, false, true]);
    let ct = seq.encrypt_poly(&seq.slots().encode(&bits));
    let other = seq.encrypt_poly(&seq.slots().encode(&bits));
    (seq, par, ct, other)
}

#[test]
fn parallel_and_sequential_kernels_count_identically_and_exactly() {
    let (seq, par, ct, other) = pair();

    let (r_seq, rotate_counts) = metered(|| seq.rotate_slots(&ct, 2));
    let (ks_seq, ks_counts) = metered(|| seq.key_switch_relin(&ct));
    let (m_seq, mul_counts) = metered(|| seq.mul(&ct, &other));
    assert!(rotate_counts.total() > 0, "rotate performs transforms");
    assert!(ks_counts.total() > 0, "key switch performs transforms");

    // The pooled kernels count exactly the same: same work, split
    // across workers, merged without loss.
    let (r_par, counts) = metered(|| par.rotate_slots(&ct, 2));
    assert_eq!(counts, rotate_counts, "parallel rotate transform count");
    let (ks_par, counts) = metered(|| par.key_switch_relin(&ct));
    assert_eq!(counts, ks_counts, "parallel key switch transform count");
    let (m_par, counts) = metered(|| par.mul(&ct, &other));
    assert_eq!(counts, mul_counts, "parallel mul transform count");

    // And, of course, identical ciphertexts.
    assert_eq!(r_seq, r_par);
    assert_eq!(ks_seq, ks_par);
    assert_eq!(m_seq, m_par);
}

#[test]
fn repeated_parallel_rotates_scale_the_count_exactly() {
    let (_, par, ct, _) = pair();
    // Repeating the parallel rotate N times scales the count exactly
    // N-fold — concurrent workers never drop an increment.
    let n = 5u64;
    let (_, delta) = metered(|| {
        for _ in 0..n {
            let _ = par.rotate_slots(&ct, 1);
        }
    });
    let (_, one) = metered(|| par.rotate_slots(&ct, 1));
    assert_eq!(delta.forward, n * one.forward, "forward counts exact");
    assert_eq!(delta.inverse, n * one.inverse, "inverse counts exact");
}
