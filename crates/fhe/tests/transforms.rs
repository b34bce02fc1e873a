//! Transform-count accounting for the evaluation-domain paths.
//!
//! Counts come from a scoped [`OpMeter`] installed around each measured
//! call: it sees the transforms of that call (and of pool tasks forked
//! from it) and nothing that sibling tests run concurrently, so exact
//! equality is a sound assertion.

use copse_fhe::bgv::scheme::{BgvParams, BgvScheme};
use copse_fhe::{BitVec, OpMeter, TransformCounts};
use std::sync::Arc;

/// Runs `f` under a fresh scoped meter; returns its result and the
/// transforms it ran.
fn metered<R>(f: impl FnOnce() -> R) -> (R, TransformCounts) {
    let meter = Arc::new(OpMeter::new());
    let out = {
        let _scope = meter.install_scope();
        f()
    };
    (out, meter.transforms())
}

#[test]
fn eval_domain_key_switching_cuts_transforms() {
    let params = BgvParams::tiny();
    let eval = BgvScheme::keygen(params);
    let mut coeff = BgvScheme::keygen(params);
    coeff.set_eval_domain_enabled(false);

    let bits = BitVec::from_bools(&[true, false, true, true, false, false]);
    let mut ct_eval = eval.encrypt_poly(&eval.slots().encode(&bits));
    let mut ct_coeff = coeff.encrypt_poly(&coeff.slots().encode(&bits));

    // At level L a key switch lifts L digits to the L chain primes plus
    // the special prime. The eval route forward-transforms each digit
    // once per target row and inverse-transforms the L + 1 rows of
    // both outputs; the coefficient route pays 2 ring products per
    // digit and target row, each 2 forwards + 1 inverse. A rotate is an
    // automorphism (no transforms) plus one key switch.
    for level in (1..=params.chain_len as u64).rev() {
        assert_eq!(eval.level(&ct_eval) as u64, level);
        let (r_eval, eval_rotate) = metered(|| eval.rotate_slots(&ct_eval, 1));
        let (r_coeff, coeff_rotate) = metered(|| coeff.rotate_slots(&ct_coeff, 1));
        assert_eq!(r_eval, r_coeff, "paths agree bitwise, level {level}");

        let (_, eval_ks) = metered(|| eval.key_switch_relin(&ct_eval));
        assert_eq!(
            eval_ks, eval_rotate,
            "rotate is one key switch, level {level}"
        );
        assert_eq!(eval_ks.forward, level * (level + 1), "level {level}");
        assert_eq!(eval_ks.inverse, 2 * (level + 1), "level {level}");
        assert_eq!(
            coeff_rotate.forward,
            4 * level * (level + 1),
            "level {level}"
        );
        assert_eq!(
            coeff_rotate.inverse,
            2 * level * (level + 1),
            "level {level}"
        );
        // 6L(L+1) against (L+2)(L+1): at least 3x from two digits up.
        assert!(
            level < 2 || coeff_rotate.total() >= 3 * eval_rotate.total(),
            "rotate transforms should drop >= 3x: coeff {coeff_rotate} vs eval {eval_rotate}"
        );

        if level > 1 {
            ct_eval = eval.mod_switch(&ct_eval);
            ct_coeff = coeff.mod_switch(&ct_coeff);
        }
    }
}

#[test]
fn cached_plaintext_transform_amortises_across_calls() {
    let params = BgvParams::tiny();
    let eval = BgvScheme::keygen(params);
    let mut coeff = BgvScheme::keygen(params);
    coeff.set_eval_domain_enabled(false);
    let level = params.chain_len as u64;

    let bits = BitVec::from_bools(&[true, false, true, true, false, false]);
    let ct_eval = eval.encrypt_poly(&eval.slots().encode(&bits));
    let ct_coeff = coeff.encrypt_poly(&coeff.slots().encode(&bits));
    let mask = eval
        .slots()
        .encode(&BitVec::from_bools(&[true, true, false, false, true, true]));
    let prepared = eval.prepare_plain(&mask);

    let (_, first) = metered(|| eval.mul_plain_prepared(&ct_eval, &prepared));
    let (_, warm) = metered(|| eval.mul_plain_prepared(&ct_eval, &prepared));

    // First call pays the plaintext transform (chain_len rows); warm
    // calls transform only the two ciphertext halves.
    assert_eq!(first.forward, warm.forward + level);
    assert_eq!(warm.forward, 2 * level);
    assert_eq!(warm.inverse, 2 * level);

    let (_, coeff_mul) = metered(|| coeff.mul_plain(&ct_coeff, &mask, 4));
    assert_eq!(coeff_mul.forward, 4 * level, "2 products x 2 operands");
    assert!(
        coeff_mul.total() > warm.total(),
        "warm cached multiply beats the per-call route: {coeff_mul} vs {warm}"
    );
}
