//! A timing [`FheBackend`]: forwards every trait method — the default
//! ones included, so an inner backend's overrides stay in use — to an
//! inner backend, and records one span per computing call when its
//! [`Recorder`] is switched on.
//!
//! Calls never nest: the wrapper hands each call to the inner backend
//! whole, and the inner backend's own default methods call the inner
//! backend, not the wrapper. So the spans of one recorder never double
//! count, and their sum is the backend's busy time.

use copse_fhe::{BitVec, CiphertextCodecError, FheBackend, OpMeter};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock
/// every span and every client-side measurement of the benchmark uses.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The kernel families the per-layer table reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `rotate`, `rotate_blocks`.
    Rotate,
    /// `cyclic_extend`, `truncate`, the `*_blocks` layout calls,
    /// `pack_blocks`, `unpack_block`, `tile_ciphertext`, `encode_tiled`.
    Layout,
    /// Ciphertext × ciphertext AND (tensor plus relinearisation).
    Mul,
    /// Ciphertext × plaintext AND.
    MulPlain,
    /// `add`, `add_plain`, `not` (the XOR kernels).
    Add,
    /// `encrypt`, `encrypt_bits`, `encrypt_zeros`, `encrypt_zeros_seeded`.
    Encrypt,
    /// `decrypt`.
    Decrypt,
    /// `encode`, `decode`, `prepare_plaintext`.
    Encode,
    /// `serialize_ciphertext`, `deserialize_ciphertext`.
    Codec,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 9] = [
        Kind::Rotate,
        Kind::Layout,
        Kind::Mul,
        Kind::MulPlain,
        Kind::Add,
        Kind::Encrypt,
        Kind::Decrypt,
        Kind::Encode,
        Kind::Codec,
    ];

    /// Metric-name stem (`fhe.<name>.calls`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Rotate => "rotate",
            Kind::Layout => "layout",
            Kind::Mul => "mul",
            Kind::MulPlain => "mul_plain",
            Kind::Add => "add",
            Kind::Encrypt => "encrypt",
            Kind::Decrypt => "decrypt",
            Kind::Encode => "encode",
            Kind::Codec => "codec",
        }
    }
}

/// Per-kind call counts and busy nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Calls per kind, indexed like [`Kind::ALL`].
    pub calls: [u64; 9],
    /// Busy nanoseconds per kind, indexed like [`Kind::ALL`].
    pub busy_ns: [u64; 9],
}

impl Totals {
    /// Component-wise `self - earlier`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = Totals::default();
        for i in 0..Kind::ALL.len() {
            out.calls[i] = self.calls[i] - earlier.calls[i];
            out.busy_ns[i] = self.busy_ns[i] - earlier.busy_ns[i];
        }
        out
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &Totals) -> Totals {
        let mut out = *self;
        for i in 0..Kind::ALL.len() {
            out.calls[i] += other.calls[i];
            out.busy_ns[i] += other.busy_ns[i];
        }
        out
    }

    /// Calls of one kind.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.calls[kind as usize]
    }

    /// Busy nanoseconds of one kind.
    pub fn busy_ns(&self, kind: Kind) -> u64 {
        self.busy_ns[kind as usize]
    }
}

/// Wall time during which at least one call was running: the measure
/// of the union of the calls' intervals, kept in O(1) memory by
/// counting the calls in flight.
#[derive(Debug, Default)]
struct Coverage {
    active: u32,
    since: u64,
    covered: u64,
}

impl Coverage {
    fn enter(&mut self, now: u64) {
        if self.active == 0 {
            self.since = now;
        }
        self.active += 1;
    }

    fn leave(&mut self, now: u64) {
        self.active -= 1;
        if self.active == 0 {
            self.covered += now - self.since;
        }
    }

    fn take(&mut self, now: u64) -> u64 {
        if self.active > 0 {
            self.covered += now - self.since;
            self.since = now;
        }
        std::mem::take(&mut self.covered)
    }
}

/// Where a [`Timed`] backend puts its spans: per-kind call counts and
/// busy time, plus the wall time covered by the calls other than the
/// codec's. Off by default: a switched-off recorder costs one relaxed
/// load per call.
#[derive(Debug, Default)]
pub struct Recorder {
    on: AtomicBool,
    calls: [AtomicU64; 9],
    busy_ns: [AtomicU64; 9],
    coverage: Mutex<Coverage>,
}

impl Recorder {
    /// A switched-off recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Switches recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Current per-kind totals.
    pub fn totals(&self) -> Totals {
        let mut out = Totals::default();
        for i in 0..Kind::ALL.len() {
            out.calls[i] = self.calls[i].load(Ordering::SeqCst);
            out.busy_ns[i] = self.busy_ns[i].load(Ordering::SeqCst);
        }
        out
    }

    /// The wall time during which at least one non-codec call was
    /// running, since the previous take.
    pub fn take_covered_ns(&self) -> u64 {
        self.coverage().take(now_ns())
    }

    fn coverage(&self) -> std::sync::MutexGuard<'_, Coverage> {
        self.coverage.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record(&self, kind: Kind, start: u64, end: u64) {
        self.calls[kind as usize].fetch_add(1, Ordering::SeqCst);
        self.busy_ns[kind as usize].fetch_add(end - start, Ordering::SeqCst);
    }
}

/// The timing wrapper.
#[derive(Debug)]
pub struct Timed<B> {
    inner: Arc<B>,
    recorder: Arc<Recorder>,
}

impl<B> Timed<B> {
    /// Wraps `inner`; spans go to `recorder`.
    pub fn new(inner: Arc<B>, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }

    fn time<R>(&self, kind: Kind, call: impl FnOnce(&B) -> R) -> R {
        if !self.recorder.on.load(Ordering::Relaxed) {
            return call(&self.inner);
        }
        let covered = kind != Kind::Codec;
        let start = now_ns();
        if covered {
            self.recorder.coverage().enter(now_ns());
        }
        let out = call(&self.inner);
        if covered {
            self.recorder.coverage().leave(now_ns());
        }
        self.recorder.record(kind, start, now_ns());
        out
    }
}

impl<B: FheBackend> FheBackend for Timed<B> {
    type Plaintext = B::Plaintext;
    type Ciphertext = B::Ciphertext;

    fn slot_capacity(&self) -> Option<usize> {
        self.inner.slot_capacity()
    }

    fn supports_slot_rotation(&self) -> bool {
        self.inner.supports_slot_rotation()
    }

    fn meter(&self) -> &OpMeter {
        self.inner.meter()
    }

    fn depth_budget(&self) -> u32 {
        self.inner.depth_budget()
    }

    fn encode(&self, bits: &BitVec) -> Self::Plaintext {
        self.time(Kind::Encode, |b| b.encode(bits))
    }

    fn decode(&self, pt: &Self::Plaintext) -> BitVec {
        self.time(Kind::Encode, |b| b.decode(pt))
    }

    fn prepare_plaintext(&self, pt: &Self::Plaintext) {
        self.time(Kind::Encode, |b| b.prepare_plaintext(pt))
    }

    fn set_kernel_threads(&self, threads: usize) {
        self.inner.set_kernel_threads(threads)
    }

    fn kernel_threads(&self) -> usize {
        self.inner.kernel_threads()
    }

    fn encrypt(&self, pt: &Self::Plaintext) -> Self::Ciphertext {
        self.time(Kind::Encrypt, |b| b.encrypt(pt))
    }

    fn decrypt(&self, ct: &Self::Ciphertext) -> BitVec {
        self.time(Kind::Decrypt, |b| b.decrypt(ct))
    }

    fn width(&self, ct: &Self::Ciphertext) -> usize {
        self.inner.width(ct)
    }

    fn depth(&self, ct: &Self::Ciphertext) -> u32 {
        self.inner.depth(ct)
    }

    fn add(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext {
        self.time(Kind::Add, |be| be.add(a, b))
    }

    fn add_plain(&self, a: &Self::Ciphertext, b: &Self::Plaintext) -> Self::Ciphertext {
        self.time(Kind::Add, |be| be.add_plain(a, b))
    }

    fn mul(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext {
        self.time(Kind::Mul, |be| be.mul(a, b))
    }

    fn mul_plain(&self, a: &Self::Ciphertext, b: &Self::Plaintext) -> Self::Ciphertext {
        self.time(Kind::MulPlain, |be| be.mul_plain(a, b))
    }

    fn rotate(&self, a: &Self::Ciphertext, k: isize) -> Self::Ciphertext {
        self.time(Kind::Rotate, |b| b.rotate(a, k))
    }

    fn cyclic_extend(&self, a: &Self::Ciphertext, width: usize) -> Self::Ciphertext {
        self.time(Kind::Layout, |b| b.cyclic_extend(a, width))
    }

    fn truncate(&self, a: &Self::Ciphertext, width: usize) -> Self::Ciphertext {
        self.time(Kind::Layout, |b| b.truncate(a, width))
    }

    fn encrypt_bits(&self, bits: &BitVec) -> Self::Ciphertext {
        self.time(Kind::Encrypt, |b| b.encrypt_bits(bits))
    }

    fn not(&self, a: &Self::Ciphertext) -> Self::Ciphertext {
        self.time(Kind::Add, |b| b.not(a))
    }

    fn encrypt_zeros(&self, width: usize) -> Self::Ciphertext {
        self.time(Kind::Encrypt, |b| b.encrypt_zeros(width))
    }

    fn encrypt_zeros_seeded(&self, width: usize, seed: u64) -> Self::Ciphertext {
        self.time(Kind::Encrypt, |b| b.encrypt_zeros_seeded(width, seed))
    }

    fn pack_blocks(
        &self,
        cts: &[Self::Ciphertext],
        stride: usize,
        width: usize,
    ) -> Self::Ciphertext {
        self.time(Kind::Layout, |b| b.pack_blocks(cts, stride, width))
    }

    fn unpack_block(
        &self,
        ct: &Self::Ciphertext,
        index: usize,
        stride: usize,
        width: usize,
    ) -> Self::Ciphertext {
        self.time(Kind::Layout, |b| b.unpack_block(ct, index, stride, width))
    }

    fn rotate_blocks(
        &self,
        ct: &Self::Ciphertext,
        k: isize,
        width: usize,
        stride: usize,
    ) -> Self::Ciphertext {
        self.time(Kind::Rotate, |b| b.rotate_blocks(ct, k, width, stride))
    }

    fn cyclic_extend_blocks(
        &self,
        ct: &Self::Ciphertext,
        width: usize,
        new_width: usize,
        stride: usize,
    ) -> Self::Ciphertext {
        self.time(Kind::Layout, |b| {
            b.cyclic_extend_blocks(ct, width, new_width, stride)
        })
    }

    fn truncate_blocks(
        &self,
        ct: &Self::Ciphertext,
        width: usize,
        new_width: usize,
        stride: usize,
    ) -> Self::Ciphertext {
        self.time(Kind::Layout, |b| {
            b.truncate_blocks(ct, width, new_width, stride)
        })
    }

    fn encode_tiled(&self, bits: &BitVec, stride: usize, count: usize) -> Self::Plaintext {
        self.time(Kind::Layout, |b| b.encode_tiled(bits, stride, count))
    }

    fn tile_ciphertext(
        &self,
        ct: &Self::Ciphertext,
        stride: usize,
        count: usize,
    ) -> Self::Ciphertext {
        self.time(Kind::Layout, |b| b.tile_ciphertext(ct, stride, count))
    }

    fn serialize_ciphertext(&self, ct: &Self::Ciphertext) -> Vec<u8> {
        self.time(Kind::Codec, |b| b.serialize_ciphertext(ct))
    }

    fn deserialize_ciphertext(
        &self,
        bytes: &[u8],
    ) -> Result<Self::Ciphertext, CiphertextCodecError> {
        self.time(Kind::Codec, |b| b.deserialize_ciphertext(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copse_core::{CompileOptions, Diane, Maurice, ModelForm, Sally};
    use copse_fhe::{BgvBackend, BgvParams, ClearBackend};
    use copse_forest::{microbench, Forest};

    /// Classifies every query on `backend`; returns each serialised
    /// result ciphertext with its decrypted leaf hits.
    fn answers<B: FheBackend>(
        backend: &B,
        maurice: &Maurice,
        form: ModelForm,
        queries: &[Vec<u64>],
    ) -> Vec<(Vec<u8>, Vec<bool>)> {
        let sally = Sally::host(backend, maurice.deploy(backend, form));
        let diane = Diane::new(backend, maurice.public_query_info());
        queries
            .iter()
            .map(|q| {
                let result = sally.classify(&diane.encrypt_features(q).unwrap());
                let bytes = backend.serialize_ciphertext(result.ciphertext());
                (bytes, diane.decrypt_result(&result).leaf_hits().to_bools())
            })
            .collect()
    }

    /// Runs the same queries on `bare` and on a switched-on timing
    /// wrapper around `twin` (a backend built identically to `bare`):
    /// results must be bitwise identical and the meters must agree.
    fn parity<B: FheBackend>(bare: B, twin: B, form: ModelForm) {
        // Small enough for the 6 slots of the `m = 31` ring.
        let forest = Forest::parse(
            "precision 4\n\
             labels no maybe yes\n\
             tree (branch 0 8 (branch 1 4 (leaf 0) (leaf 1)) (branch 0 3 (leaf 1) (leaf 2)))\n",
        )
        .unwrap();
        let queries = microbench::random_queries(&forest, 3, 11);
        let maurice = Maurice::compile(&forest, CompileOptions::default()).unwrap();
        let recorder = Recorder::new();
        recorder.set_on(true);
        let wrapped = Timed::new(Arc::new(twin), Arc::clone(&recorder));

        let bare_out = answers(&bare, &maurice, form, &queries);
        let wrapped_out = answers(&wrapped, &maurice, form, &queries);

        assert_eq!(bare_out, wrapped_out, "wrapped results differ from bare");
        for (q, (_, hits)) in queries.iter().zip(&bare_out) {
            assert_eq!(hits, &forest.classify_leaf_hits(q));
        }
        let ops = wrapped.meter().snapshot();
        assert_eq!(bare.meter().snapshot(), ops);
        let totals = recorder.totals();
        assert_eq!(totals.calls(Kind::Decrypt), 3);
        assert_eq!(
            totals.calls(Kind::Mul) + totals.calls(Kind::MulPlain),
            ops.multiply + ops.constant_multiply
        );
        assert!(recorder.take_covered_ns() > 0);
    }

    #[test]
    fn wrapped_bgv_is_bitwise_identical_to_bare() {
        let params = BgvParams {
            chain_len: 12,
            ..BgvParams::tiny()
        };
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            parity(BgvBackend::new(params), BgvBackend::new(params), form);
        }
    }

    #[test]
    fn wrapped_clear_is_bitwise_identical_to_bare() {
        for form in [ModelForm::Plain, ModelForm::Encrypted] {
            parity(
                ClearBackend::with_defaults(),
                ClearBackend::with_defaults(),
                form,
            );
        }
    }

    #[test]
    fn switched_off_recorder_records_nothing() {
        let recorder = Recorder::new();
        let wrapped = Timed::new(
            Arc::new(ClearBackend::with_defaults()),
            Arc::clone(&recorder),
        );
        let ct = wrapped.encrypt_bits(&BitVec::ones(4));
        let _ = wrapped.rotate(&ct, 1);
        assert_eq!(recorder.totals(), Totals::default());
        assert_eq!(recorder.take_covered_ns(), 0);
    }

    #[test]
    fn covered_time_is_the_union_of_overlapping_calls() {
        let mut coverage = Coverage::default();
        assert_eq!(coverage.take(0), 0);
        // [0, 10) and [5, 15) overlap; [20, 25) contains [21, 22).
        coverage.enter(0);
        coverage.enter(5);
        coverage.leave(10);
        coverage.leave(15);
        coverage.enter(20);
        coverage.enter(21);
        coverage.leave(22);
        coverage.leave(25);
        assert_eq!(coverage.take(30), 20);
        // A call still running at the take counts up to the take.
        coverage.enter(40);
        assert_eq!(coverage.take(45), 5);
        coverage.leave(50);
        assert_eq!(coverage.take(60), 5);
    }
}
