//! perfbench — the COPSE serving benchmark.
//!
//! Serves the zoo's Table 6 `depth4` forest (seed 2021) over loopback
//! TCP with the real `ServerBuilder` → `InferenceServer` →
//! `InferenceClient` stack, drives closed-loop load from this process,
//! and checks every decrypted answer against the plaintext evaluator
//! `Forest::classify_leaf_hits`.
//!
//! ```text
//! perfbench --workload <interactive|concurrent|serving-overhead|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics on the bare
//! program. With `--trace 1` it first does exactly that, then sets up
//! again with timing wrappers around the backend, a byte-counting
//! relay in front of the server and query tracing on, and reports the
//! per-layer metrics plus the tracing overhead (traced minus untraced)
//! of every end-to-end metric. Human-readable lines come first; the
//! last line of standard output is one JSON object.
//!
//! Exit codes: 0 success, 1 the run could not be measured (warm-up,
//! probe or every measured query failed), 2 bad arguments, 3 a wrong
//! answer, 4 a failed count or admission check.

mod relay;
mod serve;
mod timed;

use copse_analyze::{BackendProfile, CircuitReport, EvalShape};
use copse_core::{CompileOptions, Maurice, ModelForm, Sally};
use copse_fhe::{
    transform_snapshot, BgvBackend, BgvParams, ClearBackend, ClearConfig, FheBackend, FheOp,
    OpCounts,
};
use copse_forest::{zoo, Forest};
use serve::{deploy, run_phase, Deployment, Phase, Plan, Queries, SetupTimes, Stack, Stop};
use std::fmt::Write as _;
use std::sync::Arc;
use timed::{Kind, Recorder, Timed, Totals};

/// Seed of the model zoo the served forest comes from.
const ZOO_SEED: u64 = 2021;

/// Queries generated per client stream (streams wrap around).
const STREAM_LEN: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// One client, plain model, BGV: the latency one user sees.
    Interactive,
    /// Two clients, encrypted model, BGV: batching and the pool
    /// across queries, ct×ct multiplication.
    Concurrent,
    /// Two clients, plain model, clear backend with no synthetic work:
    /// server, wire, transport and client overhead alone.
    ServingOverhead,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Interactive,
        Workload::Concurrent,
        Workload::ServingOverhead,
    ];

    fn parse(name: &str) -> Option<Self> {
        match name {
            "interactive" => Some(Self::Interactive),
            "concurrent" => Some(Self::Concurrent),
            "serving-overhead" => Some(Self::ServingOverhead),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Interactive => "interactive",
            Self::Concurrent => "concurrent",
            Self::ServingOverhead => "serving-overhead",
        }
    }

    fn clients(self) -> usize {
        match self {
            Self::Interactive => 1,
            Self::Concurrent | Self::ServingOverhead => 2,
        }
    }

    fn form(self) -> ModelForm {
        match self {
            Self::Concurrent => ModelForm::Encrypted,
            Self::Interactive | Self::ServingOverhead => ModelForm::Plain,
        }
    }

    fn bgv(self) -> bool {
        self != Self::ServingOverhead
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setup_reps(self) -> usize {
        if self.bgv() {
            3
        } else {
            31
        }
    }

    /// Queries each client runs before measuring: the first query
    /// fills the backend's mask caches, later ones do not.
    fn warmup(self) -> usize {
        if self.bgv() {
            1
        } else {
            200
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let trace = value("--trace")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match trace {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, not `{trace}`")),
        },
    })
}

fn fail(code: i32, message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(code)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process image in MB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count
/// the launcher this process was exec'd from, such as `cargo run`.)
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or_else(|| fail(1, "cannot read VmHWM from /proc/self/status"))
}

/// The commit being measured, read from `.git` when the benchmark runs
/// inside a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown (not a git checkout)".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// The backend configuration a workload serves on, derived once per
/// run.
struct Config {
    /// BGV parameters (`None` for the clear backend).
    bgv: Option<BgvParams>,
    /// Plain or encrypted model.
    form: ModelForm,
    /// The analyzer's prediction for the served circuit.
    report: CircuitReport,
    /// Paper ops one query costs in total: the client's encrypts and
    /// decrypt plus the analyzer's served circuit.
    ops_per_query: OpCounts,
    /// Human-readable record of the configuration.
    describe: String,
}

/// The BGV chain length: the shortest one whose depth budget the
/// analyzer admits the model under, every other field from
/// `BgvParams::demo()`.
///
/// The budget a chain length gives is read from `BgvBackend` itself
/// (on the small `m = 31` ring, where building a backend is cheap), not
/// from a copy of its formula.
fn derive_chain(report: &CircuitReport) -> usize {
    (2..=64)
        .find(|&chain_len| {
            let probe = BgvBackend::new(BgvParams {
                chain_len,
                ..BgvParams::tiny()
            });
            let profile = BackendProfile {
                depth_budget: probe.depth_budget(),
                slot_capacity: None,
                supports_slot_rotation: true,
            };
            report.admit(&profile).is_empty()
        })
        .unwrap_or_else(|| fail(4, "no chain length up to 64 admits the model"))
}

fn configure(workload: Workload, forest: &Forest, threads: usize) -> Config {
    let maurice = Maurice::compile(forest, CompileOptions::default()).expect("model compiles");
    let report = CircuitReport::analyze(
        maurice.compiled(),
        &EvalShape::plan(&maurice, workload.form()),
    );
    let mut ops_per_query = report.total_ops().plus(&report.query_encrypt_ops);
    ops_per_query.decrypt += 1;
    let mut describe = format!(
        "model={} form={:?} clients={} server_threads={threads} host_cores={threads} \
         circuit_depth={} commit={}",
        serve::MODEL,
        workload.form(),
        workload.clients(),
        report.depth,
        commit()
    );
    let bgv = workload.bgv().then(|| {
        let chain_len = derive_chain(&report);
        let params = BgvParams {
            chain_len,
            ..BgvParams::demo()
        };
        let _ = write!(
            describe,
            " backend=bgv m={} chain_len={chain_len} (the shortest the analyzer admits; \
             demo has {})",
            params.m,
            BgvParams::demo().chain_len,
        );
        params
    });
    if bgv.is_none() {
        describe.push_str(
            " backend=clear work_per_op=0 -- MODELED: these numbers are serving overhead, \
             not FHE cost",
        );
    }
    Config {
        bgv,
        form: workload.form(),
        report,
        ops_per_query,
        describe,
    }
}

/// Records what the backend actually served on offers: slots, depth
/// budget, the admission verdict (`serve::deploy` already failed the run
/// on a rejection) and the cross-query packing plan.
fn record_backend<I: FheBackend>(config: &Config, inner: &I, forest: &Forest) -> String {
    let profile = BackendProfile::of(inner);
    let issues = config.report.admit(&profile);
    let maurice = Maurice::compile(forest, CompileOptions::default()).expect("model compiles");
    let pack_plan = Sally::host(inner, maurice.deploy(inner, config.form)).pack_plan();
    let verdict = if issues.is_empty() {
        "admitted".to_string()
    } else {
        format!("REJECTED {issues:?}")
    };
    format!(
        " slots={:?} depth_budget={} admission={verdict} pack_plan={pack_plan:?}",
        profile.slot_capacity, profile.depth_budget,
    )
}

/// End-to-end figures of one measured phase.
#[derive(Clone, Copy, Debug, Default)]
struct EndToEnd {
    setup_s: f64,
    latency_p50_s: f64,
    latency_p99_s: Option<f64>,
    throughput_qps: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    samples: usize,
    setups: usize,
}

impl EndToEnd {
    fn of(phase: &Phase, setups: &[SetupTimes], failed_server: u64) -> Self {
        if phase.samples.is_empty() {
            fail(1, "no query of the measured phase was answered");
        }
        let mut latencies: Vec<f64> = phase
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e9)
            .collect();
        let mut setup: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
        let n = latencies.len();
        let latency_p50_s = median(&mut latencies);
        // The 99th percentile is reported only with at least ten
        // samples beyond it.
        let latency_p99_s = (n >= 1000).then(|| latencies[(n * 99).div_ceil(100) - 1]);
        EndToEnd {
            setup_s: median(&mut setup),
            latency_p50_s,
            latency_p99_s,
            throughput_qps: n as f64 / (phase.wall_ns as f64 / 1e9),
            peak_rss_mb: peak_rss_mb(),
            attempted: n as u64 + phase.errors,
            failed: phase.errors + failed_server,
            samples: n,
            setups: setups.len(),
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

fn print_report(args: &Args, config: &Config, metrics: &[Metric], e2e: &EndToEnd) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# config: {}", config.describe);
    println!(
        "# {:<28} {:>16} {:<10} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "  {:<28} {:>16.6} {:<10} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    match e2e.latency_p99_s {
        Some(p99) => println!(
            "  {:<28} {:>16.6} {:<10} {:>8}",
            "latency_p99_s", p99, "s", e2e.samples
        ),
        None => println!(
            "  latency_p99_s: not reported, {} samples leave fewer than ten beyond the 99th \
             percentile",
            e2e.samples
        ),
    }
    println!(
        "  failed_ratio: {} failed of {} attempted (errors, shed and expired queries)",
        e2e.failed, e2e.attempted
    );
    let mut json = String::from("{\"correct\": true, ");
    let _ = write!(
        json,
        "\"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        e2e.attempted, e2e.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn end_to_end_metrics(e2e: &EndToEnd) -> Vec<Metric> {
    vec![
        metric("setup_s", e2e.setup_s, "s", e2e.setups),
        metric("latency_p50_s", e2e.latency_p50_s, "s", e2e.samples),
        metric(
            "throughput_qps",
            e2e.throughput_qps,
            "queries/s",
            e2e.samples,
        ),
        metric("peak_rss_mb", e2e.peak_rss_mb, "MB", 1),
    ]
}

/// Set-up `reps` times (tearing each down but the last), then warm up.
fn deploy_reps<I, B>(
    workload: Workload,
    plan: &Plan<'_>,
    stack: &Stack<'_, I, B>,
    queries: &mut Queries,
    recorders: &[Arc<Recorder>],
) -> (Arc<I>, Deployment<B>, Vec<SetupTimes>)
where
    I: FheBackend + 'static,
    B: FheBackend + 'static,
{
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..workload.setup_reps() {
        if let Some((_, previous)) = last.take() {
            Deployment::teardown(previous);
        }
        let (inner, deployment) = deploy(plan, stack);
        times.push(deployment.times);
        last = Some((inner, deployment));
    }
    let (inner, mut deployment) = last.expect("at least one set-up");
    let warm = run_phase(
        &mut deployment.clients,
        recorders,
        queries,
        plan.forest,
        Stop::Count(workload.warmup()),
    );
    if warm.errors > 0 {
        fail(1, "warm-up queries failed");
    }
    (inner, deployment, times)
}

/// The server's `(shed, expired)` query counters.
fn overload<B: FheBackend + 'static>(deployment: &Deployment<B>) -> (u64, u64) {
    let stats = deployment.handle.stats().snapshot();
    (stats.queries_shed, stats.queries_expired)
}

/// Checks a measured phase's paper-op count against the analyzer:
/// evaluation is data-oblivious, so every query costs exactly
/// `config.ops_per_query`.
fn check_paper_ops(config: &Config, delta: &OpCounts, queries: u64, what: &str) {
    let expected = scaled(&config.ops_per_query, queries);
    if *delta != expected {
        fail(
            4,
            &format!(
                "count check failed ({what}): {queries} queries metered {delta:?}, the analyzer \
                 predicts {expected:?}"
            ),
        );
    }
}

/// The untraced measurement: bare backend, direct connections, tracing
/// off.
fn measure_untraced<I: FheBackend + 'static>(
    args: &Args,
    config: &Config,
    forest: &Forest,
    plan: &Plan<'_>,
    make: &dyn Fn() -> I,
) -> (EndToEnd, String) {
    let share = |inner: &Arc<I>| Arc::clone(inner);
    let share_client = |inner: &Arc<I>, _: usize| Arc::clone(inner);
    let stack = Stack {
        inner: make,
        server: &share,
        client: &share_client,
        relay: false,
    };
    let mut queries = Queries::new(forest, plan.clients, STREAM_LEN, args.seed);
    let (inner, mut deployment, setups) =
        deploy_reps(args.workload, plan, &stack, &mut queries, &[]);
    let overload_before = overload(&deployment);
    let ops_before = inner.meter().snapshot();
    let phase = run_phase(
        &mut deployment.clients,
        &[],
        &mut queries,
        forest,
        Stop::Seconds(args.seconds),
    );
    let ops = inner.meter().snapshot().since(&ops_before);
    let (shed, expired) = overload(&deployment);
    let e2e = EndToEnd::of(
        &phase,
        &setups,
        shed + expired - overload_before.0 - overload_before.1,
    );
    let record = record_backend(config, inner.as_ref(), forest);
    deployment.teardown();
    check_paper_ops(config, &ops, phase.samples.len() as u64, "untraced phase");
    (e2e, record)
}

/// `ops` counted `n` times over.
fn scaled(ops: &OpCounts, n: u64) -> OpCounts {
    let mut out = *ops;
    for op in FheOp::ALL {
        *out.get_mut(op) *= n;
    }
    out
}

/// Per-query counts of one probe query: they must not depend on the
/// query's data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    calls: [u64; 9],
    paper_ops: OpCounts,
    transforms: u64,
}

impl Counts {
    /// The counts of `n` such queries.
    fn scaled(&self, n: u64) -> Counts {
        Counts {
            calls: self.calls.map(|c| c * n),
            paper_ops: scaled(&self.paper_ops, n),
            transforms: self.transforms * n,
        }
    }
}

struct Snapshot {
    server: Totals,
    clients: Totals,
    ops: OpCounts,
    transforms: u64,
}

fn snapshot<I: FheBackend>(inner: &I, server: &Recorder, clients: &[Arc<Recorder>]) -> Snapshot {
    Snapshot {
        server: server.totals(),
        clients: clients
            .iter()
            .fold(Totals::default(), |acc, r| acc.plus(&r.totals())),
        ops: inner.meter().snapshot(),
        transforms: transform_snapshot().total(),
    }
}

impl Snapshot {
    fn counts_since(&self, earlier: &Snapshot) -> Counts {
        Counts {
            calls: self
                .server
                .since(&earlier.server)
                .plus(&self.clients.since(&earlier.clients))
                .calls,
            paper_ops: self.ops.since(&earlier.ops),
            transforms: self.transforms - earlier.transforms,
        }
    }
}

/// The traced measurement: timing wrappers, the byte-counting relay,
/// query tracing on. Returns the end-to-end figures measured with
/// tracing on plus the per-layer metrics.
fn measure_traced<I: FheBackend + 'static>(
    args: &Args,
    config: &Config,
    forest: &Forest,
    plan: &Plan<'_>,
    make: &dyn Fn() -> I,
) -> (EndToEnd, Vec<Metric>) {
    let server_recorder = Recorder::new();
    let client_recorders: Vec<Arc<Recorder>> = (0..plan.clients).map(|_| Recorder::new()).collect();
    let wrap_server =
        |inner: &Arc<I>| Arc::new(Timed::new(Arc::clone(inner), Arc::clone(&server_recorder)));
    let wrap_client = |inner: &Arc<I>, i: usize| {
        Arc::new(Timed::new(
            Arc::clone(inner),
            Arc::clone(&client_recorders[i]),
        ))
    };
    let stack = Stack {
        inner: make,
        server: &wrap_server,
        client: &wrap_client,
        relay: true,
    };
    let mut queries = Queries::new(forest, plan.clients, STREAM_LEN, args.seed);
    let (inner, mut deployment, setups) =
        deploy_reps(args.workload, plan, &stack, &mut queries, &client_recorders);
    for client in &mut deployment.clients {
        client.set_tracing(true);
    }
    server_recorder.set_on(true);
    for r in &client_recorders {
        r.set_on(true);
    }

    // Count probe: one query from the workload's stream and one from an
    // unrelated seed, each alone, after warm-up.
    let mut other = Queries::new(forest, 1, 1, args.seed ^ 0x00C0_FFEE_D00D);
    let probe = |queries: &mut Queries, deployment: &mut Deployment<Timed<I>>| {
        let before = snapshot(inner.as_ref(), &server_recorder, &client_recorders);
        let phase = run_phase(
            &mut deployment.clients[..1],
            &client_recorders[..1],
            queries,
            forest,
            Stop::Count(1),
        );
        if phase.errors > 0 {
            fail(1, "count probe query failed");
        }
        snapshot(inner.as_ref(), &server_recorder, &client_recorders).counts_since(&before)
    };
    let probe_a = probe(&mut queries, &mut deployment);
    let probe_b = probe(&mut other, &mut deployment);
    if probe_a != probe_b {
        fail(
            4,
            &format!("count check failed: per-query counts depend on the query data: {probe_a:?} vs {probe_b:?}"),
        );
    }
    check_paper_ops(config, &probe_a.paper_ops, 1, "probe query");

    server_recorder.take_covered_ns();
    let overload_before = overload(&deployment);
    let relay = deployment.relay.as_ref().expect("traced runs relay");
    let bytes_before = relay.bytes();
    let before = snapshot(inner.as_ref(), &server_recorder, &client_recorders);
    let phase = run_phase(
        &mut deployment.clients,
        &client_recorders,
        &mut queries,
        forest,
        Stop::Seconds(args.seconds),
    );
    let after = snapshot(inner.as_ref(), &server_recorder, &client_recorders);
    let bytes_after = deployment
        .relay
        .as_ref()
        .expect("traced runs relay")
        .bytes();
    let covered_ns = server_recorder.take_covered_ns();
    let (shed, expired) = overload(&deployment);
    let (shed, expired) = (shed - overload_before.0, expired - overload_before.1);
    let e2e = EndToEnd::of(&phase, &setups, shed + expired);
    deployment.teardown();

    let n = phase.samples.len() as u64;
    let counts = after.counts_since(&before);
    let expected = probe_a.scaled(n);
    if counts != expected {
        fail(
            4,
            &format!("count check failed: {n} traced queries counted {counts:?}, {n} x the probe is {expected:?}"),
        );
    }

    let per_query = |total: f64| total / n as f64;
    let mut metrics = Vec::new();
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&mut setups.iter().map(f).collect::<Vec<_>>());
    let reps = setups.len();
    metrics.push(metric(
        "fhe.keygen_s",
        setup_median(|t| t.keygen_s),
        "s",
        reps,
    ));
    metrics.push(metric(
        "compiler.compile_s",
        setup_median(|t| t.compile_s),
        "s",
        reps,
    ));
    metrics.push(metric(
        "server.bind_s",
        setup_median(|t| t.bind_s),
        "s",
        reps,
    ));
    metrics.push(metric(
        "client.connect_s",
        setup_median(|t| t.connect_s),
        "s",
        reps,
    ));

    let fhe = after
        .server
        .since(&before.server)
        .plus(&after.clients.since(&before.clients));
    let samples = phase.samples.len();
    for kind in Kind::ALL {
        metrics.push(metric(
            format!("fhe.{}.calls", kind.name()),
            per_query(fhe.calls(kind) as f64),
            "count",
            samples,
        ));
        metrics.push(metric(
            format!("fhe.{}.busy_s", kind.name()),
            per_query(fhe.busy_ns(kind) as f64 / 1e9),
            "s",
            samples,
        ));
    }
    metrics.push(metric(
        "fhe.transforms",
        per_query(counts.transforms as f64),
        "count",
        samples,
    ));
    metrics.push(metric(
        "fhe.paper_ops",
        per_query(counts.paper_ops.total_homomorphic() as f64),
        "count",
        samples,
    ));

    // Served-eval split, per query: a pass's stage times are shared by
    // the queries coalesced into it.
    let traced: Vec<&(copse_server::ServerTiming, Totals)> = phase
        .samples
        .iter()
        .map(|s| {
            s.traced
                .as_deref()
                .expect("traced answers carry ServerTiming")
        })
        .collect();
    let timings: Vec<&copse_server::ServerTiming> = traced.iter().map(|(t, _)| t).collect();
    let share = |f: &dyn Fn(&copse_server::ServerTiming) -> u64| -> f64 {
        per_query(
            timings
                .iter()
                .map(|t| f(t) as f64 / 1e9 / f64::from(t.batch_size.max(1)))
                .sum(),
        )
    };
    let mean = |f: &dyn Fn(&copse_server::ServerTiming) -> u64| -> f64 {
        per_query(timings.iter().map(|t| f(t) as f64 / 1e9).sum())
    };
    let stages: Vec<f64> = (0..4).map(|i| share(&|t| t.stage_nanos[i])).collect();
    let eval_s = share(&|t| t.encode_nanos.saturating_sub(t.assembled_nanos));
    let stage_sum: f64 = stages.iter().sum();
    for (name, value) in ["comparison", "reshuffle", "levels", "accumulate"]
        .iter()
        .zip(&stages)
    {
        metrics.push(metric(format!("runtime.{name}_s"), *value, "s", samples));
    }
    metrics.push(metric("runtime.eval_s", eval_s, "s", samples));
    metrics.push(metric(
        "runtime.unattributed_s",
        eval_s - stage_sum,
        "s",
        samples,
    ));

    // Kernel closure: the server's backend calls (all but the codec,
    // which runs on connection threads outside evaluation) happen only
    // inside evaluation passes, which one worker runs one at a time.
    let server = after.server.since(&before.server);
    let server_codec_s = per_query(server.busy_ns(Kind::Codec) as f64 / 1e9);
    let eval_busy_s = per_query(server.busy_ns.iter().sum::<u64>() as f64 / 1e9) - server_codec_s;
    let covered_s = per_query(covered_ns as f64 / 1e9);
    metrics.push(metric("fhe.covered_s", covered_s, "s", samples));
    metrics.push(metric(
        "fhe.unattributed_s",
        stage_sum - covered_s,
        "s",
        samples,
    ));
    metrics.push(metric(
        "pool.busy_threads",
        eval_busy_s / eval_s,
        "threads",
        samples,
    ));

    metrics.push(metric(
        "server.ingress_s",
        mean(&|t| t.enqueue_nanos),
        "s",
        samples,
    ));
    metrics.push(metric(
        "server.queue_wait_s",
        mean(&|t| t.dequeue_nanos.saturating_sub(t.enqueue_nanos)),
        "s",
        samples,
    ));
    metrics.push(metric(
        "server.batch_assembly_s",
        mean(&|t| t.assembled_nanos.saturating_sub(t.dequeue_nanos)),
        "s",
        samples,
    ));
    metrics.push(metric(
        "server.total_s",
        mean(&|t| t.encode_nanos),
        "s",
        samples,
    ));
    let passes: f64 = timings
        .iter()
        .map(|t| 1.0 / f64::from(t.batch_size.max(1)))
        .sum();
    metrics.push(metric(
        "server.batch_size",
        n as f64 / passes,
        "queries",
        samples,
    ));
    metrics.push(metric("server.shed", shed as f64, "count", samples));
    metrics.push(metric("server.expired", expired as f64, "count", samples));

    metrics.push(metric(
        "wire.request_bytes",
        per_query((bytes_after.0 - bytes_before.0) as f64),
        "bytes",
        samples,
    ));
    metrics.push(metric(
        "wire.response_bytes",
        per_query((bytes_after.1 - bytes_before.1) as f64),
        "bytes",
        samples,
    ));
    let client_fhe_s = |client: &Totals| client.busy_ns.iter().sum::<u64>() as f64 / 1e9;
    let transport_s = per_query(
        phase
            .samples
            .iter()
            .zip(&traced)
            .map(|(s, (t, client))| {
                s.latency_ns as f64 / 1e9 - t.encode_nanos as f64 / 1e9 - client_fhe_s(client)
            })
            .sum(),
    );
    metrics.push(metric("client.transport_s", transport_s, "s", samples));

    let mean_latency = per_query(
        phase
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e9)
            .sum(),
    );
    let client_s = per_query(traced.iter().map(|(_, client)| client_fhe_s(client)).sum());
    metrics.push(metric(
        "share.levels_of_eval",
        stages[2] / eval_s,
        "ratio",
        samples,
    ));
    metrics.push(metric(
        "share.fhe_of_latency",
        (covered_s + server_codec_s + client_s) / mean_latency,
        "ratio",
        samples,
    ));
    (e2e, metrics)
}

/// `--workload all`: runs every workload in a process of its own (so
/// each reports its own peak resident set), one after another, and
/// fails if any of them fails.
fn run_all() -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(2, &e.to_string()));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut code = 0;
    for workload in Workload::ALL {
        let mut args = argv.clone();
        if let Some(at) = args.iter().position(|a| a == "--workload") {
            args[at + 1] = workload.name().into();
        }
        let status = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .unwrap_or_else(|e| fail(2, &e.to_string()));
        if !status.success() {
            code = status.code().unwrap_or(1);
        }
    }
    std::process::exit(code)
}

fn main() {
    if std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .any(|w| w == ["--workload", "all"])
    {
        run_all();
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "usage: perfbench --workload <interactive|concurrent|serving-overhead|all> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        fail(2, &e)
    });
    let forest = zoo::micro_suite(ZOO_SEED)
        .into_iter()
        .find(|m| m.name == serve::MODEL)
        .expect("the zoo has depth4")
        .forest;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut config = configure(args.workload, &forest, threads);
    let plan = Plan {
        forest: &forest,
        form: args.workload.form(),
        clients: args.workload.clients(),
        threads,
    };
    let (e2e, metrics, record) = match config.bgv {
        Some(params) => run(&args, &config, &forest, &plan, &move || {
            BgvBackend::new(params)
        }),
        None => run(&args, &config, &forest, &plan, &|| {
            ClearBackend::new(ClearConfig {
                work_per_op: 0,
                ..ClearConfig::default()
            })
        }),
    };
    config.describe.push_str(&record);
    print_report(&args, &config, &metrics, &e2e);
}

fn run<I: FheBackend + 'static>(
    args: &Args,
    config: &Config,
    forest: &Forest,
    plan: &Plan<'_>,
    make: &dyn Fn() -> I,
) -> (EndToEnd, Vec<Metric>, String) {
    let (untraced, record) = measure_untraced(args, config, forest, plan, make);
    if !args.trace {
        return (untraced, end_to_end_metrics(&untraced), record);
    }
    let (traced, mut metrics) = measure_traced(args, config, forest, plan, make);
    for (t, u) in end_to_end_metrics(&traced)
        .into_iter()
        .zip(end_to_end_metrics(&untraced))
    {
        metrics.push(metric(
            format!("overhead.{}", t.name),
            t.value - u.value,
            t.unit,
            t.samples,
        ));
    }
    (traced, metrics, record)
}
