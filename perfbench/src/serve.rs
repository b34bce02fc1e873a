//! Deploying the model behind the real server and driving closed-loop
//! client load against it.

use crate::relay::Relay;
use crate::timed::{now_ns, Recorder, Totals};
use copse_core::{CompileOptions, Maurice, ModelForm};
use copse_fhe::FheBackend;
use copse_forest::microbench;
use copse_forest::Forest;
use copse_server::{InferenceClient, ServerBuilder, ServerHandle, ServerTiming};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Registry name of the served model.
pub const MODEL: &str = "depth4";

/// What one deployment serves and how.
pub struct Plan<'a> {
    /// The forest.
    pub forest: &'a Forest,
    /// Plain or encrypted model form.
    pub form: ModelForm,
    /// Closed-loop clients (one connection each).
    pub clients: usize,
    /// `ServerBuilder::threads`.
    pub threads: usize,
}

/// Wall-clock seconds of each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Backend construction (key generation for BGV).
    pub keygen_s: f64,
    /// `Maurice::compile`.
    pub compile_s: f64,
    /// `ServerBuilder::bind`: analysis, admission, deploy, worker spawn.
    pub bind_s: f64,
    /// `InferenceServer::spawn` plus every `InferenceClient::connect`.
    pub connect_s: f64,
    /// The whole set-up, start to first query ready.
    pub total_s: f64,
}

/// A served model with connected clients.
pub struct Deployment<B: FheBackend + 'static> {
    /// The running server.
    pub handle: ServerHandle<B>,
    /// One connected client per closed loop.
    pub clients: Vec<InferenceClient<B>>,
    /// The byte-counting relay the clients connect through, if any.
    pub relay: Option<Relay>,
    /// How long set-up took.
    pub times: SetupTimes,
}

impl<B: FheBackend + 'static> Deployment<B> {
    /// Closes every client, shuts the server down and stops the relay,
    /// waiting for all of their threads.
    pub fn teardown(self) {
        for client in self.clients {
            let _ = client.close();
        }
        self.handle.shutdown();
        if let Some(relay) = self.relay {
            relay.join();
        }
    }
}

/// How one deployment's backends are made: `inner` builds the real
/// backend (key generation), `server` and `client` wrap it for the
/// server and for client `i`.
pub struct Stack<'a, I, B> {
    /// Builds the real backend.
    pub inner: &'a dyn Fn() -> I,
    /// The server's view of it.
    pub server: &'a dyn Fn(&Arc<I>) -> Arc<B>,
    /// Client `i`'s view of it.
    pub client: &'a dyn Fn(&Arc<I>, usize) -> Arc<B>,
    /// Route clients through a byte-counting [`Relay`].
    pub relay: bool,
}

fn secs(from: u64, to: u64) -> f64 {
    (to - from) as f64 / 1e9
}

/// Builds the backend, compiles, binds, spawns and connects: set-up
/// from nothing to the first query ready.
///
/// # Panics
///
/// Panics if compilation, binding or connecting fails — the benchmark
/// has no result to report then.
pub fn deploy<I, B>(plan: &Plan<'_>, stack: &Stack<'_, I, B>) -> (Arc<I>, Deployment<B>)
where
    I: FheBackend + 'static,
    B: FheBackend + 'static,
{
    let t0 = now_ns();
    let inner = Arc::new((stack.inner)());
    let t1 = now_ns();
    let maurice = Maurice::compile(plan.forest, CompileOptions::default()).expect("model compiles");
    let t2 = now_ns();
    let server = ServerBuilder::new((stack.server)(&inner))
        .threads(plan.threads)
        .register_compiled(MODEL, maurice, plan.form)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let t3 = now_ns();
    let rejected = server.rejections();
    if !rejected.is_empty() {
        crate::fail(4, &format!("admission rejects the model: {rejected:?}"));
    }
    let handle = server.spawn().expect("spawn server");
    // Clients arrive once the accept loop is up, as they would at a
    // running service. Connecting within microseconds of `spawn` races
    // the accept thread's first poll, and whichever side wins moves
    // set-up by a whole accept-poll interval.
    std::thread::sleep(Duration::from_millis(1));
    let relay = stack
        .relay
        .then(|| Relay::start(handle.addr()).expect("start relay"));
    let addr: SocketAddr = relay.as_ref().map_or(handle.addr(), Relay::addr);
    let clients = (0..plan.clients)
        .map(|i| {
            InferenceClient::connect(addr, (stack.client)(&inner, i), MODEL)
                .expect("client connects")
        })
        .collect();
    let t4 = now_ns();
    let times = SetupTimes {
        keygen_s: secs(t0, t1),
        compile_s: secs(t1, t2),
        bind_s: secs(t2, t3),
        connect_s: secs(t3, t4),
        total_s: secs(t0, t4),
    };
    (
        inner,
        Deployment {
            handle,
            clients,
            relay,
            times,
        },
    )
}

/// Deterministic per-client query streams drawn from the workload seed.
pub struct Queries {
    streams: Vec<Vec<Vec<u64>>>,
    next: Vec<usize>,
}

impl Queries {
    /// `per_client` queries for each of `clients` clients; the stream
    /// wraps around when a run outlasts it.
    pub fn new(forest: &Forest, clients: usize, per_client: usize, seed: u64) -> Self {
        let streams = (0..clients)
            .map(|c| {
                let stream_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(c as u64 + 1);
                microbench::random_queries(forest, per_client, stream_seed)
            })
            .collect();
        Self {
            streams,
            next: vec![0; clients],
        }
    }
}

/// One answered query.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Client-observed latency: `classify` call to verified outcome.
    pub latency_ns: u64,
    /// Traced runs only: the server's timing split and this query's
    /// client-side backend work (boxed, so untraced samples stay small
    /// next to the program's own memory).
    pub traced: Option<Box<(ServerTiming, Totals)>>,
}

/// One closed-loop measurement.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every answered query.
    pub samples: Vec<Sample>,
    /// `classify` calls that returned an error.
    pub errors: u64,
    /// Start of the first query to end of the last.
    pub wall_ns: u64,
}

/// How long a phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Each client issues exactly this many queries.
    Count(usize),
    /// Clients issue queries until this many seconds have passed; the
    /// queries in flight then still complete and count.
    Seconds(f64),
}

/// Runs the clients' closed loops concurrently and checks every
/// decrypted answer against `Forest::classify_leaf_hits`, the
/// plaintext evaluator.
///
/// A wrong answer ends the process with a non-zero exit code and no
/// result line: the run has no valid measurement.
pub fn run_phase<B: FheBackend + 'static>(
    clients: &mut [InferenceClient<B>],
    recorders: &[Arc<Recorder>],
    queries: &mut Queries,
    forest: &Forest,
    stop: Stop,
) -> Phase {
    let start = now_ns();
    let deadline = match stop {
        Stop::Seconds(s) => Some(start + (s * 1e9) as u64),
        Stop::Count(_) => None,
    };
    let per_client: Vec<(Vec<Sample>, u64, u64)> = std::thread::scope(|scope| {
        let loops: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .zip(queries.streams.iter().zip(queries.next.iter_mut()))
            .map(|((c, client), (stream, next))| {
                let recorder = recorders.get(c).cloned();
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut errors = 0u64;
                    let mut issued = 0usize;
                    loop {
                        match (stop, deadline) {
                            (Stop::Count(n), _) if issued >= n => break,
                            (_, Some(d)) if now_ns() >= d => break,
                            _ => {}
                        }
                        let features = &stream[*next % stream.len()];
                        *next += 1;
                        issued += 1;
                        let before = recorder.as_ref().map(|r| r.totals()).unwrap_or_default();
                        let t = now_ns();
                        let served = client.classify(features);
                        let latency_ns = now_ns() - t;
                        let after = recorder.as_ref().map(|r| r.totals()).unwrap_or_default();
                        match served {
                            Ok(served) => {
                                let got = served.outcome.leaf_hits().to_bools();
                                if got != forest.classify_leaf_hits(features) {
                                    eprintln!(
                                        "perfbench: WRONG ANSWER for features {features:?}: \
                                         decrypted leaf hits {got:?} disagree with the \
                                         plaintext forest"
                                    );
                                    std::process::exit(3);
                                }
                                samples.push(Sample {
                                    latency_ns,
                                    traced: served
                                        .timing
                                        .map(|t| Box::new((t, after.since(&before)))),
                                });
                            }
                            Err(e) => {
                                eprintln!("perfbench: client {c}: query failed: {e}");
                                errors += 1;
                            }
                        }
                    }
                    (samples, errors, now_ns())
                })
            })
            .collect();
        loops
            .into_iter()
            .map(|h| h.join().expect("client loop panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    let mut end = start;
    for (samples, errors, finished) in per_client {
        phase.samples.extend(samples);
        phase.errors += errors;
        end = end.max(finished);
    }
    phase.wall_ns = end - start;
    phase
}
