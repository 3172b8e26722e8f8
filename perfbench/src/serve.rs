//! `serve_hit` / `serve_sweep`: `popqc serve` with its default flags,
//! driven by a closed loop of `nproc` callers, each on its own keep-alive
//! connection.
//!
//! * `serve_hit` resubmits the eight paper families at
//!   `Family::ladder(0)[1]`, all already in the result store.
//! * `serve_sweep` submits a fresh angle assignment of
//!   `Family::Parameterized` at 12 qubits per request with
//!   `oracle=structural`, after a warm-up that fills the segment cache.

use crate::check::{check_output, OMEGA, WINDOWS_PER_OUTPUT};
use crate::compile::{self, gen_inputs, tail};
use crate::layers::{layer_metrics, RoundCounter, TimedHook, TimedOracle, TimedStore};
use crate::util::{
    derive_seed, die, hash64, median, metric, optimize_request, permutation, quantile,
    read_qasm_dir, Client, Outcome, Server, WorkDir,
};
use crate::{nproc, Opts};
use popqc::core::engine::optimize_circuit_cached;
use popqc::http::http::{ParseStep, RequestParser};
use popqc::http::{AppState, Handler, Request};
use popqc::ir::{qasm, Circuit};
use popqc::prelude::{
    build_store, Family, JobRequest, OptimizationService, OracleRegistry, PopqcConfig, ResultStore,
    ServiceConfig, StoreTier,
};
use popqc::service::report::job_status;
use popqc::service::SegmentCacheLayer;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server lifetimes per run; `setup_s` is the median of their set-ups,
/// and the latency samples of all of them are pooled.
const LIFETIMES: usize = 4;
/// The percentile `latency_tail_ms` reports on the serving workloads.
pub const TAIL_P: f64 = 0.99;
/// Qubits of the swept ansatz.
const SWEEP_QUBITS: u32 = 12;
/// Warm-up requests per server lifetime on `serve_sweep`.
const SWEEP_WARMUP: u64 = 2;
/// One reply in this many keeps its QASM for the simulation check.
const SIM_SAMPLE_ONE_IN: u64 = 64;
/// Requests the traced in-process replay makes.
const REPLAY_REQUESTS: u64 = 64;
/// Keep-alive `GET /healthz` round trips the traced run times.
const HEALTHZ_PINGS: usize = 400;

/// One input of a serving workload.
#[derive(Clone)]
struct Input {
    circuit: Circuit,
    qasm: String,
}

/// The `k`-th angle assignment of the sweep.
fn sweep_input(seed: u64, k: u64) -> Input {
    let circuit = Family::Parameterized.generate(SWEEP_QUBITS, derive_seed(seed, k));
    let qasm = qasm::to_qasm(&circuit);
    Input { circuit, qasm }
}

/// Warm-up inputs live in their own seed stream, apart from the measured
/// ones.
fn warmup_key(life: usize, j: u64) -> u64 {
    (1 << 40) + life as u64 * 1000 + j
}

fn query(sweep: bool) -> &'static str {
    if sweep {
        "?oracle=structural"
    } else {
        ""
    }
}

/// Pulls `"qasm"` and `"cache_hit"` out of a `JobStatus` reply without
/// building the document tree.
fn scan_reply(body: &[u8]) -> Option<(String, bool)> {
    let text = std::str::from_utf8(body).ok()?;
    let cache_hit = if text.contains("\"cache_hit\":true") {
        true
    } else if text.contains("\"cache_hit\":false") {
        false
    } else {
        return None;
    };
    let start = text.find("\"qasm\":\"")? + 8;
    let mut out = String::new();
    let mut chars = text[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some((out, cache_hit)),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// One measured request.
struct Sample {
    latency_ms: f64,
    key: u64,
    status: u16,
    reply: Option<(u64, bool)>,
    /// The reply's QASM, kept for the sampled simulation checks.
    kept: Option<String>,
}

/// The closed loop: `nproc` callers until `deadline`. Returns the
/// samples and the phase's duration.
fn closed_loop(
    addr: &str,
    sweep: bool,
    seed: u64,
    hit_inputs: &Arc<Vec<Input>>,
    next_key: &Arc<AtomicU64>,
    phase: Duration,
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let deadline = start + phase;
    let callers = nproc();
    let handles: Vec<_> = (0..callers)
        .map(|c| {
            let addr = addr.to_string();
            let hit_inputs = Arc::clone(hit_inputs);
            let next_key = Arc::clone(next_key);
            // Each caller walks the inputs in its own seeded order.
            let order = permutation(hit_inputs.len().max(1), derive_seed(seed, c as u64));
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr);
                let mut samples = Vec::new();
                let mut j = 0usize;
                while Instant::now() < deadline {
                    let (key, request, keep) = if sweep {
                        let k = next_key.fetch_add(1, Relaxed);
                        let input = sweep_input(seed, k);
                        let keep =
                            k < 8 || derive_seed(seed ^ 0x5A, k).is_multiple_of(SIM_SAMPLE_ONE_IN);
                        (k, optimize_request(&input.qasm, query(true)), keep)
                    } else {
                        let f = order[j % order.len()];
                        j += 1;
                        (
                            f as u64,
                            optimize_request(&hit_inputs[f].qasm, query(false)),
                            false,
                        )
                    };
                    let t0 = Instant::now();
                    let (status, body) = client.roundtrip(&request);
                    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                    let scanned = scan_reply(&body);
                    samples.push(Sample {
                        latency_ms,
                        key,
                        status,
                        reply: scanned
                            .as_ref()
                            .map(|(q, hit)| (hash64(q.as_bytes()), *hit)),
                        kept: if keep { scanned.map(|(q, _)| q) } else { None },
                    });
                }
                (samples, start.elapsed().as_secs_f64())
            })
        })
        .collect();
    let mut all = Vec::new();
    let mut duration: f64 = 0.0;
    for h in handles {
        let (samples, end) = h.join().expect("caller thread");
        all.extend(samples);
        duration = duration.max(end);
    }
    (all, duration)
}

/// One server lifetime's set-up: inputs, server answering, warm-up done.
struct Lifetime {
    server: Server,
    setup_s: f64,
    hit_inputs: Vec<Input>,
}

fn start_lifetime(opts: &Opts, work: &WorkDir, life: usize, sweep: bool) -> Lifetime {
    let t0 = Instant::now();
    let mut hit_inputs = Vec::new();
    if !sweep {
        let dir = work.path(&format!("in{life}"));
        gen_inputs(&opts.popqc, &dir, 1, opts.seed);
        hit_inputs = read_qasm_dir(&dir)
            .into_iter()
            .map(|(name, qasm)| Input {
                circuit: qasm::parse(&qasm).unwrap_or_else(|e| die(format!("{name}: {e}"))),
                qasm,
            })
            .collect();
    }
    let server = Server::start(&opts.popqc);
    let mut client = Client::connect(&server.addr);
    let warmup: Vec<Vec<u8>> = if sweep {
        (0..SWEEP_WARMUP)
            .map(|j| {
                optimize_request(
                    &sweep_input(opts.seed, warmup_key(life, j)).qasm,
                    query(true),
                )
            })
            .collect()
    } else {
        hit_inputs
            .iter()
            .map(|i| optimize_request(&i.qasm, query(false)))
            .collect()
    };
    for request in &warmup {
        let (status, _) = client.roundtrip(request);
        if status != 200 {
            die(format!("a warm-up request answered {status}"));
        }
    }
    Lifetime {
        server,
        setup_s: t0.elapsed().as_secs_f64(),
        hit_inputs,
    }
}

/// Reference outputs from `popqc optimize` (the compile workloads'
/// command, at width 1), keyed like the samples.
fn reference_outputs(
    opts: &Opts,
    work: &WorkDir,
    sweep: bool,
    keys: &[u64],
    hit_dir: &Path,
) -> HashMap<u64, (String, Input)> {
    let dir = if sweep {
        let dir = work.path("sweep-in");
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(e));
        for &k in keys {
            std::fs::write(
                dir.join(format!("k{k:012}.qasm")),
                sweep_input(opts.seed, k).qasm,
            )
            .unwrap_or_else(|e| die(e));
        }
        dir
    } else {
        hit_dir.to_path_buf()
    };
    let out = work.path("ref-out");
    // The sweep's many small jobs run two at a time; each still runs at
    // engine width 1. A signal here is a new fault and ends the run.
    let extra: &[&str] = if sweep {
        &["--oracle", "structural", "--workers", "2"]
    } else {
        &[]
    };
    let (_, exit) = compile::cli_pass(&opts.popqc, &dir, &out, 1, extra);
    if exit.code != Some(0) {
        die("the reference popqc optimize pass failed");
    }
    let inputs = read_qasm_dir(&dir);
    read_qasm_dir(&out)
        .into_iter()
        .zip(inputs)
        .enumerate()
        .map(|(i, ((name, text), (_, input)))| {
            let key = if sweep {
                name.trim_start_matches('k')
                    .trim_end_matches(".qasm")
                    .parse()
                    .unwrap_or_else(|_| die(format!("bad reference name {name}")))
            } else {
                i as u64
            };
            let circuit = qasm::parse(&input).unwrap_or_else(|e| die(e));
            (
                key,
                (
                    text,
                    Input {
                        circuit,
                        qasm: input,
                    },
                ),
            )
        })
        .collect()
}

pub fn run(opts: &Opts, sweep: bool) -> Outcome {
    let work = WorkDir::new(&opts.workload);
    if opts.trace {
        return traced(opts, &work, sweep);
    }
    let next_key = Arc::new(AtomicU64::new(0));
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut duration = 0.0;
    let mut failed = 0u64;
    let mut oracle_calls_during = 0u64;
    for life in 0..LIFETIMES {
        let lt = start_lifetime(opts, &work, life, sweep);
        setups.push(lt.setup_s);
        let mut client = Client::connect(&lt.server.addr);
        let calls_before = client.oracle_calls_issued();
        let (s, d) = closed_loop(
            &lt.server.addr,
            sweep,
            opts.seed,
            &Arc::new(lt.hit_inputs),
            &next_key,
            Duration::from_secs_f64(opts.seconds / LIFETIMES as f64),
        );
        let calls = client.oracle_calls_issued() - calls_before;
        if !sweep && calls > 0 {
            // Store hits must not reach the oracle: every request of
            // this lifetime failed.
            eprintln!("serve_hit: {calls} oracle calls during the measured phase");
            failed += s.len() as u64;
        }
        oracle_calls_during += calls;
        rss.push(lt.server.peak_rss_mb());
        duration += d;
        samples.extend(s);
    }

    // Checks, made after the measured phase.
    let keys: Vec<u64> = if sweep {
        samples.iter().map(|s| s.key).collect()
    } else {
        (0..8).collect()
    };
    let reference = reference_outputs(opts, &work, sweep, &keys, &work.path("in0"));
    let oracle_id = if sweep { "structural" } else { "rule_based" };
    let registry = OracleRegistry::builtin();
    let (_, oracle) = registry.resolve(Some(oracle_id)).expect("builtin oracle");
    let mut bad_keys: HashMap<u64, String> = HashMap::new();
    let (mut improvable, mut windows) = (0usize, 0usize);
    if !sweep {
        // Replies must equal these outputs byte for byte, so checking the
        // reference checks every reply.
        for (&k, (text, input)) in &reference {
            match check_output(
                &input.circuit,
                text,
                oracle.as_ref(),
                derive_seed(opts.seed, k),
            ) {
                Ok(c) => {
                    improvable += c.improvable_windows;
                    windows += WINDOWS_PER_OUTPUT;
                }
                Err(e) => {
                    bad_keys.insert(k, e);
                }
            }
        }
    }
    let mut store_hits = 0u64;
    let mut output_gates: BTreeMap<u64, usize> = BTreeMap::new();
    for s in &samples {
        let expected = reference.get(&s.key).map(|(t, _)| hash64(t.as_bytes()));
        let verdict = match s.reply {
            _ if s.status != 200 => Err(format!("status {}", s.status)),
            None => Err("reply is not a finished job document".to_string()),
            Some((_, false)) if !sweep => Err("reply is not a store hit".to_string()),
            Some((hash, _)) if Some(hash) != expected => {
                Err("reply differs from popqc optimize on the same input".to_string())
            }
            Some(_) => match (&s.kept, reference.get(&s.key)) {
                (Some(text), Some((_, input))) => check_output(
                    &input.circuit,
                    text,
                    oracle.as_ref(),
                    derive_seed(opts.seed, s.key),
                )
                .map(|c| {
                    improvable += c.improvable_windows;
                    windows += WINDOWS_PER_OUTPUT;
                    output_gates.insert(s.key, c.gates);
                }),
                _ => Ok(()),
            },
        };
        if let Some((_, true)) = s.reply {
            store_hits += 1;
        }
        let verdict = verdict.and_then(|()| match bad_keys.get(&s.key) {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        });
        if let Err(e) = verdict {
            if failed < 5 {
                eprintln!("{}: request for input {}: {e}", opts.workload, s.key);
            }
            failed += 1;
        }
    }
    let output_gates: usize = if sweep {
        output_gates.range(0..8).map(|(_, g)| g).sum()
    } else {
        reference
            .values()
            .map(|(t, _)| qasm::parse(t).map_or(0, |c| c.len()))
            .sum()
    };
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    println!(
        "{}: {} requests from {} callers over {LIFETIMES} server lifetimes, {store_hits} store hits, \
         {oracle_calls_during} oracle calls while measuring, tail = p{}; \
         {improvable} of {windows} sampled Ω-windows can still be improved by the oracle",
        opts.workload,
        samples.len(),
        nproc(),
        TAIL_P * 100.0
    );
    Outcome {
        correct: !samples.is_empty(),
        attempted: samples.len() as u64,
        failed: failed.min(samples.len() as u64),
        metrics: vec![
            metric("setup_s", median(&setups), "s"),
            metric("latency_p50_ms", median(&latencies), "ms"),
            metric("latency_tail_ms", tail(&latencies, TAIL_P), "ms"),
            metric("throughput_rps", samples.len() as f64 / duration, "1/s"),
            metric("output_gates", output_gates as f64, "count"),
            metric("peak_rss_mb", median(&rss), "MB"),
        ],
    }
}

/// An `AppState` built as `popqc serve` builds it, over `store`.
fn app_state(store: Arc<dyn ResultStore>) -> AppState {
    let svc = OptimizationService::with_store(OracleRegistry::builtin(), serve_config(), store);
    AppState::new(svc, OMEGA)
}

fn serve_config() -> ServiceConfig {
    ServiceConfig {
        seg_cache_capacity: 4096,
        ..ServiceConfig::default()
    }
}

fn memory_store() -> Arc<dyn ResultStore> {
    let cfg = serve_config();
    build_store(
        StoreTier::Memory,
        None,
        None,
        cfg.cache_capacity,
        cfg.cache_shards,
    )
    .unwrap_or_else(|e| die(e))
}

/// Feeds raw request bytes through a fresh parser.
fn parse_request(bytes: &[u8]) -> Request {
    let mut parser = RequestParser::new();
    let mut pos = 0;
    loop {
        match parser.advance(&bytes[pos..]) {
            Ok((used, ParseStep::Done(req))) => {
                assert_eq!(pos + used, bytes.len(), "one request per buffer");
                return req;
            }
            Ok((used, _)) => pos += used,
            Err(e) => die(format!("request did not parse: {e}")),
        }
    }
}

/// Time of one call to `f`, in milliseconds, with its result.
fn timed_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

fn traced(opts: &Opts, work: &WorkDir, sweep: bool) -> Outcome {
    popqc_obs_defaults();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // The real server: keep-alive /healthz round trips, then a short
    // closed loop for the end-to-end median the handler is subtracted
    // from.
    let lt = start_lifetime(opts, work, 0, sweep);
    let mut client = Client::connect(&lt.server.addr);
    let mut rtt = Vec::new();
    for _ in 0..HEALTHZ_PINGS {
        let (ms, (status, _)) = timed_ms(|| client.get("/healthz"));
        attempted += 1;
        if status != 200 {
            failed += 1;
        }
        rtt.push(ms);
    }
    let hit_inputs = Arc::new(lt.hit_inputs.clone());
    let (samples, _) = closed_loop(
        &lt.server.addr,
        sweep,
        opts.seed,
        &hit_inputs,
        &Arc::new(AtomicU64::new(0)),
        Duration::from_secs_f64(opts.seconds / LIFETIMES as f64),
    );
    drop(client);
    drop(lt.server);
    let server_replies: HashMap<u64, u64> = samples
        .iter()
        .filter_map(|s| s.reply.map(|(h, _)| (s.key, h)))
        .collect();
    attempted += samples.len() as u64;
    failed += samples
        .iter()
        .filter(|s| s.status != 200 || s.reply.is_none())
        .count() as u64;
    let e2e_p50 = median(&samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>());

    // The replayed inputs and their untraced reference outputs.
    let keys: Vec<u64> = if sweep {
        (0..REPLAY_REQUESTS).collect()
    } else {
        (0..REPLAY_REQUESTS).map(|k| k % 8).collect()
    };
    let reference = reference_outputs(opts, work, sweep, &keys, &work.path("in0"));
    let inputs: Vec<Input> = keys.iter().map(|k| reference[k].1.clone()).collect();
    let warmup: Vec<Input> = if sweep {
        (0..SWEEP_WARMUP)
            .map(|j| sweep_input(opts.seed, warmup_key(0, j)))
            .collect()
    } else {
        (*hit_inputs).clone()
    };
    let requests: Vec<Vec<u8>> = inputs
        .iter()
        .map(|i| optimize_request(&i.qasm, query(sweep)))
        .collect();

    // Handler replay, with and without the store wrapper.
    let timed_store = Arc::new(TimedStore::new(memory_store()));
    let wrapped = app_state(Arc::clone(&timed_store) as Arc<dyn ResultStore>);
    let bare = app_state(memory_store());
    for state in [&wrapped, &bare] {
        for w in &warmup {
            let resp = state.handle(&parse_request(&optimize_request(&w.qasm, query(sweep))));
            if resp.status != 200 {
                die(format!("a warm-up request answered {}", resp.status));
            }
        }
    }
    timed_store.reset();
    let seg_before = wrapped.service().stats().seg_cache;
    let (mut parse, mut handle, mut write) = (Vec::new(), Vec::new(), Vec::new());
    let mut replies = Vec::new();
    let mut wrapped_total = 0.0;
    for bytes in &requests {
        let (p, req) = timed_ms(|| parse_request(bytes));
        let (h, resp) = timed_ms(|| wrapped.handle(&req));
        let mut wire = Vec::with_capacity(resp.body.len() + 256);
        let (w, io) = timed_ms(|| resp.write_to(&mut wire, true));
        io.unwrap_or_else(|e| die(e));
        wrapped_total += p + h + w;
        parse.push(p);
        handle.push(h);
        write.push(w);
        replies.push((resp.status, scan_reply(&resp.body)));
    }
    let seg_after = wrapped.service().stats().seg_cache;
    let mut bare_total = 0.0;
    for bytes in &requests {
        let t0 = Instant::now();
        let req = parse_request(bytes);
        let resp = bare.handle(&req);
        let mut wire = Vec::with_capacity(resp.body.len() + 256);
        resp.write_to(&mut wire, true).unwrap_or_else(|e| die(e));
        bare_total += t0.elapsed().as_secs_f64() * 1e3;
    }

    // The handler's parts, timed one by one on a third service in the
    // same state, so a store write in one cannot turn into a hit in the
    // other.
    let parts = app_state(memory_store());
    for w in &warmup {
        let job = JobRequest {
            circuit: w.circuit.clone(),
            oracle: sweep.then(|| "structural".to_string()),
            config: PopqcConfig::with_omega(OMEGA),
        };
        parts
            .service()
            .submit_request(job)
            .unwrap_or_else(|e| die(e))
            .wait();
    }
    let (mut qparse, mut fp, mut job, mut ser, mut emit, mut untimed) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for (i, input) in inputs.iter().enumerate() {
        let (a, circuit) = timed_ms(|| qasm::parse(&input.qasm).unwrap_or_else(|e| die(e)));
        let (b, _) = timed_ms(|| std::hint::black_box(circuit.fingerprint()));
        let request = JobRequest {
            circuit,
            oracle: sweep.then(|| "structural".to_string()),
            config: PopqcConfig::with_omega(OMEGA),
        };
        let (c, result) = timed_ms(|| {
            parts
                .service()
                .submit_request(request)
                .unwrap_or_else(|e| die(e))
                .wait()
        });
        let (d, _) = timed_ms(|| {
            serde_json::to_string(
                &job_status(1, None, result.stats.rounds, Some(&result)).to_json(),
            )
            .expect("serialize")
        });
        let (e, _) = timed_ms(|| qasm::to_qasm(&result.circuit));
        qparse.push(a);
        fp.push(b);
        job.push(c);
        ser.push(d);
        emit.push(e);
        untimed.push(handle[i] - (a + c + d));
    }

    // The untraced outputs against their inputs (as on the untraced run,
    // for the first 8 distinct inputs).
    let registry = OracleRegistry::builtin();
    let (_, oracle) = registry
        .resolve(Some(if sweep { "structural" } else { "rule_based" }))
        .expect("builtin oracle");
    let mut improvable = 0;
    for k in 0..8 {
        let (text, input) = &reference[&k];
        attempted += 1;
        match check_output(
            &input.circuit,
            text,
            oracle.as_ref(),
            derive_seed(opts.seed, k),
        ) {
            Ok(c) => improvable += c.improvable_windows,
            Err(e) => {
                eprintln!("{}: input {k}: {e}", opts.workload);
                failed += 1;
            }
        }
    }
    values.insert("core.improvable_windows".to_string(), improvable as f64);

    // Output checks: every replayed reply against the untraced outputs.
    for (i, (status, reply)) in replies.iter().enumerate() {
        attempted += 1;
        let expected = hash64(reference[&keys[i]].0.as_bytes());
        let server = server_replies.get(&keys[i]).copied();
        let ok = *status == 200
            && reply.as_ref().is_some_and(|(q, _)| {
                let h = hash64(q.as_bytes());
                h == expected && server.is_none_or(|s| s == h)
            });
        if !ok {
            eprintln!(
                "{}: replayed request {i} differs from the untraced run",
                opts.workload
            );
            failed += 1;
        }
    }

    let store_get: Vec<f64> = timed_store
        .get_ns
        .lock()
        .unwrap()
        .iter()
        .map(|&n| n as f64 / 1e6)
        .collect();
    let store_put: Vec<f64> = timed_store
        .put_ns
        .lock()
        .unwrap()
        .iter()
        .map(|&n| n as f64 / 1e6)
        .collect();
    let handle_p50 = median(&handle);
    for (k, v) in [
        ("qnet.healthz_rtt_ms", median(&rtt)),
        ("qnet.outside_handler_ms", e2e_p50 - handle_p50),
        ("qhttp.parse_ms", median(&parse)),
        ("qhttp.handle_ms", handle_p50),
        ("qhttp.write_ms", median(&write)),
        ("qhttp.handle_untimed_ms", median(&untimed)),
        ("qcir.qasm_parse_ms", median(&qparse)),
        ("qcir.fingerprint_ms", median(&fp)),
        ("qcir.qasm_emit_ms", median(&emit)),
        ("qapi.serialize_ms", median(&ser)),
        ("qsvc.store_get_ms", median(&store_get)),
        ("qsvc.store_put_ms", median(&store_put)),
        ("qsvc.store_hits", timed_store.hits.load(Relaxed) as f64),
        ("qsvc.store_misses", timed_store.misses.load(Relaxed) as f64),
        ("qsvc.job_ms", median(&job)),
        (
            "qsvc.segcache_hits",
            (seg_after.hits - seg_before.hits) as f64,
        ),
        (
            "qsvc.segcache_misses",
            (seg_after.misses - seg_before.misses) as f64,
        ),
        ("replay.wrapped_s", wrapped_total / 1e3),
        ("replay.bare_s", bare_total / 1e3),
    ] {
        values.insert(k.to_string(), v);
    }

    if sweep {
        let (a, f) = engine_replay(&inputs, &warmup, &reference, &keys, &mut values);
        attempted += a;
        failed += f;
    }
    Outcome {
        correct: true,
        attempted,
        failed,
        metrics: layer_metrics(&values),
    }
}

/// The sweep's engine work replayed directly: the structural oracle and
/// a segment-cache layer warmed like the server's, each behind a timing
/// wrapper, at engine width 1 (the server's default on this box).
fn engine_replay(
    inputs: &[Input],
    warmup: &[Input],
    reference: &HashMap<u64, (String, Input)>,
    keys: &[u64],
    values: &mut BTreeMap<String, f64>,
) -> (u64, u64) {
    let registry = OracleRegistry::builtin();
    let (id, oracle) = registry
        .resolve(Some("structural"))
        .expect("builtin oracle");
    let cfg = PopqcConfig::with_omega(OMEGA);
    let layer = SegmentCacheLayer::new(
        serve_config().seg_cache_capacity,
        serve_config().cache_shards,
    );
    for w in warmup {
        let hook = layer.for_job(&id, oracle.as_ref());
        optimize_circuit_cached(&w.circuit, oracle.as_ref(), &cfg, &(), &hook);
    }
    let timed = TimedOracle::new(oracle.as_ref());
    let before = popqc::exec::stats();
    let (mut engine, mut seg_ns, mut rounds, mut segments, mut accepted) =
        (0.0, 0u64, 0u64, 0u64, 0u64);
    let mut lookups = Vec::new();
    let mut failed = 0u64;
    for (i, input) in inputs.iter().enumerate() {
        let hook = TimedHook::new(layer.for_job(&id, oracle.as_ref()));
        let counter = RoundCounter::default();
        let (ms, (out, stats)) = timed_ms(|| {
            popqc::exec::with_width(1, || {
                optimize_circuit_cached(&input.circuit, &timed, &cfg, &counter, &hook)
            })
        });
        engine += ms / 1e3;
        let busy = hook.busy_ns.load(Relaxed);
        seg_ns += busy;
        lookups.push(busy as f64 / 1e6);
        rounds += counter.rounds.load(Relaxed);
        segments += stats.oracle_calls + stats.seg_cache_hits;
        accepted += counter.accepted.load(Relaxed);
        if qasm::to_qasm(&out) != reference[&keys[i]].0 {
            eprintln!("serve_sweep: the engine replay of input {i} differs from the untraced run");
            failed += 1;
        }
    }
    let exec = popqc::exec::stats().delta_since(&before);
    let calls: Vec<f64> = timed.take_calls().iter().map(|&n| n as f64 / 1e3).collect();
    let busy_s = calls.iter().sum::<f64>() / 1e6;
    let self_s = (engine - busy_s - seg_ns as f64 / 1e9).max(0.0);
    for (k, v) in [
        ("qsvc.segcache_lookup_ms", median(&lookups)),
        ("core.engine_s.w1", engine),
        ("core.self_s.w1", self_s),
        ("core.outside_oracle_share.w1", self_s / engine),
        ("core.rounds.w1", rounds as f64),
        ("core.segments.w1", segments as f64),
        (
            "core.accept_ratio.w1",
            accepted as f64 / segments.max(1) as f64,
        ),
        ("qoracle.calls.w1", calls.len() as f64),
        ("qoracle.busy_s.w1", busy_s),
        ("qoracle.call_p50_us.w1", median(&calls)),
        ("qoracle.call_p99_us.w1", quantile(&calls, 0.99)),
        ("qexec.parallel_ops.w1", exec.parallel_ops as f64),
        ("qexec.tasks.w1", exec.tasks_executed as f64),
        ("qexec.splits.w1", exec.splits as f64),
        ("qexec.steals.w1", exec.steals as f64),
    ] {
        values.insert(k.to_string(), v);
    }
    (inputs.len() as u64, failed)
}

/// The tracer configured as `popqc serve` configures it by default.
fn popqc_obs_defaults() {
    qobs::trace::configure(256, Duration::from_millis(1000), 16);
}
