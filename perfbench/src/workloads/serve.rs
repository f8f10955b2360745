//! `serve_mixed`: an in-process durable `slif-serve` (fresh store
//! directory, 2 connection workers, 2 runtime workers) driven in a closed
//! loop by one keep-alive client connection over a seeded clean mix:
//! `/v1/{parse,estimate,explore,analyze}` over the corpus and a ~1k-node
//! synthetic spec, `POST /designs` then `GET /designs/{hash}` in both
//! encodings, and `POST /sessions` plus `/sessions/{id}/edit`. Each
//! request is one op. Binding the server and one warm-up request per
//! spec and design (so the design cache holds every spec) are set-up.
//!
//! Clients record a fingerprint of each response and nothing else while
//! the clock runs; every body is checked afterwards against the same
//! request run in-process: `wire::job_for` + `Job::run_inline` +
//! `render_output` for jobs, `write_bytes` of the posted design for
//! exports, and a mirror `EditSession` for session traffic.
//!
//! A request passes through the client's and the server's threads, so the
//! host-speed correction the other workloads apply per op (thread CPU
//! time, rescaled by the reference kernel) does not fit. The run is cut
//! into 250 ms rounds instead; between rounds the client parks and the
//! kernel is read on the idle server. Each round is rescaled by
//! [`shared_scale`]: of the client's time, the share this process computed
//! is rescaled by the kernel, the share the host stole is dropped, and the
//! share spent waiting on fsyncs and wake-ups is kept. A request's latency
//! is multiplied by its round's scale, and the set-up time by the run's
//! mean scale.

use crate::calib::{process_cpu_s, shared_scale};
use crate::inputs::{near, serve_plan, synth_spec, GenSpec, ServeReq, EXPLORE_SEEDS, SERVE_KINDS};
use crate::rng::Rng;
use crate::stats::{cpu_ticks, fnv64, median, ms, percentile, tail};
use crate::trace::Tracer;
use crate::{repeated_setup, Config, Outcome, Plant};
use slif_core::{Design, Partition};
use slif_formats::{write_bytes, Encoding};
use slif_frontend::{all_software_partition, allocate_proc_asic, build_design};
use slif_runtime::{Job, JobOutput, RunLimits, ServiceConfig};
use slif_serve::durable::{DurableRequest, DurableStore};
use slif_serve::server::{Server, ServerConfig};
use slif_serve::session::{render_update, SessionLimits};
use slif_serve::wire::{job_for, render_output, Endpoint, WireParams};
use slif_session::{EditDelta, EditSession, SessionConfig};
use slif_speclang::{corpus, parse, resolve};
use slif_store::{encode_design, ContentKey};
use slif_techlib::TechnologyLibrary;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections (and so closed-loop concurrency). One request at a
/// time leaves a vCPU free for the server's hand-offs; with two, both
/// vCPUs were busy and a request's latency followed every other load on
/// the machine (see the README's Host-speed correction).
const CLIENTS: usize = 1;
/// The server's connection workers and runtime workers, each.
const SERVER_WORKERS: usize = 2;
/// Requested exploration iterations per `/v1/explore`.
const EXPLORE_ITERATIONS: u64 = 64;
/// The server's exploration-iteration cap (its default).
const MAX_ITERATIONS: u64 = 10_000;
/// Journal accept+finish pairs in the store replay.
const JOURNAL_PAIRS: usize = 64;
/// Length of a round of client traffic between host-clock readings.
const ROUND: Duration = Duration::from_millis(250);

/// Everything the plan refers to by index.
struct Inputs {
    specs: Vec<String>,
    designs: Vec<(Design, Vec<u8>)>,
    sessions: Vec<GenSpec>,
    plans: Vec<Vec<ServeReq>>,
}

fn inputs(cfg: &Config) -> Inputs {
    let mut rng = Rng::new(cfg.seed, 5);
    let mut specs: Vec<String> = corpus::all().iter().map(|e| e.source.to_owned()).collect();
    let target = near(&mut rng, cfg.sizes.serve_nodes);
    specs.push(synth_spec(&mut rng, target).source);
    let lib = TechnologyLibrary::proc_asic();
    let designs = specs
        .iter()
        .map(|src| {
            let rs = resolve(parse(src).expect("serving spec parses")).expect("and resolves");
            let mut design = build_design(&rs, &lib);
            let arch = allocate_proc_asic(&mut design);
            let partition: Partition = all_software_partition(&design, arch);
            let slifb = write_bytes(&design, Some(&partition), Encoding::Binary)
                .expect("a built design encodes");
            (design, slifb)
        })
        .collect();
    let sessions: Vec<GenSpec> = (0..2)
        .map(|_| {
            let target = near(&mut rng, cfg.sizes.session_nodes);
            synth_spec(&mut rng, target)
        })
        .collect();
    let plans = (0..CLIENTS)
        .map(|_| {
            serve_plan(
                &mut rng,
                cfg.sizes.serve_plan,
                specs.len(),
                specs.len(),
                &sessions,
            )
        })
        .collect();
    Inputs {
        specs,
        designs,
        sessions,
        plans,
    }
}

fn path(endpoint: Endpoint) -> &'static str {
    match endpoint {
        Endpoint::Parse => "/v1/parse",
        Endpoint::Estimate => "/v1/estimate",
        Endpoint::Explore => "/v1/explore",
        Endpoint::Analyze => "/v1/analyze",
    }
}

/// An HTTP/1.1 request with a body.
fn post(path: &str, headers: &str, body: &[u8]) -> Vec<u8> {
    let mut r = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n{headers}\r\n",
        body.len()
    )
    .into_bytes();
    r.extend_from_slice(body);
    r
}

/// A keep-alive client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one request and reads its response: status and body.
    fn send(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse().map_err(std::io::Error::other)?;
                }
            }
        }
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// A running server with its store directory.
struct Running {
    server: Server,
    dir: PathBuf,
}

impl Running {
    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Binds a fresh durable server and warms it: one estimate per spec (the
/// design cache fills) and one post per design (every later GET hits).
fn start(cfg: &Config, inputs: &Inputs, n: &mut u32) -> Running {
    *n += 1;
    let dir = cfg.work_dir.join(format!("store{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(
        ServerConfig::new()
            .with_conn_workers(SERVER_WORKERS)
            .with_runtime(ServiceConfig::new().with_workers(SERVER_WORKERS))
            .with_store_dir(&dir)
            .with_session_limits(SessionLimits {
                max_per_tenant: 4096,
                idle_ttl: Duration::from_secs(1),
            }),
    )
    .expect("bind the benchmark server");
    let mut conn = Conn::open(server.addr()).expect("connect for warm-up");
    for spec in &inputs.specs {
        let (status, _) = conn
            .send(&post("/v1/estimate", "", spec.as_bytes()))
            .expect("warm-up estimate");
        assert_eq!(status, 200, "warm-up estimate refused");
    }
    for (_, slifb) in &inputs.designs {
        let (status, _) = conn
            .send(&post("/designs", "", slifb))
            .expect("warm-up post");
        assert_eq!(status, 201, "warm-up design post refused");
    }
    Running { server, dir }
}

/// Expected status and body fingerprint of every non-session request,
/// plus the designs' content keys.
struct Expected {
    jobs: HashMap<(u8, usize, u64), (u16, u64)>,
    posts: Vec<(u16, u64)>,
    gets: Vec<[(u16, u64); 2]>,
    keys: Vec<String>,
    /// Microseconds the in-process run took, per request kind key.
    inline_us: HashMap<(u8, usize, u64), f64>,
    post_us: Vec<f64>,
    get_us: Vec<[f64; 2]>,
}

fn expected(inputs: &Inputs, tr: &mut Tracer) -> Expected {
    let limits = RunLimits::default();
    let mut e = Expected {
        jobs: HashMap::new(),
        posts: Vec::new(),
        gets: Vec::new(),
        keys: Vec::new(),
        inline_us: HashMap::new(),
        post_us: Vec::new(),
        get_us: Vec::new(),
    };
    for (spec, source) in inputs.specs.iter().enumerate() {
        for v in Endpoint::ALL {
            let seeds = if v == Endpoint::Explore {
                EXPLORE_SEEDS
            } else {
                1
            };
            for seed in 0..seeds {
                let params = WireParams {
                    seed,
                    iterations: EXPLORE_ITERATIONS,
                };
                let job = job_for(v, source, &params, &limits, MAX_ITERATIONS)
                    .expect("a serving spec builds a job");
                let start = Instant::now();
                let output = tr
                    .time("runtime.inline", || job.run_inline(&limits))
                    .expect("a serving job runs");
                e.inline_us
                    .insert((v.code(), spec, seed), start.elapsed().as_secs_f64() * 1e6);
                let body = render_output(&output);
                e.jobs
                    .insert((v.code(), spec, seed), (200, fnv64(body.as_bytes())));
            }
        }
    }
    for (design, slifb) in &inputs.designs {
        let job = Job::Import {
            bytes: slifb.clone(),
        };
        let start = Instant::now();
        let output = tr
            .time("runtime.inline", || job.run_inline(&limits))
            .expect("a posted design imports");
        e.post_us.push(start.elapsed().as_secs_f64() * 1e6);
        let JobOutput::Imported { design: got, .. } = &output else {
            panic!("an import job returns an imported design");
        };
        let key = ContentKey::of(&encode_design(got)).to_hex();
        let body = format!("design {key}\n{}", render_output(&output));
        e.posts.push((201, fnv64(body.as_bytes())));
        e.keys.push(key);
        let mut gets = [(0, 0); 2];
        let mut us = [0.0; 2];
        for (i, encoding) in [Encoding::Text, Encoding::Binary].into_iter().enumerate() {
            let job = Job::Export {
                design: design.clone(),
                partition: None,
                encoding,
            };
            let start = Instant::now();
            tr.time("runtime.inline", || job.run_inline(&limits))
                .expect("a design exports");
            us[i] = start.elapsed().as_secs_f64() * 1e6;
            let bytes = write_bytes(design, None, encoding).expect("a design encodes");
            gets[i] = (200, fnv64(&bytes));
        }
        e.gets.push(gets);
        e.get_us.push(us);
    }
    e
}

/// One response as the client saw it.
struct Record {
    /// Index into the client's plan.
    req: usize,
    status: u16,
    hash: u64,
    /// Wall-clock milliseconds.
    ms: f64,
    /// The round the request ran in.
    round: usize,
    /// For session traffic: which of the client's sessions.
    session: Option<usize>,
}

/// A session a client opened, with the id the server gave it.
struct SessionLog {
    spec: usize,
    id: u64,
}

/// What one client did while the clock ran.
struct ClientRun {
    records: Vec<Record>,
    sessions: Vec<SessionLog>,
    error: Option<String>,
}

fn session_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.strip_prefix("{\"session\":")?;
    rest[..rest.find(',')?].parse().ok()
}

/// The run's schedule. It is cut into rounds; between two rounds the
/// clients park at the gate and the main thread reads the host clock on
/// an idle server, so the readings follow the host through the run but
/// do not measure the run's own load.
struct Rounds {
    began: Instant,
    count: usize,
    gate: Barrier,
}

impl Rounds {
    fn end(&self, round: usize) -> Instant {
        self.began + ROUND * (round as u32 + 1)
    }
}

/// The closed loop of one client, round by round; returns what it did
/// and its spans.
fn client(
    addr: SocketAddr,
    plan: &[ServeReq],
    inputs: &Inputs,
    keys: &[String],
    rounds: &Rounds,
    mut tracer: Tracer,
    plant: bool,
) -> (ClientRun, Tracer) {
    let prebuilt: Vec<Option<Vec<u8>>> = plan
        .iter()
        .map(|req| match req {
            ServeReq::Job {
                endpoint,
                spec,
                seed,
            } => Some(post(
                path(*endpoint),
                &format!("x-slif-seed: {seed}\r\nx-slif-iterations: {EXPLORE_ITERATIONS}\r\n"),
                inputs.specs[*spec].as_bytes(),
            )),
            ServeReq::DesignPost { design } => {
                Some(post("/designs", "", &inputs.designs[*design].1))
            }
            ServeReq::DesignGet { design, binary } => Some(
                format!(
                    "GET /designs/{} HTTP/1.1\r\nhost: bench\r\naccept: {}\r\n\r\n",
                    keys[*design],
                    if *binary {
                        "application/octet-stream"
                    } else {
                        "text/plain"
                    }
                )
                .into_bytes(),
            ),
            ServeReq::SessionOpen { spec } => Some(post(
                "/sessions",
                "",
                inputs.sessions[*spec].source.as_bytes(),
            )),
            ServeReq::SessionEdit { .. } => None,
        })
        .collect();
    let mut run = ClientRun {
        records: Vec::new(),
        sessions: Vec::new(),
        error: None,
    };
    let mut conn = Conn::open(addr);
    if let Err(e) = &conn {
        run.error = Some(format!("connect: {e}"));
    }
    let mut i = 0usize;
    let mut planted = false;
    let mut round = 0;
    rounds.gate.wait();
    while round < rounds.count {
        let Ok(conn) = conn.as_mut() else {
            round = park(rounds, round);
            continue;
        };
        if run.error.is_some() || Instant::now() >= rounds.end(round) {
            round = park(rounds, round);
            continue;
        }
        let req = i % plan.len();
        i += 1;
        let edit_request;
        let (request, session) = match (&plan[req], &prebuilt[req]) {
            (ServeReq::SessionEdit { start, end, text }, _) => {
                let Some(current) = run.sessions.last() else {
                    continue;
                };
                edit_request = post(
                    &format!("/sessions/{}/edit", current.id),
                    &format!("x-slif-edit-start: {start}\r\nx-slif-edit-end: {end}\r\n"),
                    text.as_bytes(),
                );
                (&edit_request, Some(run.sessions.len() - 1))
            }
            (ServeReq::SessionOpen { .. }, Some(r)) => (r, Some(run.sessions.len())),
            (_, Some(r)) => (r, None),
            (_, None) => unreachable!("only edits are built on the fly"),
        };
        tracer.set_op(i as u64);
        let span = tracer.begin("op");
        let start = Instant::now();
        let sent = tracer.time("serve.http", || conn.send(request));
        let elapsed = start.elapsed();
        tracer.end(span);
        let (status, mut body) = match sent {
            Ok(r) => r,
            Err(e) => {
                run.error = Some(format!("request {req}: {e}"));
                continue;
            }
        };
        if let ServeReq::SessionOpen { spec } = plan[req] {
            match session_id(&body) {
                Some(id) => run.sessions.push(SessionLog { spec, id }),
                None => {
                    run.error = Some(format!("request {req}: no session id in the response"));
                    continue;
                }
            }
        }
        if plant && !planted && matches!(plan[req], ServeReq::Job { .. }) && !body.is_empty() {
            planted = true;
            body[0] ^= 0x20;
        }
        run.records.push(Record {
            req,
            status,
            hash: fnv64(&body),
            ms: ms(elapsed),
            round,
            session,
        });
    }
    (run, tracer)
}

/// Parks at the end of `round` while the host clock is read; returns the
/// next round.
fn park(rounds: &Rounds, round: usize) -> usize {
    rounds.gate.wait();
    rounds.gate.wait();
    round + 1
}

/// The machine's vCPUs.
fn vcpus() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// Reads `/metrics` into name → value.
fn metrics(addr: SocketAddr) -> HashMap<String, f64> {
    let mut conn = Conn::open(addr).expect("connect for metrics");
    let (_, body) = conn
        .send(b"GET /metrics HTTP/1.1\r\nhost: bench\r\n\r\n")
        .expect("read metrics");
    String::from_utf8_lossy(&body)
        .lines()
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// Replays one client's session traffic on mirror sessions and returns
/// the problems found; fills `open_us`/`edit_us` with the mirror times.
fn check_sessions(
    c: usize,
    plan: &[ServeReq],
    inputs: &Inputs,
    run: &ClientRun,
    open_us: &mut Vec<f64>,
    edit_us: &mut Vec<f64>,
) -> HashMap<usize, String> {
    let mut problems = HashMap::new();
    // Edits only ever go to a client's newest session, so one mirror
    // suffices.
    let mut mirror: Option<EditSession> = None;
    for (r, rec) in run.records.iter().enumerate() {
        let Some(slot) = rec.session else { continue };
        let log = &run.sessions[slot];
        let start = Instant::now();
        let (update, expected_status) = match &plan[rec.req] {
            ServeReq::SessionOpen { .. } => {
                let (session, update) = EditSession::open(
                    inputs.sessions[log.spec].source.clone(),
                    SessionConfig::default(),
                );
                open_us.push(start.elapsed().as_secs_f64() * 1e6);
                mirror = Some(session);
                (Ok(update), 201)
            }
            ServeReq::SessionEdit {
                start: s,
                end,
                text,
            } => {
                let session = mirror.as_mut().expect("an edit follows its session's open");
                let update = session.apply_edit(&EditDelta::new(*s, *end, text.clone()));
                edit_us.push(start.elapsed().as_secs_f64() * 1e6);
                (update, 200)
            }
            _ => unreachable!("only session requests carry a session slot"),
        };
        let expected = update.map(|u| fnv64(render_update(log.id, &u).as_bytes()));
        if rec.status != expected_status || expected.as_ref().ok() != Some(&rec.hash) {
            problems.insert(
                r,
                format!(
                    "client {c} request {}: {} answered {} with a body unlike the mirror session's",
                    rec.req,
                    plan[rec.req].kind(),
                    rec.status
                ),
            );
        }
    }
    problems
}

/// Median microseconds of one accepted-and-finished journal pair.
fn journal_pair_us(dir: &Path, inputs: &Inputs) -> f64 {
    let (store, _) = DurableStore::open(dir).expect("open a replay store");
    let source = &inputs.specs[0];
    let body = vec![b'x'; 512];
    let times: Vec<f64> = (0..JOURNAL_PAIRS)
        .map(|i| {
            let request = DurableRequest {
                endpoint: Endpoint::Estimate,
                params: WireParams {
                    seed: i as u64,
                    iterations: EXPLORE_ITERATIONS,
                },
                tenant: 0,
                weight: 1,
                source: source.clone(),
            };
            let start = Instant::now();
            let id = store.accept(&request).expect("journal accepts");
            store.finish(id, 200, body.clone());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Runs the workload.
pub fn run(cfg: &Config, epoch: Instant) -> Outcome {
    let mut out = Outcome::new(cfg.trace, epoch);
    let inputs = inputs(cfg);
    let mut starts = 0;
    let (running, setup) = repeated_setup(
        &cfg.sizes,
        &mut out.clock,
        || start(cfg, &inputs, &mut starts),
        Running::stop,
    );
    let expected = expected(&inputs, &mut out.tracer);
    let addr = running.server.addr();
    out.clock.reading();
    let rounds = Rounds {
        began: Instant::now(),
        count: (cfg.seconds / ROUND.as_secs_f64()).ceil().max(1.0) as usize,
        gate: Barrier::new(CLIENTS + 1),
    };
    let (mut round_s, mut factors) = (Vec::new(), Vec::new());
    let ticks_before = cpu_ticks();
    let cpu_before = process_cpu_s();
    let runs: Vec<(ClientRun, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let (inputs, keys, rounds) = (&inputs, &expected.keys, &rounds);
                let tracer = Tracer::new(cfg.trace, epoch);
                let plant = c == 0 && cfg.plant == Some(Plant::FlipResponseByte);
                s.spawn(move || client(addr, plan, inputs, keys, rounds, tracer, plant))
            })
            .collect();
        rounds.gate.wait();
        let mut round_start = Instant::now();
        for _ in 0..rounds.count {
            rounds.gate.wait();
            round_s.push(round_start.elapsed().as_secs_f64());
            out.clock.reading();
            factors.push(out.clock.factor());
            rounds.gate.wait();
            round_start = Instant::now();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    out.busy_s = round_s.iter().sum();
    // The closed loop keeps one request per client in flight, each passing
    // from thread to thread, so the shares are of the clients' time: the
    // process's CPU time and the vCPU time the host stole, over clients
    // times the run's wall time. (Taken over the vCPUs' time instead, the
    // steal a lone client suffers counted half, and runs with a quarter of
    // the vCPUs' time stolen came out up to 15% slower than one with a
    // twentieth.)
    let chains_s = CLIENTS as f64 * out.busy_s;
    let computed = (process_cpu_s() - cpu_before) / chains_s;
    let ticks_after = cpu_ticks();
    let stolen = (ticks_after.0 - ticks_before.0) / (ticks_after.1 - ticks_before.1).max(1.0)
        * vcpus()
        * out.busy_s
        / chains_s;
    let scales: Vec<f64> = factors
        .iter()
        .map(|&f| shared_scale(computed, stolen, f))
        .collect();
    out.ref_busy_s = round_s.iter().zip(&scales).map(|(s, k)| s * k).sum();
    let scale = out.ref_busy_s / out.busy_s;
    // Set-up runs on the server's threads too, just before the run.
    out.setup_s = setup.raw_s * scale;
    let server_metrics = metrics(addr);
    running.stop();

    let mut latencies: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut open_us, mut edit_us) = (Vec::new(), Vec::new());
    for (c, (run, tracer)) in runs.into_iter().enumerate() {
        let plan = &inputs.plans[c];
        if let Some(e) = &run.error {
            out.fail_late(format!("client {c}: {e}"));
        }
        let mut session_problems =
            check_sessions(c, plan, &inputs, &run, &mut open_us, &mut edit_us);
        for (r, rec) in run.records.iter().enumerate() {
            let req = &plan[rec.req];
            latencies
                .entry(req.kind())
                .or_default()
                .push(rec.ms * scales[rec.round]);
            out.ops_ms.push(rec.ms * scales[rec.round]);
            out.work += 1.0;
            let want = match req {
                ServeReq::Job {
                    endpoint,
                    spec,
                    seed,
                } => Some(expected.jobs[&(endpoint.code(), *spec, *seed)]),
                ServeReq::DesignPost { design } => Some(expected.posts[*design]),
                ServeReq::DesignGet { design, binary } => {
                    Some(expected.gets[*design][usize::from(*binary)])
                }
                _ => None,
            };
            let mut problems = Vec::new();
            if let Some((status, hash)) = want {
                if (rec.status, rec.hash) != (status, hash) {
                    problems.push(format!(
                        "client {c} request {}: {} answered {} with a body unlike the in-process run",
                        rec.req,
                        req.kind(),
                        rec.status
                    ));
                }
            }
            problems.extend(session_problems.remove(&r));
            out.judge(problems);
        }
        out.tracer.absorb(tracer);
    }
    let metric = |name: &str| server_metrics.get(name).copied().unwrap_or(0.0);
    let (jobs_shed, conns_shed) = (
        metric("slif_jobs_shed_total"),
        metric("slif_connections_shed_total"),
    );
    if jobs_shed + conns_shed > 0.0 {
        out.fail_late(format!(
            "the server shed {jobs_shed} jobs and {conns_shed} connections"
        ));
    }
    let (label, tail_ms) = tail(&out.ops_ms);
    out.summary.push(format!(
        "serve_mixed: {CLIENTS} client closed loop, serve_rps {:.1}, serve_p50_ms {:.3}, \
         serve_{label}_ms {:.3} (n={}) at reference speed ({:.1} rps wall-clock; of the client's \
         time {:.3} computed, {:.3} stolen; mean scale {:.3}), failed_share {:.4}",
        out.rates().1,
        median(&out.ops_ms),
        tail_ms,
        out.ops_ms.len(),
        out.rates().0,
        computed,
        stolen,
        scale,
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    if cfg.trace {
        // Inline times weighted by how often the plan asks for each request.
        let mut inline: HashMap<&str, Vec<f64>> = HashMap::new();
        for req in &inputs.plans[0] {
            let us = match req {
                ServeReq::Job {
                    endpoint,
                    spec,
                    seed,
                } => expected.inline_us[&(endpoint.code(), *spec, *seed)],
                ServeReq::DesignPost { design } => expected.post_us[*design],
                ServeReq::DesignGet { design, binary } => {
                    expected.get_us[*design][usize::from(*binary)]
                }
                _ => continue,
            };
            inline.entry(req.kind()).or_default().push(us);
        }
        inline.insert("session_open", open_us);
        inline.insert("session_edit", edit_us);
        let journal_dir = cfg.work_dir.join("journal-replay");
        let journal_us = out.tracer.time("store.journal_pair", || {
            journal_pair_us(&journal_dir, &inputs)
        });
        let l = &mut out.layers;
        for kind in SERVE_KINDS {
            let lat = latencies.get(kind).map_or(&[][..], Vec::as_slice);
            l.put(format!("serve.{kind}_p50_ms"), median(lat), "ms");
            l.put(format!("serve.{kind}_p99_ms"), percentile(lat, 0.99), "ms");
            let us = inline.get(kind).map_or(&[][..], Vec::as_slice);
            l.put(format!("runtime.inline_{kind}_us"), median(us), "us");
        }
        let hits = metric("slif_store_cache_hits_total");
        let misses = metric("slif_store_cache_misses_total");
        l.put(
            "store.cache_hit_share",
            hits / (hits + misses).max(1.0),
            "share",
        );
        l.put("store.journal_pair_us", journal_us, "us");
        l.put("runtime.jobs_shed", jobs_shed, "count");
        l.put("serve.connections_shed", conns_shed, "count");
    }
    out
}
