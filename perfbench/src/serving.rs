//! The HTTP workloads: `serve-mixed` (an in-process server with a
//! pre-filled durable store, hit/miss/upload traffic side by side) and
//! `grid-sweep` (Fig. 11-shaped `POST /v1/sweeps` grids).

use crate::report::{Report, Samples, Usage};
use crate::sim::{self, check_upload, end_to_end, record_trace, Expect, Rates, SETUPS};
use crate::{layers, mix, own_snap_hash, Ctx};
use hmm_serve::client::{self, HttpResponse};
use hmm_serve::metrics::ServerMetrics;
use hmm_serve::request::{canonical_json, parse_body, Limits};
use hmm_serve::response::render_run;
use hmm_serve::{Server, ServerConfig, Store};
use hmm_simulator::driver::{run, RunConfig, TraceRef};
use hmm_simulator::experiments::run_grid;
use hmm_sweep::aggregate::figures_doc;
use hmm_sweep::expand;
use hmm_telemetry::jsonin;
use hmm_workloads::replay;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Results pre-filled into the `serve-mixed` store, as many as the
/// server's result cache holds, so that every set-up rehydrates a full
/// cache; the hit traffic cycles through the first [`HOT`] of them.
const PREFILLED: usize = 256;
const HOT: usize = 32;
/// Operations per round of the `serve-mixed` write and read clients.
const WRITE_OPS_PER_ROUND: usize = 4;
const SERVE_HITS_PER_ROUND: usize = 10;
/// Hit passes over the cells and uploads per `grid-sweep` round.
const GRID_HIT_PASSES: usize = 64;
const GRID_UPLOADS_PER_ROUND: usize = 4;
/// Checkpoint cadence of the `serve-mixed` server, in accesses.
const SNAPSHOT_EVERY: u64 = 20_000;
/// Poll period while a sweep runs: far below a sweep's duration, so it
/// cannot quantise the measured time.
const POLL: Duration = Duration::from_millis(2);

/// Accesses of a `serve-mixed` miss and of a trace simulation.
const MISS_ACCESSES: u64 = 60_000;
const TRACE_ACCESSES: u64 = 20_000;

/// A fresh fine-page simulation: what `serve-mixed` misses ask for.
pub fn miss_cfg(seed: u64) -> RunConfig {
    RunConfig { accesses: MISS_ACCESSES, warmup: 6_000, ..sim::finepage_cfg(seed) }
}

fn prefilled_cfg(seed: u64) -> RunConfig {
    RunConfig { accesses: 5_000, warmup: 500, ..sim::finepage_cfg(seed) }
}

/// The simulation a trace upload is replayed with: its first 20K
/// records.
fn trace_cfg(t: TraceRef) -> RunConfig {
    RunConfig { trace: Some(t), accesses: TRACE_ACCESSES, warmup: 2_000, ..sim::finepage_cfg(0) }
}

/// The Fig. 11-shaped grid: two designs x two macro-page sizes (up to
/// the paper's 4 MB) x two workloads, 10K-access epochs. Each cell
/// crosses one epoch boundary, so the 4 MB cells swap once and copy
/// while the unit ends.
pub fn grid_spec(seed: u64) -> String {
    format!(
        "{{\"workload\":[\"mg\",\"indexer\"],\"mode\":[\"n-1\",\"live\"],\
         \"page\":[\"64K\",\"4M\"],\"interval\":10000,\"accesses\":12000,\
         \"warmup\":1200,\"scale\":4,\"seed\":{seed}}}"
    )
}

/// The grid's cells as resolved configs, in cell order, deduplicated.
pub fn grid_cells(spec: &str) -> Vec<(RunConfig, String)> {
    let limits = Limits::default();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for body in expand(spec, 1024).expect("the benchmark's spec expands") {
        let sim = parse_body(&body, &limits).expect("every cell parses");
        if seen.insert(sim.key) {
            out.push((sim.cfg, sim.canonical));
        }
    }
    out
}

/// The figures document computed in-process, apart from the server:
/// `run_grid` over the cells, the serve renderer, `figures_doc`. Also
/// returns each cell's `(canonical, body)`.
pub fn local_figures(spec: &str) -> (String, Vec<(String, String)>) {
    let cells = grid_cells(spec);
    let cfgs: Vec<RunConfig> = cells.iter().map(|c| c.0).collect();
    let (results, _) = run_grid(&cfgs);
    let bodies: Vec<(String, String)> = cells
        .into_iter()
        .zip(&results)
        .map(|((_, canon), r)| {
            let body = render_run(&canon, r);
            (canon, body)
        })
        .collect();
    let doc = figures_doc(&bodies.iter().map(|b| &b.1).collect::<Vec<_>>())
        .expect("figures over successful cells");
    (doc, bodies)
}

pub fn server_cfg(ctx: &Ctx, store: Option<&Path>) -> ServerConfig {
    ServerConfig {
        workers: ctx.host.nproc,
        conn_threads: ctx.host.nproc,
        store_dir: store.map(Path::to_path_buf),
        snapshot_every: if store.is_some() { SNAPSHOT_EVERY } else { 0 },
        queue_depth: 64,
        ..ServerConfig::default()
    }
}

/// Start the workload's server [`SETUPS`] times (each start rehydrates
/// the store), shutting down all but the last; returns the median time
/// to the first answered `/healthz` and the running server.
fn setup_server(cfg: ServerConfig) -> Result<(f64, Server), String> {
    let mut times = Samples::default();
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let t = Instant::now();
        server = Some(start(cfg.clone())?);
        times.push(t.elapsed());
    }
    Ok((times.quantile(0.5), server.expect("SETUPS >= 1")))
}

/// Start a server and wait until it answers `/healthz`.
pub fn start(cfg: ServerConfig) -> Result<Server, String> {
    let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
    let resp = get(server.local_addr(), "/healthz")?;
    if resp.status != 200 {
        return Err(format!("/healthz answered {}", resp.status));
    }
    Ok(server)
}

pub fn get(addr: SocketAddr, path: &str) -> Result<HttpResponse, String> {
    client::request(addr, "GET", path, "", TIMEOUT).map_err(|e| format!("GET {path}: {e}"))
}

pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
    client::request_bytes(addr, "POST", path, body, TIMEOUT)
        .map_err(|e| format!("POST {path}: {e}"))
}

/// A 200 response, or the failure to count.
fn ok(resp: Result<HttpResponse, String>) -> Result<HttpResponse, String> {
    match resp {
        Ok(r) if r.status == 200 => Ok(r),
        Ok(r) => Err(format!("status {}: {}", r.status, r.body.trim())),
        Err(e) => Err(e),
    }
}

fn expect_cache(r: &HttpResponse, want: &str) -> Result<(), String> {
    match r.header("x-cache") {
        Some(v) if v == want => Ok(()),
        other => Err(format!("x-cache {other:?}, want {want}")),
    }
}

/// One field of a JSON document as a number.
pub fn json_u64(doc: &str, path: &[&str]) -> Result<u64, String> {
    let root = jsonin::parse(doc).map_err(|e| format!("bad JSON: {e}"))?;
    let mut v = &root;
    for key in path {
        v = v.get(key).ok_or_else(|| format!("missing '{key}'"))?;
    }
    v.as_f64().map(|f| f as u64).ok_or_else(|| format!("'{}' is not a number", path.join(".")))
}

/// Untimed verification of a simulate response: the body must be
/// byte-identical to rendering an in-process run of the same config.
pub fn verify_body(cfg: &RunConfig, canonical: &str, body: &str) -> Result<(), String> {
    let r = run(cfg);
    Expect::of(cfg).check(&r)?;
    if render_run(canonical, &r) == body {
        Ok(())
    } else {
        Err("body differs from render_run(canonical, run(cfg))".into())
    }
}

/// A response kept for verification after the timed loop.
struct Answer {
    kind: &'static str,
    cfg: RunConfig,
    canonical: String,
    body: String,
    /// For a trace simulation: the config the uploaded trace was
    /// recorded from, so verification can rebuild and register it
    /// after the upload was deleted.
    recorded: Option<RunConfig>,
}

#[derive(Default)]
struct Tallies {
    hits: Samples,
    misses: Samples,
    uploads: Samples,
    trace_sims: Samples,
    rounds: Samples,
    ops: u64,
    accesses: u64,
    /// Every operation checked so far, by kind; a count, so memory does
    /// not grow with the number of operations.
    checked: Report,
    answers: Vec<Answer>,
}

/// The write side of `serve-mixed`, in closed-loop rounds: one fresh
/// simulate, one trace upload, one simulate of the uploaded trace, and
/// its deletion.
fn write_client(addr: SocketAddr, seed: u64, deadline: Instant) -> Tallies {
    let mut t = Tallies::default();
    let mut round = 0u64;
    loop {
        let round_t = Instant::now();
        let cfg = miss_cfg(mix(seed, round));
        let canonical = canonical_json(&cfg);
        let s = Instant::now();
        let resp = ok(post(addr, "/v1/simulate", canonical.as_bytes()));
        t.misses.push(s.elapsed());
        match resp.and_then(|r| expect_cache(&r, "miss").map(|()| r)) {
            Ok(r) => t.answers.push(Answer {
                kind: "miss",
                cfg,
                canonical,
                body: r.body,
                recorded: None,
            }),
            Err(e) => t.checked.op("miss", Err(e)),
        }
        let recorded = RunConfig { seed: mix(seed, round ^ 0x7ace), ..cfg };
        let bytes = record_trace(&recorded, sim::UPLOAD_RECORDS);
        let (id, upload) = upload_trace(addr, &bytes);
        t.uploads.push(upload);
        t.checked.op("upload", check_upload(id.clone(), own_snap_hash(&bytes)));
        if let Some(summary) = id.as_ref().ok().and_then(|&id| replay::summary(id)) {
            let tcfg = trace_cfg(TraceRef::from_summary(&summary));
            let canonical = canonical_json(&tcfg);
            let s = Instant::now();
            let resp = ok(post(addr, "/v1/simulate", canonical.as_bytes()));
            t.trace_sims.push(s.elapsed());
            match resp {
                Ok(r) => t.answers.push(Answer {
                    kind: "trace_sim",
                    cfg: tcfg,
                    canonical,
                    body: r.body,
                    recorded: Some(recorded),
                }),
                Err(e) => t.checked.op("trace_sim", Err(e)),
            }
        } else {
            t.checked.op("trace_sim", Err("no trace to simulate".into()));
        }
        t.checked.op("delete", delete_trace(addr, id));
        t.rounds.push(round_t.elapsed());
        round += 1;
        if Instant::now() >= deadline {
            return t;
        }
    }
}

/// The read side of `serve-mixed`, in closed-loop rounds of
/// [`SERVE_HITS_PER_ROUND`] cache-hit simulates cycling through the
/// stored results.
fn hit_client(addr: SocketAddr, hits: &[(String, String)], deadline: Instant) -> Tallies {
    let mut t = Tallies::default();
    let mut next = 0usize;
    loop {
        let round_t = Instant::now();
        for _ in 0..SERVE_HITS_PER_ROUND {
            let (body, want) = &hits[next % hits.len()];
            next += 1;
            let s = Instant::now();
            let resp = ok(post(addr, "/v1/simulate", body.as_bytes()));
            t.hits.push(s.elapsed());
            let outcome = resp.and_then(|r| {
                expect_cache(&r, "hit")?;
                if &r.body == want {
                    Ok(())
                } else {
                    Err("hit body differs from the stored result".into())
                }
            });
            t.checked.op("hit", outcome);
        }
        t.rounds.push(round_t.elapsed());
        if Instant::now() >= deadline {
            return t;
        }
    }
}

/// Upload a trace; returns its id and the upload's latency.
fn upload_trace(addr: SocketAddr, bytes: &[u8]) -> (Result<u64, String>, Duration) {
    let s = Instant::now();
    let resp = ok(post(addr, "/v1/traces", bytes));
    let took = s.elapsed();
    (resp.and_then(|r| json_u64_hex(&r.body)), took)
}

/// Delete an uploaded trace once it has been used, as a client that
/// uploads a trace per job would; the registry keeps every trace until
/// it is deleted.
fn delete_trace(addr: SocketAddr, id: Result<u64, String>) -> Result<(), String> {
    let id = id.map_err(|_| "no trace to delete".to_string())?;
    let path = format!("/v1/traces/{id:016x}");
    client::request(addr, "DELETE", &path, "", TIMEOUT)
        .map_err(|e| format!("DELETE {path}: {e}"))
        .and_then(|r| ok(Ok(r)))
        .map(drop)
}

/// The `id` of a trace upload response, as a number.
fn json_u64_hex(body: &str) -> Result<u64, String> {
    let doc = jsonin::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
    let id = doc.get("id").and_then(|v| v.as_str()).ok_or("upload response lacks 'id'")?;
    replay::parse_trace_id(id).ok_or_else(|| format!("malformed trace id '{id}'"))
}

/// Verify kept answers on `threads` threads; returns one outcome each.
fn verify_answers(answers: Vec<Answer>, threads: usize) -> Vec<(&'static str, Result<(), String>)> {
    let queue = Mutex::new(answers);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let Some(a) = queue.lock().expect("verifier poisoned").pop() else { return };
                // A deleted upload is rebuilt from its recording config.
                let restored = a.recorded.map(|rc| {
                    let data = replay::decode(&record_trace(&rc, sim::UPLOAD_RECORDS))
                        .expect("the benchmark's own trace decodes");
                    let hash = data.summary.hash;
                    replay::register(std::sync::Arc::new(data));
                    hash
                });
                let outcome = verify_body(&a.cfg, &a.canonical, &a.body);
                if let Some(hash) = restored {
                    replay::unregister(hash);
                }
                out.lock().expect("verifier poisoned").push((a.kind, outcome));
            });
        }
    });
    out.into_inner().expect("verifier poisoned")
}

/// Fill a store directory with [`PREFILLED`] results; returns their
/// `(request body, expected response body)` pairs.
pub fn prefill(dir: &Path, seed: u64) -> Result<Vec<(String, String)>, String> {
    let store = Store::open(dir, 0).map_err(|e| format!("store open: {e}"))?;
    let metrics = ServerMetrics::default();
    let mut pairs = Vec::new();
    for i in 0..PREFILLED as u64 {
        let cfg = prefilled_cfg(mix(seed, 0x9f11 + i));
        let sim = parse_body(&canonical_json(&cfg), &Limits::default())?;
        let body = render_run(&sim.canonical, &run(&sim.cfg));
        store.put(sim.key, &body, &metrics);
        pairs.push((sim.canonical, body));
    }
    Ok(pairs)
}

/// Counters from `/metrics` the per-layer report and the checks use.
pub struct ServerCounts {
    pub doc: String,
}

impl ServerCounts {
    pub fn fetch(addr: SocketAddr) -> Result<Self, String> {
        let r = ok(get(addr, "/metrics"))?;
        Ok(ServerCounts { doc: r.body })
    }

    pub fn get(&self, path: &[&str]) -> u64 {
        json_u64(&self.doc, path).unwrap_or(0)
    }
}

/// Run `serve-mixed`.
pub fn run_serve_mixed(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let store_dir = ctx.work.join("store");
    let hits = prefill(&store_dir, ctx.seed)?;
    let (setup_s, server) = setup_server(server_cfg(ctx, Some(&store_dir)))?;
    let addr = server.local_addr();
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    // Two client threads: one keeps at most one simulation running, on
    // one of the `nproc` workers, the other sends cache hits beside it,
    // so the load needs about two CPUs whatever `nproc` is.
    let u0 = Usage::now();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut write, read) = std::thread::scope(|s| {
        let reader = s.spawn(|| hit_client(addr, &hits[..HOT], deadline));
        let writer = write_client(addr, mix(ctx.seed, 0xc11e47), deadline);
        (writer, reader.join().expect("hit client panicked"))
    });
    let usage = Usage::now().since(&u0);
    let counts = ServerCounts::fetch(addr);
    rep.absorb(std::mem::take(&mut write.checked));
    rep.absorb(read.checked);

    let (misses, trace_sims) = (write.misses.len() as u64, write.trace_sims.len() as u64);
    let hits_n = read.hits.len() as u64;
    match &counts {
        Ok(c) => {
            rep.check(reconcile("cache_hits", c.get(&["cache_hits"]), hits_n));
            rep.check(reconcile("sim_runs", c.get(&["sim_runs"]), misses + trace_sims));
            rep.check(reconcile(
                "rejected",
                c.get(&["rejected_busy"]) + c.get(&["rejected_draining"]),
                0,
            ));
        }
        Err(e) => rep.fail(e.clone()),
    }

    if ctx.trace {
        let cfg = miss_cfg(mix(ctx.seed, 0));
        let phase = layers::traced_phase(&[cfg], seconds, rep);
        layers::process_metrics(rep, &usage);
        sim::tail_metrics(rep, &read.hits, &write.misses);
        layers::layer_pass(ctx, &[cfg], &canonical_json(&cfg), Some(addr), &phase, rep);
    }
    server.shutdown();
    let verified = verify_answers(std::mem::take(&mut write.answers), ctx.host.nproc);
    for (kind, outcome) in verified {
        rep.op(kind, outcome);
    }
    if !ctx.trace {
        // Every round repeats the same operations, so the rates are taken
        // at the median simulations and the median round.
        let rates = Rates {
            sim_accesses_per_s: (MISS_ACCESSES + TRACE_ACCESSES) as f64
                / (write.misses.quantile(0.5) + write.trace_sims.quantile(0.5)),
            requests_per_s: WRITE_OPS_PER_ROUND as f64 / write.rounds.quantile(0.5)
                + SERVE_HITS_PER_ROUND as f64 / read.rounds.quantile(0.5),
        };
        end_to_end(rep, setup_s, &read.hits, &write.misses, &write.uploads, rates, &usage);
    }
    Ok(())
}

fn reconcile(what: &str, server: u64, client: u64) -> Result<(), String> {
    if server == client {
        Ok(())
    } else {
        Err(format!("/metrics {what} = {server}, client counted {client}"))
    }
}

/// One submitted sweep and the hit bodies of its cells, kept for
/// verification.
struct SweepRun {
    spec: String,
    doc: Result<String, String>,
    hits: Vec<(String, Result<String, String>)>,
}

/// Submit a sweep, poll it to completion and fetch its figures.
fn one_sweep(addr: SocketAddr, spec: &str) -> Result<String, String> {
    let r = post(addr, "/v1/sweeps", spec.as_bytes())?;
    if r.status != 202 {
        return Err(format!("sweep submit answered {}: {}", r.status, r.body.trim()));
    }
    let id = json_u64(&r.body, &["id"])?;
    let path = format!("/v1/sweeps/{id}");
    loop {
        let st = ok(get(addr, &path))?;
        let doc = jsonin::parse(&st.body).map_err(|e| format!("bad status JSON: {e}"))?;
        match doc.get("status").and_then(|v| v.as_str()) {
            Some("running") => std::thread::sleep(POLL),
            Some("done") => break,
            other => return Err(format!("sweep ended {other:?}")),
        }
    }
    Ok(ok(get(addr, &format!("{path}/figures")))?.body)
}

/// Run `grid-sweep`.
pub fn run_grid_sweep(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let (setup_s, server) = setup_server(server_cfg(ctx, None))?;
    let addr = server.local_addr();
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut t = Tallies::default();
    let mut sweeps = Vec::new();
    let u0 = Usage::now();
    let start_t = Instant::now();
    let mut round = 0u64;
    loop {
        let round_t = Instant::now();
        let spec = grid_spec(mix(ctx.seed, round));
        let cells = grid_cells(&spec);
        let s = Instant::now();
        let doc = one_sweep(addr, &spec);
        t.misses.push(s.elapsed());
        t.accesses += cells.iter().map(|c| c.0.accesses).sum::<u64>();
        let mut hits = Vec::new();
        for _ in 0..GRID_HIT_PASSES {
            for (_, canonical) in &cells {
                let s = Instant::now();
                let resp = ok(post(addr, "/v1/simulate", canonical.as_bytes()));
                t.hits.push(s.elapsed());
                hits.push((
                    canonical.clone(),
                    resp.and_then(|r| expect_cache(&r, "hit").map(|()| r.body)),
                ));
            }
        }
        sweeps.push(SweepRun { spec, doc, hits });
        for u in 0..GRID_UPLOADS_PER_ROUND as u64 {
            let bytes = record_trace(
                &RunConfig { seed: mix(ctx.seed, (round << 8 | u) ^ 0x7ace), ..sim::paper_cfg(0) },
                sim::UPLOAD_RECORDS,
            );
            let (id, upload) = upload_trace(addr, &bytes);
            t.uploads.push(upload);
            t.checked.op("upload", check_upload(id.clone(), own_snap_hash(&bytes)));
            t.checked.op("delete", delete_trace(addr, id));
        }
        t.ops += (1 + GRID_HIT_PASSES * cells.len() + 2 * GRID_UPLOADS_PER_ROUND) as u64;
        t.rounds.push(round_t.elapsed());
        round += 1;
        if start_t.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let usage = Usage::now().since(&u0);

    if ctx.trace {
        let spec = grid_spec(mix(ctx.seed, 0));
        let cfgs: Vec<RunConfig> = grid_cells(&spec).into_iter().map(|c| c.0).collect();
        let mut phase = layers::traced_phase(&cfgs, seconds, rep);
        phase.grid_wall = Some(t.misses.quantile(0.5));
        layers::process_metrics(rep, &usage);
        sim::tail_metrics(rep, &t.hits, &t.misses);
        layers::layer_pass(ctx, &cfgs, &spec, Some(addr), &phase, rep);
    }
    server.shutdown();

    // Verification, after the timed loop: every figures document and
    // every hit body against the in-process grid.
    for s in sweeps {
        let (doc, bodies) = local_figures(&s.spec);
        rep.op(
            "sweep",
            s.doc.and_then(|d| {
                if d == doc {
                    Ok(())
                } else {
                    Err("figures document differs from run_grid + figures_doc".into())
                }
            }),
        );
        for ((canonical, hit), (want_canon, want)) in s.hits.into_iter().zip(bodies.iter().cycle())
        {
            debug_assert_eq!(&canonical, want_canon);
            rep.op(
                "hit",
                hit.and_then(|b| {
                    if &b == want {
                        Ok(())
                    } else {
                        Err("hit body differs from the in-process grid's".into())
                    }
                }),
            );
        }
    }
    rep.absorb(std::mem::take(&mut t.checked));
    if !ctx.trace {
        let rates = Rates {
            sim_accesses_per_s: t.accesses as f64 / t.misses.len() as f64 / t.misses.quantile(0.5),
            requests_per_s: t.ops as f64 / t.rounds.len() as f64 / t.rounds.quantile(0.5),
        };
        end_to_end(rep, setup_s, &t.hits, &t.misses, &t.uploads, rates, &usage);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_sim_base::config::SimScale;
    use hmm_workloads::WorkloadId;

    #[test]
    fn body_check_fires_on_one_changed_byte() {
        let cfg = RunConfig { accesses: 5_000, warmup: 500, ..miss_cfg(3) };
        let canonical = canonical_json(&cfg);
        let body = render_run(&canonical, &run(&cfg));
        verify_body(&cfg, &canonical, &body).unwrap();
        let mut bytes = body.into_bytes();
        let i = bytes.len() / 3;
        bytes[i] = if bytes[i] == b'1' { b'2' } else { b'1' };
        assert!(verify_body(&cfg, &canonical, &String::from_utf8(bytes).unwrap()).is_err());
    }

    #[test]
    fn reconcile_fires_on_a_counter_off_by_one() {
        reconcile("sim_runs", 5, 5).unwrap();
        assert!(reconcile("sim_runs", 6, 5).is_err());
    }

    #[test]
    fn grid_has_eight_distinct_cells_up_to_four_mb() {
        let cells = grid_cells(&grid_spec(1));
        assert_eq!(cells.len(), 8);
        assert_eq!(cells.iter().map(|c| c.0.page_shift).max(), Some(22));
        assert!(cells.iter().all(|c| c.0.scale == SimScale { divisor: 4 }));
        assert!(cells.iter().any(|c| c.0.mode == sim::LIVE));
        assert!(cells.iter().any(|c| c.0.workload == WorkloadId::Indexer));
    }
}
