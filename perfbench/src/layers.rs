//! The traced run's per-layer measurements.
//!
//! Every workload's traced run has the same three parts after its
//! untraced loop: [`traced_phase`] runs the workload's configs through
//! `driver::run` and through the traced loop of [`crate::sim`] (host
//! time per simulator layer, exact counters, tracing overhead), and
//! [`layer_pass`] times the serving, store, ingest and sweep layers
//! in-process on the same configs (sweep parallelism on the Fig. 11
//! grid), then reads the server's `/metrics`.

use crate::report::{Report, Samples, Usage};
use crate::serving::{self, ServerCounts};
use crate::sim::{self, traced_run, Traced};
use crate::spans::Spans;
use crate::{mix, own_snap_hash, Ctx};
use hmm_ingest::TraceRegistry;
use hmm_serve::cache::LruCache;
use hmm_serve::metrics::ServerMetrics;
use hmm_serve::request::{canonical_json, parse_body, Limits};
use hmm_serve::response::render_run;
use hmm_serve::Store;
use hmm_simulator::driver::{run, RunConfig, RunResult};
use hmm_simulator::experiments::run_grid;
use hmm_sweep::aggregate::figures_doc;
use hmm_sweep::expand;
use hmm_workloads::replay;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each in-process layer call in [`layer_pass`].
const REPS: u64 = 20;
/// `/healthz` round trips timed per traced run.
const HEALTHZ: usize = 50;

/// What [`traced_phase`] measured.
pub struct Phase {
    pub spans: Spans,
    /// First pass: the traced loop's counters and `driver::run`'s result
    /// for each config.
    pub counts: Vec<Traced>,
    pub results: Vec<RunResult>,
    /// Single-thread `driver::run` time of each config, first pass.
    pub cell_times: Vec<f64>,
    /// A sealed snapshot from the first traced run.
    pub snapshot: Vec<u8>,
    /// Per pass: total untraced and traced time over the configs.
    pub untraced: Samples,
    pub traced: Samples,
    pub records: u64,
    /// Wall time of the workload's own grid, when it runs one.
    pub grid_wall: Option<f64>,
}

/// Whole passes over `cfgs` for `seconds` (at least one): each config
/// through `driver::run`, then through the traced loop, whose counters
/// must equal the driver's exactly.
pub fn traced_phase(cfgs: &[RunConfig], seconds: f64, rep: &mut Report) -> Phase {
    let mut p = Phase {
        spans: Spans::default(),
        counts: Vec::new(),
        results: Vec::new(),
        cell_times: Vec::new(),
        snapshot: Vec::new(),
        untraced: Samples::default(),
        traced: Samples::default(),
        records: 0,
        grid_wall: None,
    };
    let start = Instant::now();
    loop {
        let first = p.results.is_empty();
        let (mut untraced, mut traced) = (0.0, 0.0);
        for cfg in cfgs {
            let t = Instant::now();
            let r = run(cfg);
            let u = t.elapsed().as_secs_f64();
            untraced += u;
            let t = Instant::now();
            let (tr, snap) = traced_run(cfg, &mut p.spans);
            traced += t.elapsed().as_secs_f64();
            p.spans.fold();
            p.records += cfg.accesses;
            rep.check(tr.check_against(&r));
            if first {
                p.counts.push(tr);
                p.results.push(r);
                p.cell_times.push(u);
                if p.snapshot.is_empty() {
                    p.snapshot = snap;
                }
            }
        }
        p.untraced.0.push(untraced);
        p.traced.0.push(traced);
        if start.elapsed().as_secs_f64() >= seconds {
            return p;
        }
    }
}

/// `getrusage` deltas over the untraced loop.
pub fn process_metrics(rep: &mut Report, u: &Usage) {
    rep.metric("process.user_cpu_s", u.user_s, "s");
    rep.metric("process.sys_cpu_s", u.sys_s, "s");
    rep.metric("process.vol_ctx_switches", u.vol_ctx as f64, "count");
    rep.metric("process.invol_ctx_switches", u.invol_ctx as f64, "count");
}

/// Time the serving, store, ingest and sweep layers in-process on the
/// workload's configs, then the HTTP floor and the server's counters on
/// `server` (or on a probe server that serves each config once as a
/// miss and once as a hit). `spec` is the sweep spec the configs come
/// from.
pub fn layer_pass(
    ctx: &Ctx,
    cfgs: &[RunConfig],
    spec: &str,
    server: Option<SocketAddr>,
    phase: &Phase,
    rep: &mut Report,
) {
    sim::span_metrics(rep, &phase.spans, phase.records);
    sim::count_metrics(rep, &phase.counts);
    rep.metric(
        "trace.overhead_pct",
        (phase.traced.quantile(0.5) / phase.untraced.quantile(0.5) - 1.0) * 100.0,
        "%",
    );

    let mut spans = Spans::default();
    let limits = Limits::default();
    let metrics = ServerMetrics::default();
    let store_dir = ctx.work.join("layer-store");
    let mut bodies = Vec::new();
    match Store::open(&store_dir, 0) {
        Ok(store) => {
            let mut cache = LruCache::new(64);
            for _ in 0..REPS {
                bodies.clear();
                for (cfg, r) in cfgs.iter().zip(&phase.results) {
                    let canonical = spans.time("simulator.canonical", || canonical_json(cfg));
                    let Ok(sim) = spans.time("serve.parse", || parse_body(&canonical, &limits))
                    else {
                        rep.fail("the canonical form of a config does not parse".into());
                        continue;
                    };
                    let body = Arc::new(spans.time("serve.render", || render_run(&canonical, r)));
                    cache.insert(sim.key, Arc::clone(&body));
                    let got = spans.time("serve.cache_get", || cache.get(sim.key));
                    if got.as_deref() != Some(&*body) {
                        rep.fail("result cache returned another body".into());
                    }
                    spans.time("serve.store_put", || store.put(sim.key, &body, &metrics));
                    let back = spans.time("serve.store_get", || store.get(sim.key, &metrics));
                    if back.as_deref() != Some(body.as_str()) {
                        rep.fail("store returned another body".into());
                    }
                    spans.time("serve.store_checkpoint", || {
                        store.write_checkpoint(sim.key, &canonical, &phase.snapshot, &metrics)
                    });
                    bodies.push(body.as_str().to_string());
                }
            }
            drop(store);
            for _ in 0..REPS {
                let restored = spans.time("serve.store_rehydrate", || {
                    Store::open(&store_dir, 0)
                        .map(|s| s.rehydrate(&mut LruCache::new(64), &metrics))
                        .unwrap_or(0)
                });
                if restored != bodies.len() {
                    rep.fail(format!("rehydrate restored {restored} of {}", bodies.len()));
                }
            }
        }
        Err(e) => rep.fail(format!("layer store: {e}")),
    }

    let upload = sim::record_trace(
        &RunConfig { seed: mix(ctx.seed, 0xdec0de), ..cfgs[0] },
        sim::UPLOAD_RECORDS,
    );
    let want = own_snap_hash(&upload);
    for _ in 0..REPS {
        let decoded = spans.time("workloads.decode", || replay::decode(&upload));
        rep.check(sim::check_upload(decoded.map(|d| d.summary.hash), want));
    }
    match TraceRegistry::open(&ctx.work.join("layer-traces")) {
        Ok((registry, _)) => {
            for _ in 0..REPS {
                let put = spans.time("ingest.put", || registry.put(&upload));
                rep.check(sim::check_upload(put.map(|s| s.hash), want));
            }
        }
        Err(e) => rep.fail(format!("layer trace registry: {e}")),
    }

    for _ in 0..REPS {
        match spans.time("sweep.expand", || expand(spec, 1024)) {
            Ok(cells) if cells.len() >= cfgs.len() => {}
            Ok(cells) => rep.fail(format!("spec expanded to {} cells", cells.len())),
            Err(e) => rep.fail(format!("spec does not expand: {e}")),
        }
        if let Err(e) = spans.time("sweep.figures_doc", || figures_doc(&bodies)) {
            rep.fail(format!("figures_doc: {e}"));
        }
    }
    let efficiency = match phase.grid_wall {
        Some(wall) => phase.cell_times.iter().sum::<f64>() / (wall * ctx.host.nproc as f64),
        None => grid_efficiency(ctx, rep),
    };
    rep.metric("sweep.parallel_efficiency", efficiency, "ratio");
    spans.fold();
    let us = |name: &str| spans.self_ns_per_call(name) / 1e3;
    let ms = |name: &str| spans.self_ns_per_call(name) / 1e6;
    rep.metric("workloads.decode_ms", ms("workloads.decode"), "ms");
    rep.metric("serve.parse_us", us("serve.parse"), "us");
    rep.metric("serve.cache_get_us", us("serve.cache_get"), "us");
    rep.metric("simulator.canonical_us", us("simulator.canonical"), "us");
    rep.metric(
        "simulator.run_ms",
        phase.cell_times.iter().sum::<f64>() * 1e3 / phase.cell_times.len().max(1) as f64,
        "ms",
    );
    rep.metric("serve.render_us", us("serve.render"), "us");
    rep.metric("serve.store_put_us", us("serve.store_put"), "us");
    rep.metric("serve.store_checkpoint_us", us("serve.store_checkpoint"), "us");
    rep.metric("simulator.snapshot_bytes", phase.snapshot.len() as f64, "bytes");
    rep.metric("serve.store_get_us", us("serve.store_get"), "us");
    rep.metric("serve.store_rehydrate_ms", ms("serve.store_rehydrate"), "ms");
    rep.metric("ingest.put_ms", ms("ingest.put"), "ms");
    rep.metric("sweep.expand_us", us("sweep.expand"), "us");
    rep.metric("sweep.figures_doc_ms", ms("sweep.figures_doc"), "ms");

    http_layers(ctx, cfgs, server, rep);
}

/// Sweep parallelism for a workload that runs no grid of its own: the
/// `grid-sweep` cells (Fig. 11-shaped, 4 MB cells included) one after
/// another through `driver::run`, then together through `run_grid`,
/// whose results must equal the sequential ones. Returns the sequential
/// time over the grid's wall time x `nproc`.
fn grid_efficiency(ctx: &Ctx, rep: &mut Report) -> f64 {
    let cfgs: Vec<RunConfig> = serving::grid_cells(&serving::grid_spec(mix(ctx.seed, 0)))
        .into_iter()
        .map(|c| c.0)
        .collect();
    let t = Instant::now();
    let sequential: Vec<RunResult> = cfgs.iter().map(run).collect();
    let single = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (results, _) = run_grid(&cfgs);
    let wall = t.elapsed().as_secs_f64();
    if results != sequential {
        rep.fail("run_grid results differ from driver::run".into());
    }
    single / (wall * ctx.host.nproc as f64)
}

/// The HTTP floor and the server's own counters.
fn http_layers(ctx: &Ctx, cfgs: &[RunConfig], server: Option<SocketAddr>, rep: &mut Report) {
    let probe = match server {
        Some(_) => None,
        None => match serving::start(serving::server_cfg(ctx, None)) {
            Ok(s) => Some(s),
            Err(e) => {
                rep.fail(e);
                return;
            }
        },
    };
    let addr = server.unwrap_or_else(|| probe.as_ref().expect("started above").local_addr());
    if probe.is_some() {
        for cfg in cfgs {
            let canonical = canonical_json(cfg);
            for want in ["miss", "hit"] {
                let r = serving::post(addr, "/v1/simulate", canonical.as_bytes());
                rep.check(match r {
                    Ok(r) if r.status == 200 && r.header("x-cache") == Some(want) => Ok(()),
                    Ok(r) => Err(format!(
                        "probe simulate: {} x-cache {:?}",
                        r.status,
                        r.header("x-cache")
                    )),
                    Err(e) => Err(e),
                });
            }
        }
    }
    let mut healthz = Samples::default();
    for _ in 0..HEALTHZ {
        let t = Instant::now();
        let r = serving::get(addr, "/healthz");
        healthz.push(t.elapsed());
        if !matches!(r, Ok(ref r) if r.status == 200) {
            rep.fail("/healthz failed".into());
        }
    }
    rep.metric("serve.healthz_us", healthz.quantile(0.5) * 1e6, "us");
    match ServerCounts::fetch(addr) {
        Ok(c) => {
            rep.metric("serve.server_p50_ms", c.get(&["latency", "p50_us"]) as f64 / 1e3, "ms");
            for name in ["cache_hits", "sim_runs", "coalesced", "snapshots_written"] {
                rep.metric(&format!("serve.{name}"), c.get(&[name]) as f64, "count");
            }
            rep.metric(
                "serve.rejected",
                (c.get(&["rejected_busy"]) + c.get(&["rejected_draining"])) as f64,
                "count",
            );
        }
        Err(e) => rep.fail(e),
    }
    if let Some(s) = probe {
        s.shutdown();
    }
}
