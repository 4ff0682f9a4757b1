//! The simulation workloads (`sim-paper`, `sim-finepage`), the traced
//! driver loop every traced run uses, and the checks on one run's
//! result.

use crate::report::{Report, Samples, Usage};
use crate::spans::Spans;
use crate::{layers, mix, own_snap_hash, Ctx};
use hmm_core::{build_scheme, ControllerConfig, ControllerStats, MigrationDesign, Mode, SwapStats};
use hmm_dram::{DeviceProfile, RegionStats};
use hmm_ingest::TraceRegistry;
use hmm_serve::cache::LruCache;
use hmm_serve::request::{canonical_json, parse_body, Limits};
use hmm_serve::response::render_run;
use hmm_sim_base::config::{MachineConfig, SimScale};
use hmm_sim_base::snap::SnapWriter;
use hmm_sim_base::stats::effectiveness;
use hmm_simulator::driver::{run, RunConfig, RunResult};
use hmm_simulator::snapshot;
use hmm_telemetry::NullSink;
use hmm_workloads::replay::{self, ReplayIter};
use hmm_workloads::{workload, write_binary, TraceRecord, TraceSource, WorkloadId};
use std::sync::Arc;
use std::time::Instant;

pub const LIVE: Mode = Mode::Dynamic(MigrationDesign::LiveMigration);

/// Records generated per `next_block` call in the traced loop. Block
/// size never changes behaviour (`next_block` reproduces the record
/// stream for any partition), so this matches the driver's choice only
/// for comparable generator cost.
const BLOCK: usize = 4096;

/// Records in each recorded trace the workloads upload (about 0.5 MB).
pub const UPLOAD_RECORDS: usize = 100_000;

/// Hits and uploads per round in the simulation workloads: enough that
/// their quantiles rest on the warm majority, not on the first call
/// after a unit.
const SIM_HITS_PER_ROUND: usize = 1000;
const SIM_UPLOADS_PER_ROUND: usize = 10;
const OPS_PER_ROUND: usize = 1 + SIM_HITS_PER_ROUND + SIM_UPLOADS_PER_ROUND;

/// Set-ups timed per run; the reported set-up time is their median.
pub const SETUPS: usize = 25;

/// The paper's Table III geometry: 4 MB macro pages, 10K-access epochs,
/// live migration. Scale 4 gives 1 GB total, 128 MB on-package, 257
/// translation rows and 32 on-package slots. MG.C swaps once, at the
/// first epoch boundary, and its copy traffic keeps the DRAM queues
/// deep for the rest of the unit and its final flush whatever the seed.
pub fn paper_cfg(seed: u64) -> RunConfig {
    RunConfig {
        page_shift: 22,
        swap_interval: 10_000,
        scale: SimScale { divisor: 4 },
        accesses: 12_000,
        warmup: 1_200,
        seed,
        ..RunConfig::paper(WorkloadId::Mg, LIVE)
    }
}

/// The same design at 4 KB macro pages: scale 8 gives 512 MB total and
/// an OS-assisted table of 131073 rows.
pub fn finepage_cfg(seed: u64) -> RunConfig {
    RunConfig {
        page_shift: 12,
        swap_interval: 10_000,
        scale: SimScale { divisor: 8 },
        os_assisted: Some(true),
        accesses: 400_000,
        warmup: 40_000,
        seed,
        ..RunConfig::paper(WorkloadId::Pgbench, LIVE)
    }
}

/// What a run of `cfg` must report, computed from the record stream
/// alone (no simulator code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub accesses: u64,
    pub recorded: u64,
    pub reads: u64,
    pub writes: u64,
}

impl Expect {
    pub fn of(cfg: &RunConfig) -> Expect {
        let recs: Vec<TraceRecord> = match &cfg.trace {
            Some(t) => {
                let data = replay::lookup(t.hash).expect("trace registered before its check");
                let mut it = ReplayIter::new(data);
                let mut out = Vec::new();
                it.next_block(&mut out, cfg.accesses as usize);
                out
            }
            None => workload(cfg.workload, &cfg.scale).records(cfg.seed, cfg.accesses as usize),
        };
        let post = &recs[(cfg.warmup as usize).min(recs.len())..];
        let writes = post.iter().filter(|r| r.is_write).count() as u64;
        Expect {
            accesses: cfg.accesses,
            recorded: cfg.accesses.saturating_sub(cfg.warmup),
            reads: post.len() as u64 - writes,
            writes,
        }
    }

    /// The conservation checks every simulated unit must pass.
    pub fn check(&self, r: &RunResult) -> Result<(), String> {
        let c = &r.controller;
        if c.demand_on_lines + c.demand_off_lines != self.accesses {
            return Err(format!(
                "demand lines {} + {} != {} accesses",
                c.demand_on_lines, c.demand_off_lines, self.accesses
            ));
        }
        if r.access.accesses() != self.recorded {
            return Err(format!(
                "recorded {} accesses, want accesses - warmup = {}",
                r.access.accesses(),
                self.recorded
            ));
        }
        if (r.access.reads, r.access.writes) != (self.reads, self.writes) {
            return Err(format!(
                "reads/writes {}/{} != generated post-warm-up {}/{}",
                r.access.reads, r.access.writes, self.reads, self.writes
            ));
        }
        Ok(())
    }
}

/// Effectiveness between the all-off and all-on bounds, percent:
/// `(L_off - L) / (L_off - L_on) * 100`. Must lie in (0, 100].
pub fn eta(off: f64, on: f64, lat: f64) -> Result<f64, String> {
    let e = (off - lat) / (off - on) * 100.0;
    if e > 0.0 && e <= 100.0 {
        Ok(e)
    } else {
        Err(format!("eta {e:.2}% outside (0, 100] (off {off:.1}, on {on:.1}, run {lat:.1})"))
    }
}

/// Run the all-on, all-off and static-mapping runs of `cfg` (untimed),
/// check the run's effectiveness between the all-off and all-on bounds,
/// and record the simulated reference figures: that effectiveness, the
/// paper's own (`hmm_sim_base::stats::effectiveness`: against static
/// mapping and the DRAM core latency, as in Table IV) and the mean
/// latency.
pub fn check_eta(cfg: &RunConfig, r: &RunResult, rep: &mut Report) {
    let lat = |mode| run(&RunConfig { mode, ..*cfg }).mean_latency();
    let (on, off, stat) = (lat(Mode::AllOnPackage), lat(Mode::AllOffPackage), lat(Mode::Static));
    match eta(off, on, r.mean_latency()) {
        Ok(e) => rep.reference.push(("eta_bounds_pct", e)),
        Err(e) => rep.fail(e),
    }
    let paper = effectiveness(stat, r.mean_latency(), r.dram_core_mean()).unwrap_or(f64::NAN);
    rep.reference.push(("eta_paper_pct", paper));
    rep.reference.push(("mean_latency_cycles", r.mean_latency()));
    rep.reference.push(("static_latency_cycles", stat));
}

/// Hash of a rendered body: equal digests mean equal bytes.
pub fn digest(body: &str) -> u64 {
    own_snap_hash(body.as_bytes())
}

/// A recorded trace of `records` records from `cfg`'s generator, as
/// `HMT1` bytes.
pub fn record_trace(cfg: &RunConfig, records: usize) -> Vec<u8> {
    let recs = workload(cfg.workload, &cfg.scale).records(cfg.seed, records);
    let mut bytes = Vec::new();
    write_binary(&mut bytes, recs).expect("writing to a Vec cannot fail");
    bytes
}

/// Counters of one traced run, for the exact per-layer counts and the
/// comparison with `driver::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traced {
    pub controller: ControllerStats,
    pub swaps: Option<SwapStats>,
    pub on: RegionStats,
    pub off: RegionStats,
    /// Simulated cycles the run spans (last arrival or completion).
    pub cycles: u64,
}

impl Traced {
    /// The traced loop must reproduce `driver::run` exactly.
    pub fn check_against(&self, r: &RunResult) -> Result<(), String> {
        if self.controller != r.controller {
            return Err("traced ControllerStats differ from driver::run".into());
        }
        if self.swaps != r.swaps {
            return Err("traced SwapStats differ from driver::run".into());
        }
        if (self.on, self.off) != (r.on_region, r.off_region) {
            return Err("traced RegionStats differ from driver::run".into());
        }
        Ok(())
    }
}

fn controller_config(cfg: &RunConfig) -> ControllerConfig {
    ControllerConfig {
        machine: MachineConfig { geometry: cfg.geometry(), ..MachineConfig::default() },
        mode: cfg.mode,
        swap_interval: cfg.swap_interval,
        os_assisted: cfg.os_assisted,
        max_outstanding_copies: 16,
        copy_pace_cycles_per_line: 20,
        policy: cfg.policy,
        on_profile: DeviceProfile::on_package(),
        off_profile: DeviceProfile::off_package_ddr3(),
        faults: cfg.faults,
    }
}

fn source(cfg: &RunConfig) -> TraceSource {
    match &cfg.trace {
        Some(t) => TraceSource::Replay(ReplayIter::new(
            replay::lookup(t.hash).expect("trace registered before its run"),
        )),
        None => TraceSource::Synthetic(workload(cfg.workload, &cfg.scale).iter(cfg.seed)),
    }
}

/// The driver's loop, written out with a span around every call into a
/// layer: trace generation, then per record `access` and `advance`, a
/// drain every 64 records, and the final flush. Halfway through it
/// captures a snapshot of the trace and scheme state.
pub fn traced_run(cfg: &RunConfig, spans: &mut Spans) -> (Traced, Vec<u8>) {
    spans.enter("sim.unit");
    let mut trace = spans.time("workloads.build", || source(cfg));
    let mut ctrl = spans.time("core.build", || {
        build_scheme(cfg.scheme, controller_config(cfg), cfg.migration, NullSink)
    });
    let mut block = Vec::new();
    let mut drained = Vec::new();
    let mut submitted = 0u64;
    let mut cycles = 0u64;
    let mut sealed = Vec::new();
    let mut remaining = cfg.accesses as usize;
    while remaining > 0 {
        let n = remaining.min(BLOCK);
        spans.time("workloads.gen", || trace.next_block(&mut block, n));
        remaining -= n;
        for rec in &block {
            spans.time("core.access", || ctrl.access(rec.tick, rec.addr, rec.is_write));
            submitted += 1;
            spans.time("core.advance", || ctrl.advance(rec.tick));
            if submitted.is_multiple_of(64) {
                spans.time("core.drain", || ctrl.drain_completed_into(&mut drained));
            }
            cycles = rec.tick;
        }
        if sealed.is_empty() && submitted * 2 >= cfg.accesses {
            sealed = spans.time("simulator.snapshot_capture", || {
                let mut w = SnapWriter::new();
                trace.save_state(&mut w);
                ctrl.save_state(&mut w);
                snapshot::seal(0, submitted, &w.into_bytes())
            });
        }
        for c in drained.drain(..) {
            cycles = cycles.max(c.finish);
        }
    }
    spans.time("core.flush", || ctrl.flush());
    spans.time("core.drain", || ctrl.drain_completed_into(&mut drained));
    for c in drained.drain(..) {
        cycles = cycles.max(c.finish);
    }
    spans.exit();
    let (on, off) = ctrl.region_stats();
    let t = Traced { controller: ctrl.stats(), swaps: ctrl.swap_stats(), on, off, cycles };
    (t, sealed)
}

/// Fold the exact counters of traced runs into per-layer metrics.
pub fn count_metrics(rep: &mut Report, runs: &[Traced]) {
    let sum = |f: &dyn Fn(&Traced) -> u64| runs.iter().map(f).sum::<u64>();
    let f = |v: u64| v as f64;
    rep.metric("core.epochs", f(sum(&|t| t.controller.epochs)), "count");
    rep.metric("core.swaps_completed", f(sum(&|t| t.swaps.map_or(0, |s| s.completed))), "count");
    rep.metric(
        "core.sub_blocks_copied",
        f(sum(&|t| t.swaps.map_or(0, |s| s.sub_blocks_copied))),
        "count",
    );
    rep.metric("core.stall_cycles", f(sum(&|t| t.controller.stall_cycles)), "cycles");
    rep.metric(
        "core.migration_lines",
        f(sum(&|t| t.controller.migration_on_lines + t.controller.migration_off_lines)),
        "count",
    );
    let cycles = sum(&|t| t.cycles).max(1) as f64;
    for (side, channels, stats) in [
        ("on", DeviceProfile::on_package().channels, runs.iter().map(|t| t.on).collect::<Vec<_>>()),
        (
            "off",
            DeviceProfile::off_package_ddr3().channels,
            runs.iter().map(|t| t.off).collect::<Vec<_>>(),
        ),
    ] {
        let serviced: u64 = stats.iter().map(|s| s.serviced).sum();
        let hits: u64 = stats.iter().map(|s| s.row_hits).sum();
        let busy: u64 = stats.iter().map(|s| s.data_bus_busy).sum();
        rep.metric(&format!("dram.{side}.serviced"), serviced as f64, "count");
        rep.metric(
            &format!("dram.{side}.row_hit_rate"),
            hits as f64 / serviced.max(1) as f64,
            "ratio",
        );
        rep.metric(
            &format!("dram.{side}.bus_util"),
            busy as f64 / (f64::from(channels) * cycles),
            "ratio",
        );
    }
}

/// Host-time per-layer metrics from the traced loop's spans.
pub fn span_metrics(rep: &mut Report, spans: &Spans, records: u64) {
    let gen = spans.total("workloads.gen");
    rep.metric("workloads.gen_ns_per_record", gen.self_ns as f64 / records.max(1) as f64, "ns");
    rep.metric("core.access_ns", spans.self_ns_per_call("core.access"), "ns");
    rep.metric("core.advance_ns", spans.self_ns_per_call("core.advance"), "ns");
    rep.metric("core.drain_ns", spans.self_ns_per_call("core.drain"), "ns");
    rep.metric("core.flush_ms", spans.self_ns_per_call("core.flush") / 1e6, "ms");
    rep.metric(
        "simulator.snapshot_capture_us",
        spans.self_ns_per_call("simulator.snapshot_capture") / 1e3,
        "us",
    );
}

/// What the timed loop of a simulation workload leaves behind.
#[derive(Default)]
pub struct SimLoop {
    pub misses: Samples,
    pub hits: Samples,
    pub uploads: Samples,
    /// Duration of each round.
    pub rounds: Samples,
    /// The first unit's result: the reference later units must match.
    pub first: Option<RunResult>,
    /// `getrusage` over the loop (filled in by the caller).
    pub usage: Usage,
}

/// Everything prepared before the first unit.
pub struct Prepared {
    pub cfg: RunConfig,
    pub body: String,
    pub upload: Vec<u8>,
}

/// Set-up of a simulation workload: build the trace generator and the
/// scheme (what `driver::run` allocates before its first access), parse
/// the unit's request form and record the trace the run uploads.
pub fn prepare(cfg: RunConfig) -> Prepared {
    let _ = std::hint::black_box((
        source(&cfg),
        build_scheme(cfg.scheme, controller_config(&cfg), cfg.migration, NullSink),
    ));
    let body = canonical_json(&cfg);
    parse_body(&body, &Limits::default()).expect("the canonical form of a config parses");
    let upload = record_trace(&RunConfig { seed: mix(cfg.seed, 0x75), ..cfg }, UPLOAD_RECORDS);
    Prepared { cfg, body, upload }
}

/// The timed closed loop: whole rounds of one simulation (a miss: the
/// result is computed), [`SIM_HITS_PER_ROUND`] repeats answered from the
/// in-process result cache (parse, key, `LruCache::get`), and
/// [`SIM_UPLOADS_PER_ROUND`] trace ingests through a memory
/// `TraceRegistry`. Every round repeats the same unit, so every result
/// must give the same digest.
pub fn timed_loop(p: &Prepared, seconds: f64, rep: &mut Report) -> SimLoop {
    let limits = Limits::default();
    let registry = TraceRegistry::memory();
    let mut cache = LruCache::new(16);
    let want_id = own_snap_hash(&p.upload);
    let mut l = SimLoop::default();
    let mut reference: Option<(u64, Arc<String>)> = None;
    let start = Instant::now();
    loop {
        let round = Instant::now();
        let t = Instant::now();
        let r = run(&p.cfg);
        l.misses.push(t.elapsed());
        let body = render_run(&p.body, &r);
        let outcome = match &reference {
            None => {
                let body = Arc::new(body);
                let key = parse_body(&p.body, &limits).expect("checked in set-up").key;
                cache.insert(key, Arc::clone(&body));
                reference = Some((digest(&body), body));
                l.first = Some(r);
                Ok(())
            }
            Some((d, _)) if *d == digest(&body) => Ok(()),
            Some(_) => Err("a repeated unit gave a different digest".to_string()),
        };
        rep.op("miss", outcome);
        let want = &reference.as_ref().expect("set by the first unit").1;
        for _ in 0..SIM_HITS_PER_ROUND {
            let t = Instant::now();
            let got = parse_body(&p.body, &limits).ok().and_then(|s| cache.get(s.key));
            l.hits.push(t.elapsed());
            rep.op(
                "hit",
                match got {
                    Some(b) if b.as_str() == want.as_str() => Ok(()),
                    Some(_) => Err("cached body differs from the rendered result".into()),
                    None => Err("result cache missed a repeated config".into()),
                },
            );
        }
        for _ in 0..SIM_UPLOADS_PER_ROUND {
            let t = Instant::now();
            let put = registry.put(&p.upload);
            l.uploads.push(t.elapsed());
            rep.op("upload", check_upload(put.map(|s| s.hash), want_id));
        }
        l.rounds.push(round.elapsed());
        if start.elapsed().as_secs_f64() >= seconds {
            return l;
        }
    }
}

pub fn check_upload(got: Result<u64, String>, want: u64) -> Result<(), String> {
    match got {
        Ok(id) if id == want => Ok(()),
        Ok(id) => Err(format!("trace id {id:016x} != snap_hash of the bytes {want:016x}")),
        Err(e) => Err(format!("upload refused: {e}")),
    }
}

/// The untimed checks of a simulation workload: conservation against
/// the generated records, and effectiveness within its bounds.
pub fn check_sim(cfg: &RunConfig, r: &RunResult, rep: &mut Report) {
    rep.check(Expect::of(cfg).check(r));
    check_eta(cfg, r, rep);
}

/// Median set-up time of `n` set-ups, in seconds, and the last one's
/// product.
pub fn timed_setups<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed());
    }
    (times.quantile(0.5), last.expect("n >= 1"))
}

/// Run one simulation workload on `clients` closed-loop threads, each
/// repeating the same rounds.
pub fn run_workload(ctx: &Ctx, cfg: RunConfig, clients: usize, rep: &mut Report) {
    let (setup_s, prepared) = timed_setups(SETUPS, || prepare(cfg));
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let u0 = Usage::now();
    let loops: Vec<(SimLoop, Report)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut own = Report::default();
                    (timed_loop(&prepared, seconds, &mut own), own)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let usage = Usage::now().since(&u0);
    let mut l = SimLoop::default();
    for (one, own) in loops {
        rep.absorb(own);
        let first = one.first.expect("the loop runs at least one unit");
        match &l.first {
            Some(f) if f != &first => rep.fail("two clients' units gave different results".into()),
            Some(_) => {}
            None => l.first = Some(first),
        }
        l.misses.0.extend(one.misses.0);
        l.hits.0.extend(one.hits.0);
        l.uploads.0.extend(one.uploads.0);
        l.rounds.0.extend(one.rounds.0);
    }
    l.usage = usage;
    check_sim(&cfg, l.first.as_ref().expect("at least one client"), rep);
    if ctx.trace {
        let phase = layers::traced_phase(&[cfg], seconds, rep);
        layers::process_metrics(rep, &l.usage);
        tail_metrics(rep, &l.hits, &l.misses);
        layers::layer_pass(ctx, &[cfg], &prepared.body, None, &phase, rep);
        return;
    }
    // Every client completes a unit per median unit time.
    let rates = Rates {
        sim_accesses_per_s: (clients * cfg.accesses as usize) as f64 / l.misses.quantile(0.5),
        requests_per_s: (clients * OPS_PER_ROUND) as f64 / l.rounds.quantile(0.5),
    };
    end_to_end(rep, setup_s, &l.hits, &l.misses, &l.uploads, rates, &l.usage);
}

/// The two rates every workload reports. Where a run repeats a fixed
/// round, they are taken at the median unit and the median round, so a
/// rare slow unit moves them no more than it moves the median latency.
pub struct Rates {
    pub sim_accesses_per_s: f64,
    pub requests_per_s: f64,
}

/// The end-to-end metrics every workload reports, in one order.
pub fn end_to_end(
    rep: &mut Report,
    setup_s: f64,
    hits: &Samples,
    misses: &Samples,
    uploads: &Samples,
    rates: Rates,
    usage: &Usage,
) {
    rep.metric("setup_s", setup_s, "s");
    rep.metric("sim_accesses_per_s", rates.sim_accesses_per_s, "1/s");
    rep.metric("peak_rss_mib", usage.max_rss_kib as f64 / 1024.0, "MiB");
    rep.metric("hit_p50_ms", hits.ms(0.5), "ms");
    rep.metric("miss_p50_ms", misses.ms(0.5), "ms");
    rep.metric("upload_p50_ms", uploads.ms(0.5), "ms");
    rep.metric("requests_per_s", rates.requests_per_s, "1/s");
}

/// The latency tails, reported by the traced run with no bound: on a
/// shared host they follow how long a sleeping thread waits for a CPU,
/// which changes from run to run far more than the program does.
pub fn tail_metrics(rep: &mut Report, hits: &Samples, misses: &Samples) {
    rep.metric("client.hit_p99_ms", hits.ms(0.99), "ms");
    rep.metric("client.miss_p90_ms", misses.ms(0.9), "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RunConfig {
        RunConfig { accesses: 20_000, warmup: 2_000, ..finepage_cfg(7) }
    }

    #[test]
    fn traced_loop_reproduces_the_driver() {
        let cfg = small();
        let mut spans = Spans::default();
        let (t, snap) = traced_run(&cfg, &mut spans);
        spans.fold();
        t.check_against(&run(&cfg)).unwrap();
        assert!(!snap.is_empty());
        assert_eq!(spans.total("core.access").calls, cfg.accesses);
    }

    #[test]
    fn traced_check_fires_on_a_counter_off_by_one() {
        let cfg = small();
        let r = run(&cfg);
        let (t, _) = traced_run(&cfg, &mut Spans::default());
        t.check_against(&r).unwrap();
        let mut bad = t;
        bad.controller.epochs += 1;
        assert!(bad.check_against(&r).is_err());
        let mut bad = t;
        bad.off.serviced -= 1;
        assert!(bad.check_against(&r).is_err());
        let mut bad = t;
        bad.swaps =
            bad.swaps.map(|s| SwapStats { sub_blocks_copied: s.sub_blocks_copied + 1, ..s });
        assert!(bad.check_against(&r).is_err());
    }

    #[test]
    fn conservation_checks_fire() {
        let cfg = small();
        let exp = Expect::of(&cfg);
        let r = run(&cfg);
        exp.check(&r).unwrap();
        let mut bad = r.clone();
        bad.controller.demand_off_lines += 1;
        assert!(exp.check(&bad).is_err());
        let mut bad = r.clone();
        bad.access.writes += 1;
        assert!(exp.check(&bad).is_err());
        let wrong_warmup = Expect { recorded: exp.recorded + 1, ..exp };
        assert!(wrong_warmup.check(&r).is_err());
    }

    #[test]
    fn eta_bounds_fire() {
        assert!(eta(200.0, 100.0, 150.0).is_ok());
        assert!(eta(200.0, 100.0, 200.0).is_err());
        assert!(eta(200.0, 100.0, 90.0).is_err());
    }

    #[test]
    fn upload_check_fires_on_one_changed_byte() {
        let bytes = record_trace(&small(), 1000);
        let id = TraceRegistry::memory().put(&bytes).map(|s| s.hash);
        check_upload(id.clone(), own_snap_hash(&bytes)).unwrap();
        let mut flipped = bytes.clone();
        flipped[10] ^= 1;
        assert!(check_upload(id, own_snap_hash(&flipped)).is_err());
    }

    #[test]
    fn digest_differs_on_one_changed_byte() {
        let body = render_run("{}", &run(&small()));
        let mut bytes = body.clone().into_bytes();
        bytes[body.len() / 2] ^= 1;
        assert_ne!(digest(&body), digest(&String::from_utf8(bytes).unwrap()));
    }
}
