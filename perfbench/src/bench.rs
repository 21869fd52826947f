//! One benchmark run: set up, measure whole rounds until the time is up,
//! check every output, and report.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hdsmt_campaign::serve::http::{http_get, HttpClient, Request};
use hdsmt_campaign::serve::{api, Server, ServerConfig};
use hdsmt_campaign::{engine, expand, CampaignSpec, EntryLookup, JobSpec, ResultCache};
use hdsmt_core::{
    enumerate_mappings, heuristic_mapping, run_sim, MissProfile, Processor, SimConfig, SimResult,
    SimStats, ThreadSpec, WorkloadKind,
};
use hdsmt_mem::{MemConfig, MemHier};
use hdsmt_pipeline::MicroArch;
use hdsmt_riscv::{RvImage, RvTraceSource};
use hdsmt_trace::{ChunkBuf, TraceSource};

use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::sweep::{self, SweepReport};
use crate::workload::{Workload, PROFILE_INSTS};
use crate::{lru, rvref};

/// Cache-hit GETs per round, split over the clients.
const GETS_PER_ROUND: usize = 20;
/// Rounds run even when they overrun the measuring time: enough for 200
/// cache-hit GETs, so their 95th percentile has ten samples beyond it.
const MIN_ROUNDS: usize = 10;
/// Instructions drawn per thread for the stream-based checks and probes.
const PROBE_INSTS: u64 = 50_000;
/// Cached cells recomputed without the cache, per run.
const RECOMPUTE_SAMPLES: usize = 3;

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

struct Cell {
    cfg: SimConfig,
    specs: Vec<ThreadSpec>,
    mapping: Vec<u8>,
    /// Commit width of each pipeline.
    widths: Vec<u64>,
    label: String,
}

struct Setup {
    cells: Vec<Cell>,
    server: Server,
    spec_path: PathBuf,
    served: PathBuf,
    images: Vec<Arc<RvImage>>,
    image_build_ms: f64,
    profile_ms: f64,
    heur_us: f64,
    expand_us: f64,
    mappings_enumerated: u64,
}

fn setup(w: &Workload, work: &Path, tr: &mut Tracer) -> Result<Setup, String> {
    let t = Instant::now();
    let images = tr.timed("riscv.image_build", || {
        rvref::KERNELS
            .iter()
            .map(|(name, asm)| hdsmt_riscv::image_from_asm(name, asm))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let image_build_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut profile = tr.timed("core.profile_build", || MissProfile::build_with_len(PROFILE_INSTS));
    let profile_ms = t.elapsed().as_secs_f64() * 1e3;
    if w.cells.iter().any(|c| c.benches.iter().any(|b| b.starts_with("rv:"))) {
        profile = profile.with_rv_programs(PROFILE_INSTS);
    }

    let mut cells = Vec::new();
    let mut heur_s = 0.0;
    for c in &w.cells {
        let arch = MicroArch::parse(c.arch)?;
        let mut cfg = SimConfig::paper_defaults(arch.clone(), c.insts);
        cfg.warmup_insts = 0;
        if let Some(p) = c.policy {
            cfg.fetch_policy = p;
        }
        let mut specs = Vec::new();
        for (b, &seed) in c.benches.iter().zip(&c.seeds) {
            specs.push(match b.strip_prefix("rv:") {
                Some(k) => {
                    let image =
                        images.iter().find(|i| i.name == k).ok_or(format!("no kernel {k}"))?;
                    ThreadSpec {
                        name: b.to_string(),
                        kind: WorkloadKind::Riscv { image: image.clone() },
                        seed,
                    }
                }
                None => ThreadSpec::try_for_benchmark(b, seed)?,
            });
        }
        let t = Instant::now();
        let mapping =
            tr.timed("core.heuristic_mapping", || heuristic_mapping(&arch, &c.benches, &profile));
        heur_s += t.elapsed().as_secs_f64();
        // Built once here so a bad cell fails before anything is timed.
        drop(Processor::new(cfg.clone(), &specs, &mapping));
        cells.push(Cell {
            widths: arch.pipes.iter().map(|p| u64::from(p.width)).collect(),
            label: format!("{} {} {:?}", c.arch, c.benches.join("+"), cfg.fetch_policy),
            cfg,
            specs,
            mapping,
        });
    }

    let spec_path = work.join("sweep.toml");
    std::fs::write(&spec_path, &w.sweep_spec).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let expanded = tr
        .timed("campaign.spec_expand", || {
            let spec = CampaignSpec::parse(&w.sweep_spec)?;
            expand(&spec, &engine::catalog_for(&spec))
        })
        .map_err(|e| e.0)?;
    let expand_us = t.elapsed().as_secs_f64() * 1e6;
    let mut pairs = BTreeSet::new();
    let mut mappings_enumerated = 0;
    for c in &expanded {
        if pairs.insert((c.arch.clone(), c.workload.id.clone())) {
            let arch = MicroArch::parse(&c.arch)?;
            mappings_enumerated += enumerate_mappings(&arch, c.workload.threads()).len() as u64;
        }
    }

    let served = work.join("served");
    let server = tr
        .timed("serve.daemon_start", || {
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                cache_dir: served.to_string_lossy().into_owned(),
                ..ServerConfig::default()
            })
        })
        .map_err(|e| format!("daemon start: {e}"))?;
    Ok(Setup {
        heur_us: heur_s * 1e6 / w.cells.len() as f64,
        cells,
        server,
        spec_path,
        served,
        images,
        image_build_ms,
        profile_ms,
        expand_us,
        mappings_enumerated,
    })
}

/// Properties every simulation result must have, whatever the seed.
fn check_stats(c: &Cell, s: &SimStats) -> Result<(), String> {
    let budget = c.cfg.max_retired_per_thread;
    let sum: u64 = s.threads.iter().map(|t| t.retired).sum();
    if sum != s.retired || s.per_pipe_retired.iter().sum::<u64>() != s.retired {
        return Err("per-thread or per-pipeline retired counts do not sum to the total".into());
    }
    if !s.threads.iter().any(|t| t.retired >= budget) {
        return Err("no thread met its retire budget".into());
    }
    for (t, m) in s.threads.iter().zip(&c.mapping) {
        if t.retired >= budget + c.widths[*m as usize] {
            return Err(format!(
                "{} overshot its budget by a cycle's commit width or more",
                t.benchmark
            ));
        }
    }
    let ipc = s.ipc();
    if !(ipc > 0.0 && ipc <= c.widths.iter().sum::<u64>() as f64) {
        return Err(format!("IPC {ipc} outside (0, total commit width]"));
    }
    for (p, &r) in s.per_pipe_retired.iter().enumerate() {
        if r != 0 && !c.mapping.contains(&(p as u8)) {
            return Err(format!("pipeline {p} retired {r} with no thread mapped"));
        }
    }
    Ok(())
}

/// Simulator diagnostics of one traced run.
#[derive(Default, Clone, Copy)]
struct Diag {
    cycles: u64,
    warped: u64,
    warps: u64,
    quiescent: u64,
    fetched: u64,
    squashed: u64,
    wrong_path: u64,
    mispredicts: u64,
    dl1_misses: u64,
    l2_misses: u64,
    mshr_bounces: u64,
    retired: u64,
}

#[derive(Default)]
struct CellRec {
    retired: u64,
    secs: Vec<f64>,
    stats: Option<String>,
    traced_new: Vec<f64>,
    traced_run: Vec<f64>,
    /// `Processor::new` + `run` under spans, per round.
    traced: Vec<f64>,
    diag: Option<Diag>,
}

fn traced_cell(tr: &mut Tracer, c: &Cell, rec: &mut CellRec) -> Result<(), String> {
    let t0 = Instant::now();
    let mut p =
        tr.timed("core.processor_new", || Processor::new(c.cfg.clone(), &c.specs, &c.mapping));
    rec.traced_new.push(t0.elapsed().as_secs_f64());
    let t = Instant::now();
    let s = tr.timed("core.run", || p.run());
    rec.traced_run.push(t.elapsed().as_secs_f64());
    rec.traced.push(t0.elapsed().as_secs_f64());
    if rec.stats.as_deref() != Some(&serde_json::to_string(&s).map_err(|e| e.to_string())?) {
        return Err(format!("{}: Processor::run statistics differ from run_sim", c.label));
    }
    let ((_, d_full), (_, i_full)) = p.mshr_stats();
    rec.diag = Some(Diag {
        cycles: p.cycle(),
        warped: p.warped_cycles(),
        warps: p.warps(),
        quiescent: p.quiescent_steps(),
        fetched: s.threads.iter().map(|t| t.fetched).sum(),
        squashed: s.threads.iter().map(|t| t.squashed).sum(),
        wrong_path: s.threads.iter().map(|t| t.wrong_path_fetched).sum(),
        mispredicts: s.threads.iter().map(|t| t.mispredicts).sum(),
        dl1_misses: s.mem.load_l1_misses + s.mem.store_l1_misses,
        l2_misses: s.mem.load_l2_misses,
        mshr_bounces: d_full + i_full,
        retired: s.retired,
    });
    Ok(())
}

/// The expected `SimResult` (serialized) of every cell in the served cache.
fn served_results(dir: &Path) -> Result<BTreeMap<String, String>, String> {
    let cache = ResultCache::open(dir).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for (key, _) in cache.manifest(None) {
        let r = cache.get(&key).ok_or(format!("served cell {key} unreadable"))?;
        out.insert(key, serde_json::to_string(&r).map_err(|e| e.to_string())?);
    }
    if out.is_empty() {
        return Err("the sweep left no cells in the served cache".into());
    }
    Ok(out)
}

fn decode_cell(body: &str) -> Result<String, String> {
    let v = serde_json::from_str_value(body).map_err(|e| format!("cell body: {e}"))?;
    let r: SimResult = serde_json::from_value(v.get("result").ok_or("cell body lacks result")?)
        .map_err(|e| format!("cell result: {e}"))?;
    serde_json::to_string(&r).map_err(|e| e.to_string())
}

struct Batch {
    lat_us: Vec<f64>,
    wall_s: f64,
    failed: u64,
    problems: Vec<String>,
}

/// A closed loop of `clients` pooled keep-alive clients, each sending its
/// share of `n` cache-hit GETs back to back.
fn get_batch(
    addr: &str,
    expected: &BTreeMap<String, String>,
    keys: &[&String],
    n: usize,
    offset: usize,
    clients: usize,
) -> Batch {
    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, u64, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = HttpClient::new(addr);
                    let (mut lat, mut failed, mut problems) = (Vec::new(), 0, Vec::new());
                    for i in 0..n / clients {
                        let key = keys[(offset + c + clients * i) % keys.len()];
                        let path = format!("/cells/{key}");
                        let t = Instant::now();
                        let resp = client.request("GET", &path, None);
                        let us = t.elapsed().as_secs_f64() * 1e6;
                        match resp {
                            Ok(r) if r.status == 200 => {
                                lat.push(us);
                                match decode_cell(&r.body) {
                                    Ok(got) if got == expected[key] => {}
                                    Ok(_) => problems.push(format!("GET {path}: wrong result")),
                                    Err(e) => problems.push(format!("GET {path}: {e}")),
                                }
                            }
                            Ok(r) => {
                                failed += 1;
                                problems.push(format!("GET {path}: status {}", r.status));
                            }
                            Err(e) => {
                                failed += 1;
                                problems.push(format!("GET {path}: {e}"));
                            }
                        }
                    }
                    (lat, failed, problems)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut b = Batch {
        lat_us: Vec::new(),
        wall_s: t0.elapsed().as_secs_f64(),
        failed: 0,
        problems: Vec::new(),
    };
    for (lat, failed, problems) in per_client {
        b.lat_us.extend(lat);
        b.failed += failed;
        b.problems.extend(problems);
    }
    b
}

/// Correct-path streams of the workload's threads: branch outcomes and
/// data addresses, plus the host time of the synthetic generators' fills.
#[derive(Default)]
struct Streams {
    synth_insts: u64,
    synth_s: f64,
    /// `(predictor key, thread, taken)` of conditional branches.
    branches: Vec<(u64, usize, bool)>,
    /// `(address, is_store)` of loads and stores.
    accesses: Vec<(u64, bool)>,
}

/// Pull `n` instructions from `src` through `fill`; returns fill seconds.
fn drain(src: &mut dyn TraceSource, n: u64, tid: usize, mut out: Option<&mut Streams>) -> f64 {
    let mut buf = ChunkBuf::new();
    let (mut got, mut secs) = (0, 0.0);
    while got < n {
        buf.reset();
        let t = Instant::now();
        src.fill(&mut buf);
        secs += t.elapsed().as_secs_f64();
        while let Some(d) = buf.pop() {
            got += 1;
            let Some(s) = out.as_deref_mut() else { continue };
            if d.sinst.op == hdsmt_isa::Op::CondBranch {
                let taken = d.ctrl.is_some_and(|c| c.taken);
                s.branches.push((hdsmt_bpred::branch_key(d.pc, tid as u8), tid, taken));
            } else if d.sinst.op.is_mem() {
                s.accesses.push((d.addr, d.sinst.op.is_store()));
            }
        }
    }
    secs
}

fn collect_streams(cells: &[Cell]) -> Streams {
    let mut s = Streams::default();
    for c in cells {
        for (tid, spec) in c.specs.iter().enumerate() {
            let mut src = spec.build_source(tid as u8);
            let secs = drain(src.as_mut(), PROBE_INSTS, tid, Some(&mut s));
            if matches!(spec.kind, WorkloadKind::Synthetic { .. }) {
                s.synth_s += secs;
                s.synth_insts += PROBE_INSTS;
            }
        }
    }
    s
}

/// Sample cached cells, recompute each from its own descriptor without
/// the cache, and compare.
fn recompute_samples(dir: &Path, expected: &BTreeMap<String, String>) -> Result<(), String> {
    let cache = ResultCache::open(dir).map_err(|e| e.to_string())?;
    let keys: Vec<&String> = expected.keys().collect();
    let n = RECOMPUTE_SAMPLES.min(keys.len());
    for i in 0..n {
        let key = keys[i * keys.len() / n];
        let EntryLookup::Hit(text) = cache.entry_text_local(key) else {
            return Err(format!("cell {key} vanished from the cache"));
        };
        let v = serde_json::from_str_value(&text).map_err(|e| e.to_string())?;
        let job: JobSpec =
            serde_json::from_value(v.get("descriptor").ok_or("entry lacks descriptor")?)
                .map_err(|e| format!("descriptor: {e}"))?;
        let fresh = job.run_uncached().map_err(|e| e.0)?;
        if serde_json::to_string(&fresh).map_err(|e| e.to_string())? != expected[key] {
            return Err(format!("cell {key} differs from its uncached recomputation"));
        }
    }
    Ok(())
}

pub struct Opts {
    pub workload: Workload,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub spans_path: PathBuf,
}

pub fn run(o: &Opts) -> Result<Report, String> {
    let w = &o.workload;
    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut tr = Tracer::new(o.trace);
    let timed_setup = |tr: &mut Tracer, work: &Path| {
        let t = Instant::now();
        tr.open("bench.setup");
        let s = setup(w, work, tr);
        tr.close();
        s.map(|s| (s, t.elapsed().as_secs_f64()))
    };
    let (s, secs) = timed_setup(&mut tr, &o.work)?;
    let mut setup_secs = vec![secs];
    let addr = s.server.addr().to_string();
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);

    let mut recs: Vec<CellRec> = s.cells.iter().map(|_| CellRec::default()).collect();
    let (mut colds, mut warms): (Vec<SweepReport>, Vec<SweepReport>) = (Vec::new(), Vec::new());
    let mut expected: BTreeMap<String, String> = BTreeMap::new();
    let (mut lat_us, mut get_wall) = (Vec::new(), 0.0);
    let mut gets_sent = 0usize;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(o.seconds);
    let mut round = 0;
    loop {
        tr.rep = Some(round as u64);
        tr.open("bench.round");
        for (c, rec) in s.cells.iter().zip(recs.iter_mut()) {
            attempted += 1;
            // No span: in a traced run this is the untraced side that
            // `tracing.overhead_pct` compares against.
            let t = Instant::now();
            let r = run_sim(&c.cfg, &c.specs, &c.mapping);
            rec.secs.push(t.elapsed().as_secs_f64());
            rec.retired = r.stats.retired;
            let text = serde_json::to_string(&r.stats).map_err(|e| e.to_string())?;
            match &rec.stats {
                None => {
                    if let Err(e) = check_stats(c, &r.stats) {
                        problems.push(format!("{}: {e}", c.label));
                    }
                    rec.stats = Some(text);
                }
                Some(first) if *first != text => {
                    problems.push(format!("{}: statistics differ between repetitions", c.label))
                }
                Some(_) => {}
            }
            if o.trace {
                if let Err(e) = traced_cell(&mut tr, c, rec) {
                    problems.push(e);
                }
            }
        }

        let dir = if round == 0 { s.served.clone() } else { o.work.join(format!("sweep-{round}")) };
        attempted += 2;
        let cold = tr.timed("campaign.cold_sweep", || sweep::run(&s.spec_path, &dir));
        let warm = tr.timed("campaign.warm_sweep", || sweep::run(&s.spec_path, &dir));
        match (cold, warm) {
            (Ok(c), Ok(wm)) => {
                // On an empty cache every distinct job simulates once;
                // a repeat of one within the sweep is a hit.
                let entries = ResultCache::open(&dir).map_or(0, |c| c.len() as u64);
                if c.failed_cells != 0
                    || c.simulated != c.misses
                    || c.simulated != entries
                    || c.hits + c.misses != c.jobs
                {
                    problems.push(format!(
                        "cold sweep: {} failed cells; {} simulated, {} misses, {} hits of {} jobs; \
                         {entries} cache entries",
                        c.failed_cells, c.simulated, c.misses, c.hits, c.jobs
                    ));
                }
                if wm.misses != 0 || wm.simulated != 0 || wm.hits != wm.jobs {
                    problems.push(format!(
                        "warm sweep: {} misses, {} simulated",
                        wm.misses, wm.simulated
                    ));
                }
                if c.cells != wm.cells {
                    problems.push("warm sweep results differ from the cold sweep's".into());
                }
                if colds.first().is_some_and(|f| f.cells != c.cells) {
                    problems.push("cold sweep results differ between rounds".into());
                }
                colds.push(c);
                warms.push(wm);
            }
            (cold, warm) => {
                for e in [cold.err(), warm.err()].into_iter().flatten() {
                    failed += 1;
                    problems.push(e);
                }
            }
        }
        if round == 0 {
            match served_results(&s.served) {
                Ok(e) => expected = e,
                Err(e) => problems.push(e),
            }
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }

        if !expected.is_empty() {
            let keys: Vec<&String> = expected.keys().collect();
            let b = tr.timed("serve.get_batch", || {
                get_batch(&addr, &expected, &keys, GETS_PER_ROUND, gets_sent, clients)
            });
            attempted += (GETS_PER_ROUND / clients * clients) as u64;
            gets_sent += GETS_PER_ROUND;
            failed += b.failed;
            problems.extend(b.problems);
            lat_us.extend(b.lat_us);
            get_wall += b.wall_s;
        }
        tr.close();
        // One set-up before the rounds and one after each, so they sample
        // the same stretch of host time as the rounds do; each replica on an
        // empty directory of its own, as the first was.
        tr.rep = None;
        let dir = o.work.join(format!("setup-{round}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let (again, secs) = timed_setup(&mut tr, &dir)?;
        setup_secs.push(secs);
        again.server.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!(
            "round {round}: cells {:.4} s, cold {:.4} s, warm {:.4} s",
            recs.iter().map(|r| r.secs[round]).sum::<f64>(),
            colds.last().map_or(0.0, |r| r.secs),
            warms.last().map_or(0.0, |r| r.secs),
        );
        round += 1;
        if round >= MIN_ROUNDS && Instant::now() >= deadline {
            break;
        }
    }

    // Read before the checks and probes below, whose stream buffers would
    // otherwise set the high-water mark.
    let own_rss = sweep::peak_rss_mb();

    // ---- checks made after the measured rounds ----
    if !expected.is_empty() {
        if let Err(e) = recompute_samples(&s.served, &expected) {
            problems.push(e);
        }
    }
    for image in &s.images {
        if let Err(e) = rvref::check_lap(image, 1) {
            problems.push(e);
        }
    }
    tr.rep = None;
    let streams = tr.timed("trace.fill", || collect_streams(&s.cells));
    let addrs: Vec<u64> = streams.accesses.iter().map(|&(a, _)| a).collect();
    let (sim, reference) = lru::replay_both(MemConfig::default().l1d, &addrs);
    if sim != reference {
        problems.push(format!(
            "L1-D hits/misses {sim:?} differ from the reference LRU model's {reference:?}"
        ));
    }

    let mut metrics = Vec::new();
    if o.trace {
        metrics = layer_metrics(&mut tr, &s, &recs, &colds, &warms, &expected, &streams)?;
        std::fs::write(&o.spans_path, tr.to_jsonl()).map_err(|e| e.to_string())?;
        eprintln!("layer       self_s  spans   (spans in {})", o.spans_path.display());
        for (layer, (secs, n)) in tr.self_time_by_layer() {
            eprintln!("{layer:<10} {secs:>7.3} {n:>6}");
        }
    }
    s.server.shutdown_and_join();

    let kips = {
        let retired: u64 = recs.iter().map(|r| r.retired).sum();
        let secs: f64 = recs.iter().map(|r| median(&r.secs)).sum();
        retired as f64 / secs / 1e3
    };
    let or0 = |xs: &[f64], f: fn(&[f64]) -> f64| if xs.is_empty() { 0.0 } else { f(xs) };
    let cold_s: Vec<f64> = colds.iter().map(|r| r.secs).collect();
    let warm_s: Vec<f64> = warms.iter().map(|r| r.secs).collect();
    let child_rss = colds.iter().chain(&warms).map(|r| r.rss_mb).fold(0.0, f64::max);
    let e2e = vec![
        ("sim_kips", kips, "kinst/s"),
        ("sweep_cold_s", or0(&cold_s, median), "s"),
        ("sweep_warm_s", or0(&warm_s, median), "s"),
        ("cell_hit_p50_us", or0(&lat_us, median), "us"),
        ("cell_hit_p95_us", or0(&lat_us, |x| quantile(x, 0.95)), "us"),
        ("cell_hit_rps", lat_us.len() as f64 / get_wall.max(f64::MIN_POSITIVE), "1/s"),
        ("setup_s", median(&setup_secs), "s"),
        ("peak_rss_mb", own_rss.max(child_rss), "MiB"),
    ];
    eprintln!(
        "{round} rounds, {} GETs, {} sweeps each way; setups {:?}",
        lat_us.len(),
        colds.len(),
        setup_secs
    );
    for (name, v, unit) in &e2e {
        eprintln!("  {name:<16} {v:>14.4} {unit}");
    }
    if o.trace {
        // Same statistic as `sim_kips`: per-cell median round, summed.
        let untraced: f64 = recs.iter().map(|r| median(&r.secs)).sum();
        let traced: f64 = recs.iter().map(|r| median(&r.traced)).sum();
        metrics.push(("tracing.overhead_pct", (traced / untraced - 1.0) * 100.0, "%"));
    } else {
        metrics = e2e;
    }
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    Ok(Report { correct: problems.is_empty(), attempted, failed, metrics })
}

fn layer_metrics(
    tr: &mut Tracer,
    s: &Setup,
    recs: &[CellRec],
    colds: &[SweepReport],
    warms: &[SweepReport],
    expected: &BTreeMap<String, String>,
    streams: &Streams,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    tr.rep = None;
    let mut m = Vec::new();

    // trace / riscv
    m.push((
        "trace.fill_ns_per_inst",
        streams.synth_s * 1e9 / streams.synth_insts.max(1) as f64,
        "ns",
    ));
    let (mut rv_s, mut rv_n) = (0.0, 0);
    for image in &s.images {
        let mut src = RvTraceSource::new(image.clone(), 1, 0);
        rv_s += tr.timed("riscv.fill", || drain(&mut src, PROBE_INSTS, 0, None));
        rv_n += PROBE_INSTS;
    }
    m.push(("riscv.fill_ns_per_inst", rv_s * 1e9 / rv_n as f64, "ns"));
    m.push(("riscv.image_build_ms", s.image_build_ms, "ms"));

    // bpred
    let mut pred = hdsmt_bpred::PerceptronPredictor::new(8);
    let t = Instant::now();
    tr.timed("bpred.replay", || {
        for &(key, tid, taken) in &streams.branches {
            let (p, snap) = pred.predict(tid, key);
            pred.spec_update(tid, p);
            if p != taken {
                pred.recover(tid, &snap, taken);
            }
            pred.train(key, &snap, taken);
        }
    });
    let ns = t.elapsed().as_secs_f64() * 1e9;
    m.push(("bpred.ns_per_branch", ns / streams.branches.len().max(1) as f64, "ns"));
    let diags: Vec<Diag> = recs.iter().filter_map(|r| r.diag).collect();
    let sum = |f: fn(&Diag) -> u64| diags.iter().map(f).sum::<u64>() as f64;
    m.push(("bpred.mispredicts", sum(|d| d.mispredicts), "count"));

    // mem
    let mut hier = MemHier::new(MemConfig::default());
    let t = Instant::now();
    tr.timed("mem.replay", || {
        for (i, &(addr, store)) in streams.accesses.iter().enumerate() {
            std::hint::black_box(if store {
                hier.store(addr, i as u64)
            } else {
                hier.load(addr, i as u64)
            });
        }
    });
    let ns = t.elapsed().as_secs_f64() * 1e9;
    m.push(("mem.ns_per_access", ns / streams.accesses.len().max(1) as f64, "ns"));
    m.push(("mem.dl1_misses", sum(|d| d.dl1_misses), "count"));
    m.push(("mem.l2_misses", sum(|d| d.l2_misses), "count"));
    m.push(("mem.mshr_bounces", sum(|d| d.mshr_bounces), "count"));

    // core
    let run_ns: f64 = recs.iter().map(|r| median(&r.traced_run) * 1e9).sum();
    let new_ms: f64 = recs.iter().map(|r| median(&r.traced_new) * 1e3).sum();
    m.push(("core.processor_new_ms", new_ms, "ms"));
    m.push(("core.ns_per_stepped_cycle", run_ns / (sum(|d| d.cycles) - sum(|d| d.warped)), "ns"));
    m.push(("core.ns_per_retired", run_ns / sum(|d| d.retired), "ns"));
    m.push(("core.cycles", sum(|d| d.cycles), "count"));
    m.push(("core.warped_cycles", sum(|d| d.warped), "count"));
    m.push(("core.warps", sum(|d| d.warps), "count"));
    m.push(("core.quiescent_steps", sum(|d| d.quiescent), "count"));
    m.push(("core.fetched", sum(|d| d.fetched), "count"));
    m.push(("core.squashed", sum(|d| d.squashed), "count"));
    m.push(("core.wrong_path_fetched", sum(|d| d.wrong_path), "count"));
    m.push(("core.profile_build_ms", s.profile_ms, "ms"));
    m.push(("core.heuristic_mapping_us", s.heur_us, "us"));
    m.push(("core.mappings_enumerated", s.mappings_enumerated as f64, "count"));

    // campaign
    let (Some(cold0), Some(warm0)) = (colds.first(), warms.first()) else {
        return Err("no sweep completed, so the campaign layer has no figures".into());
    };
    if expected.is_empty() {
        return Err("no served cells, so the cache and serve layers have no figures".into());
    }
    let med = |f: fn(&SweepReport) -> f64| median(&colds.iter().map(f).collect::<Vec<_>>());
    m.push(("campaign.spec_expand_us", s.expand_us, "us"));
    m.push(("campaign.search_s", med(|r| r.search_s), "s"));
    m.push(("campaign.measure_s", med(|r| r.measure_s), "s"));
    m.push(("campaign.search_jobs", cold0.search_jobs as f64, "count"));
    m.push(("campaign.cells", cold0.n_cells as f64, "count"));
    let cache = ResultCache::open(&s.served).map_err(|e| e.to_string())?;
    let t = Instant::now();
    tr.timed("campaign.cache_get", || {
        for key in expected.keys() {
            std::hint::black_box(cache.get(key));
        }
    });
    m.push((
        "campaign.cache_get_us",
        t.elapsed().as_secs_f64() * 1e6 / expected.len() as f64,
        "us",
    ));
    let mut entries = Vec::new();
    for key in expected.keys() {
        if let EntryLookup::Hit(text) = cache.entry_text_local(key) {
            let v = serde_json::from_str_value(&text).map_err(|e| e.to_string())?;
            let d = v.get("descriptor").ok_or("entry lacks descriptor")?;
            let r: SimResult = serde_json::from_value(v.get("result").ok_or("entry lacks result")?)
                .map_err(|e| e.to_string())?;
            entries.push((key, serde_json::to_string(d).map_err(|e| e.to_string())?, r));
        }
    }
    let scratch =
        ResultCache::open(s.served.with_file_name("put-probe")).map_err(|e| e.to_string())?;
    let t = Instant::now();
    tr.timed("campaign.cache_put", || -> Result<(), String> {
        for (key, d, r) in &entries {
            scratch.put(key, d, r).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    m.push((
        "campaign.cache_put_us",
        t.elapsed().as_secs_f64() * 1e6 / entries.len().max(1) as f64,
        "us",
    ));
    m.push(("campaign.cache_hits", (cold0.hits + warm0.hits) as f64, "count"));
    m.push(("campaign.cache_misses", (cold0.misses + warm0.misses) as f64, "count"));
    m.push(("campaign.export_ms", med(|r| r.export_ms), "ms"));

    // serve
    let keys: Vec<&String> = expected.keys().collect();
    let state = s.server.state();
    let t = Instant::now();
    let n_handle = 200;
    tr.timed("serve.handler", || {
        for i in 0..n_handle {
            let req = Request {
                method: "GET".into(),
                path: format!("/cells/{}", keys[i % keys.len()]),
                query: String::new(),
                body: Vec::new(),
                keep_alive: true,
            };
            std::hint::black_box(api::handle(state, &req));
        }
    });
    m.push(("serve.cell_handler_us", t.elapsed().as_secs_f64() * 1e6 / n_handle as f64, "us"));
    let addr = s.server.addr().to_string();
    let mut oneshot = Vec::new();
    tr.timed("serve.oneshot", || {
        for key in keys.iter().take(20) {
            let t = Instant::now();
            let ok = matches!(http_get(&addr, &format!("/cells/{key}")), Ok((200, _)));
            oneshot.push((t.elapsed().as_secs_f64() * 1e6, ok));
        }
    });
    let mut client = HttpClient::new(&addr);
    let mut pooled = Vec::new();
    tr.timed("serve.healthz_pooled", || {
        for i in 0..21 {
            let t = Instant::now();
            let ok = matches!(client.request("GET", "/healthz", None), Ok(r) if r.status == 200);
            // The first request opens the connection; the rest reuse it.
            if i > 0 {
                pooled.push((t.elapsed().as_secs_f64() * 1e6, ok));
            }
        }
    });
    drop(client);
    if oneshot.iter().chain(&pooled).any(|&(_, ok)| !ok) {
        return Err("a serve-layer probe request failed".into());
    }
    let us = |v: &[(f64, bool)]| median(&v.iter().map(|&(t, _)| t).collect::<Vec<_>>());
    m.push(("serve.cell_oneshot_us", us(&oneshot), "us"));
    m.push(("serve.healthz_pooled_us", us(&pooled), "us"));
    Ok(m)
}
