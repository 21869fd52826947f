//! One campaign sweep, run the way `hdsmt-campaign run` runs it, in a
//! child process of its own so per-process work (spec parse, the miss
//! profile) is paid on every sweep as a user pays it.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

use hdsmt_campaign::ResultCache;
use hdsmt_campaign::{engine, export, CampaignProgress, CampaignSpec, JobOutcome, JobRunner};
use serde_json::Value;

/// What a sweep child reports.
pub struct SweepReport {
    pub secs: f64,
    pub rss_mb: f64,
    pub hits: u64,
    pub misses: u64,
    pub jobs: u64,
    pub simulated: u64,
    pub failed_cells: u64,
    /// Serialized `CellResult`s.
    pub cells: Value,
    // Phase figures for the traced report.
    pub search_s: f64,
    pub measure_s: f64,
    pub search_jobs: u64,
    pub n_cells: u64,
    pub export_ms: f64,
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Phase boundaries from the engine's progress callbacks.
#[derive(Default)]
struct Phases {
    t0: Option<Instant>,
    planned: Option<f64>,
    search_jobs: u64,
    first_cell: Option<f64>,
    last_cell: f64,
}

struct Observer(Mutex<Phases>);

impl Observer {
    fn at(&self, f: impl FnOnce(&mut Phases, f64)) {
        let mut p = self.0.lock().expect("observer lock poisoned");
        let now = p.t0.get_or_insert_with(Instant::now).elapsed().as_secs_f64();
        f(&mut p, now);
    }
}

impl CampaignProgress for Observer {
    fn search_planned(&self, jobs: usize) {
        self.at(|p, now| {
            p.planned = Some(now);
            p.search_jobs = jobs as u64;
        });
    }
    fn cell_started(&self, _cell: usize) {
        self.at(|p, now| {
            p.first_cell.get_or_insert(now);
        });
    }
    fn cell_finished(&self, _cell: usize, _outcome: JobOutcome) {
        self.at(|p, now| p.last_cell = now);
    }
}

/// Child side: run the campaign in `spec_path` on the cache at `cache_dir`
/// and print one JSON report line.
pub fn child(spec_path: &str, cache_dir: &str) -> Result<(), String> {
    let t0 = Instant::now();
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let mut spec = CampaignSpec::parse(&text).map_err(|e| e.0)?;
    spec.cache_dir = Some(cache_dir.to_string());
    let cache = ResultCache::open(cache_dir).map_err(|e| e.to_string())?;
    let catalog = engine::catalog_for(&spec);
    let runner = JobRunner::new(spec.workers.unwrap_or(0) as usize, Some(cache.clone()));
    let observer = Observer(Mutex::new(Phases { t0: Some(t0), ..Phases::default() }));
    let result = engine::run_campaign_observed(&spec, &catalog, &runner, None, &observer)
        .map_err(|e| e.0)?;
    std::hint::black_box(export::summary(&result));
    let secs = t0.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();

    let t_export = Instant::now();
    std::hint::black_box(export::to_json(&result));
    std::hint::black_box(export::to_csv(&result));
    let export_ms = t_export.elapsed().as_secs_f64() * 1e3;
    let p = observer.0.into_inner().expect("observer lock poisoned");
    let planned = p.planned.unwrap_or(0.0);
    let first = p.first_cell.unwrap_or(planned);
    let c = cache.counters();
    let cells = serde_json::to_string(&result.cells).map_err(|e| e.to_string())?;
    println!(
        "{{\"secs\":{secs},\"rss_mb\":{rss_mb},\"hits\":{},\"misses\":{},\"jobs\":{},\"simulated\":{},\
         \"failed_cells\":{},\"search_s\":{},\"measure_s\":{},\"search_jobs\":{},\"n_cells\":{},\
         \"export_ms\":{export_ms},\"cells\":{cells}}}",
        c.hits,
        c.misses,
        result.report.total,
        result.report.simulated,
        result.failed_cells(),
        first - planned,
        p.last_cell - first,
        p.search_jobs,
        result.cells.len(),
    );
    Ok(())
}

/// Parent side: run one sweep child and wait for it.
pub fn run(spec_path: &Path, cache_dir: &Path) -> Result<SweepReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--sweep-child")
        .arg(spec_path)
        .arg(cache_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the sweep child: {e}"))?;
    if !out.status.success() {
        return Err(format!("sweep child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("sweep child printed nothing")?;
    let v = serde_json::from_str_value(line).map_err(|e| format!("sweep report: {e}"))?;
    let f = |k: &str| v.get(k).and_then(Value::as_f64).ok_or(format!("sweep report lacks {k}"));
    let u = |k: &str| v.get(k).and_then(Value::as_u64).ok_or(format!("sweep report lacks {k}"));
    Ok(SweepReport {
        secs: f("secs")?,
        rss_mb: f("rss_mb")?,
        hits: u("hits")?,
        misses: u("misses")?,
        jobs: u("jobs")?,
        simulated: u("simulated")?,
        failed_cells: u("failed_cells")?,
        cells: v.get("cells").cloned().ok_or("sweep report lacks cells")?,
        search_s: f("search_s")?,
        measure_s: f("measure_s")?,
        search_jobs: u("search_jobs")?,
        n_cells: u("n_cells")?,
        export_ms: f("export_ms")?,
    })
}
