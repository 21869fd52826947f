//! The three workloads. Each has the same three parts, weighted
//! differently: direct `run_sim` cells (simulator throughput), a campaign
//! sweep run cold and warm in fresh processes, and cache-hit GETs against
//! a daemon serving that sweep's cache.

use hdsmt_core::FetchPolicy;

/// One directly simulated cell.
pub struct SimCell {
    pub arch: &'static str,
    pub benches: Vec<&'static str>,
    /// `None`: the architecture's paper default (FLUSH on M8, L1MCOUNT on
    /// hdSMT machines).
    pub policy: Option<FetchPolicy>,
    /// Per-thread retire target; no warm-up, so every commit is timed.
    pub insts: u64,
    /// Per-thread stream seeds, derived from the workload seed.
    pub seeds: Vec<u64>,
}

pub struct Workload {
    pub cells: Vec<SimCell>,
    /// Campaign spec (TOML) run cold and warm each round.
    pub sweep_spec: String,
}

pub const NAMES: &[&str] = &["sim_compute", "sim_memory", "sweep_service"];

/// Instructions per benchmark of the miss profile behind the direct cells'
/// `heur` mappings: the program's default, which the sweeps use too.
pub const PROFILE_INSTS: u64 = hdsmt_core::mapping::PROFILE_LEN;

fn cell(
    seed: u64,
    idx: u64,
    arch: &'static str,
    benches: &[&'static str],
    policy: Option<FetchPolicy>,
    insts: u64,
) -> SimCell {
    let seeds = (0..benches.len() as u64)
        .map(|t| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (idx << 8 | t))
        .collect();
    SimCell { arch, benches: benches.to_vec(), policy, insts, seeds }
}

fn spec(
    name: &str,
    seed: u64,
    archs: &str,
    workloads: &str,
    policies: &str,
    budget: (u64, u64, u64),
    rv: bool,
) -> String {
    format!(
        "name = \"{name}\"\narchs = [{archs}]\nworkloads = [{workloads}]\npolicies = [{policies}]\n\
         seed = {seed}\nuse_rv_workloads = {rv}\n\n[budget]\n\
         measure_insts = {}\nwarmup_insts = {}\nsearch_insts = {}\n",
        budget.0, budget.1, budget.2
    )
}

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    const HDSMT_A: &str = "2M4+2M2";
    const HDSMT_B: &str = "1M6+2M4+2M2";
    let w = match name {
        // ILP-class Table 2 mixes and the RV64I kernels: host time goes to
        // trace generation, the emulator, branch prediction and the
        // fetch-to-commit pipeline; memory stalls and warps are rare.
        "sim_compute" => Workload {
            cells: vec![
                cell(seed, 0, "M8", &["eon", "gcc", "gzip", "bzip2"], None, 60_000),
                cell(seed, 1, HDSMT_A, &["eon", "gcc", "gzip", "bzip2"], None, 60_000),
                cell(seed, 2, HDSMT_B, &["crafty", "bzip2", "eon", "gzip"], None, 60_000),
                cell(seed, 3, "M8", &["rv:sum", "rv:matmul", "rv:fib", "rv:prime"], None, 60_000),
                cell(
                    seed,
                    4,
                    HDSMT_A,
                    &["rv:sort", "rv:matmul", "rv:prime", "rv:fib"],
                    None,
                    60_000,
                ),
            ],
            sweep_spec: spec(
                "perfbench-compute",
                seed,
                r#""M8", "2M4+2M2", "1M6+2M4+2M2""#,
                r#""4W1", "RV4""#,
                r#""heur""#,
                (20_000, 10_000, 4_000),
                true,
            ),
        },
        // MEM-class mixes: the memory hierarchy, MSHR-full replay storms,
        // FLUSH squash/refetch churn and the quiescence warp dominate.
        "sim_memory" => Workload {
            cells: vec![
                cell(
                    seed,
                    0,
                    "M8",
                    &["mcf", "mcf", "mcf", "mcf"],
                    Some(FetchPolicy::Icount),
                    80_000,
                ),
                cell(
                    seed,
                    1,
                    HDSMT_A,
                    &["mcf", "twolf", "mcf", "vpr"],
                    Some(FetchPolicy::Flush),
                    80_000,
                ),
            ],
            sweep_spec: spec(
                "perfbench-memory",
                seed,
                r#""M8", "2M4+2M2""#,
                r#""4W4", "4W5""#,
                r#""heur""#,
                (20_000, 10_000, 4_000),
                false,
            ),
        },
        // Oracle mapping search over small jobs: the campaign engine, cache
        // writes and reads, and the HTTP tier carry the time.
        "sweep_service" => Workload {
            cells: ["M8", HDSMT_A, "3M4"]
                .iter()
                .flat_map(|&arch| {
                    [&["eon", "gcc"][..], &["mcf", "twolf"][..], &["gzip", "twolf"][..]]
                        .into_iter()
                        .map(move |b| (arch, b))
                })
                .enumerate()
                .map(|(i, (arch, b))| cell(seed, i as u64, arch, b, None, 20_000))
                .collect(),
            sweep_spec: spec(
                "perfbench-sweep",
                seed,
                r#""M8", "2M4+2M2", "3M4""#,
                r#""2W1", "2W4", "2W7""#,
                r#""best", "heur", "worst""#,
                (8_000, 4_000, 3_000),
                false,
            ),
        },
        _ => return None,
    };
    Some(w)
}
