//! The three workloads and one live run of each: launch a loopback
//! cluster through `ClusterBuilder`, drive it with the generator, join
//! it, check it, and reduce what the client saw to the end-to-end
//! metrics.

use crate::gen::{self, GenPlan, GenResult, Load};
use crate::reduce::{self, Accounting, Percentile, UpSchedule, Window};
use iniva::protocol::InivaConfig;
use iniva_consensus::types::vote_message;
use iniva_crypto::bls::{BlsAggregate, BlsScheme};
use iniva_crypto::multisig::{BatchOutcome, VoteScheme, WireScheme};
use iniva_crypto::sim_scheme::SimScheme;
use iniva_ingress::IngressOptions;
use iniva_net::faults::FaultPlan;
use iniva_net::wire::Codec;
use iniva_net::{NodeId, SECS};
use iniva_sim::resilience::{variant_config, Variant};
use iniva_transport::cluster::{ClusterBuilder, ClusterRun, ObsOptions, CLUSTER_SEED};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Payload bytes of every submit (one fee level, one size).
pub const PAYLOAD: usize = 64;

/// The window is cut into this many slices; `commit_p99_ms` and
/// `outage_ms` are the medians of their per-slice values.
pub const SLICES: usize = 10;

/// A restarted replica counts as at the tip when it is at most this many
/// blocks behind the replicas that never crashed (the three-chain commit
/// rule leaves a short pipeline in flight when the run stops).
const TIP_SLACK_BLOCKS: u64 = 5;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// n=4, modelled crypto, open loop at 4000 req/s: the client path.
    Steady,
    /// n=4, real BLS pairings, closed loop: crypto-bound capacity.
    BlsClosed,
    /// n=21 with WAL, two replicas down and a third crashing and
    /// restarting from disk: the fallback and recovery paths.
    CrashWal,
}

impl Workload {
    /// Parses a CLI workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "steady" => Some(Workload::Steady),
            "bls-closed" => Some(Workload::BlsClosed),
            "crash-wal" => Some(Workload::CrashWal),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::BlsClosed => "bls-closed",
            Workload::CrashWal => "crash-wal",
        }
    }
}

/// The fault schedule of a run, in seconds since launch.
#[derive(Clone, Debug, Default)]
pub struct Faults {
    /// Replicas crashed at time zero that never come back.
    pub down_from_start: Vec<NodeId>,
    /// The replica crashed during the window and restarted from its WAL,
    /// with the crash and restart instants.
    pub restarted: Option<(NodeId, f64, f64)>,
}

impl Faults {
    fn plan(&self) -> FaultPlan {
        let ns = |s: f64| (s * SECS as f64) as u64;
        let mut plan = FaultPlan::new();
        for &id in &self.down_from_start {
            plan = plan.crash(0, id);
        }
        if let Some((id, crash, restart)) = self.restarted {
            plan = plan.crash(ns(crash), id).restart_from_disk(ns(restart), id);
        }
        plan
    }

    fn up_schedule(&self, n: usize) -> UpSchedule {
        let mut up = UpSchedule::all_up(n);
        if !self.down_from_start.is_empty() {
            up = up.down(0.0, self.down_from_start.len());
        }
        if let Some((_, crash, restart)) = self.restarted {
            up = up.down(crash, 1).up(restart, 1);
        }
        up
    }

    /// Replicas the plan touches at any point.
    pub fn touched(&self) -> Vec<NodeId> {
        let mut t = self.down_from_start.clone();
        t.extend(self.restarted.map(|(id, _, _)| id));
        t
    }
}

/// One workload's complete shape for one seed and window length.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Replica configuration.
    pub cfg: InivaConfig,
    /// Offered load.
    pub load: Load,
    /// Ingress tier options (limiter above the offered rate).
    pub ingress: IngressOptions,
    /// Journal commits to a WAL.
    pub wal: bool,
    /// Fault schedule.
    pub faults: Faults,
    /// Replicas the generator connects to (never touched by the faults).
    pub clients: Vec<NodeId>,
    /// Window start, in seconds after launch (set-up plus warm-up).
    pub warm_s: f64,
    /// Window length in seconds.
    pub secs: f64,
    /// Drain allowance after the window, in seconds.
    pub drain_s: f64,
    /// Life of a set-up probe cluster, in seconds.
    pub probe_s: f64,
    /// Mempool depth the cells hold while timing admission and drafting:
    /// the requests in flight at the workload's operating point (Little's
    /// law: offered rate × median commit latency, or the closed window).
    pub queue_depth: usize,
}

impl Spec {
    /// The workload's shape for `seed` with a `secs`-second window.
    pub fn new(workload: Workload, seed: u64, secs: f64) -> Spec {
        let limiter = |rate: u64, burst: u64| IngressOptions {
            capacity: 65_536,
            rate_per_client: rate,
            burst,
        };
        match workload {
            Workload::Steady => {
                let cfg = InivaConfig::for_tests(4, 1);
                let members = FaultPlan::shuffled_members(cfg.n, seed);
                Spec {
                    workload,
                    cfg,
                    load: Load::Open { rate: 4000.0 },
                    // 2000 req/s per connection; the bucket admits double.
                    ingress: limiter(4000, 4000),
                    wal: false,
                    faults: Faults::default(),
                    clients: members[..2].to_vec(),
                    warm_s: 3.0,
                    secs,
                    drain_s: 1.0,
                    probe_s: 0.5,
                    queue_depth: 160,
                }
            }
            Workload::BlsClosed => {
                let mut cfg = InivaConfig::for_tests(4, 1);
                cfg.tune_for_real_crypto();
                let members = FaultPlan::shuffled_members(cfg.n, seed);
                Spec {
                    workload,
                    cfg,
                    load: Load::Closed { window: 300 },
                    ingress: limiter(4000, 1000),
                    wal: false,
                    faults: Faults::default(),
                    clients: members[..2].to_vec(),
                    warm_s: 5.0,
                    secs,
                    drain_s: 3.5,
                    probe_s: 1.5,
                    queue_depth: 600,
                }
            }
            Workload::CrashWal => {
                let mut cfg = variant_config(Variant::Delta5);
                cfg.cost = cfg.cost.scaled(0.05);
                // The seed picks the victims' offset k in 1..=6; the three
                // victims sit a third of the committee apart (k, k+7,
                // k+14), so under round-robin no two dead replicas lead
                // consecutive views and the first seven views all have
                // live leaders, whatever the seed. Victims drawn freely
                // make the outage a property of the draw (two adjacent
                // dead leaders double it) rather than of the system.
                let k = 1 + FaultPlan::shuffled_members(6, seed)[0];
                let third = cfg.n as NodeId / 3;
                let warm_s = 4.0;
                Spec {
                    workload,
                    cfg,
                    load: Load::Open { rate: 1000.0 },
                    ingress: limiter(2000, 2000),
                    wal: true,
                    faults: Faults {
                        down_from_start: vec![k + third, k + 2 * third],
                        restarted: Some((k, warm_s + 0.25 * secs, warm_s + 0.5 * secs)),
                    },
                    clients: vec![k + 1, k + 2],
                    warm_s,
                    secs,
                    drain_s: 3.0,
                    probe_s: 1.0,
                    queue_depth: 310,
                }
            }
        }
    }

    /// The measured window and drain deadline.
    pub fn window(&self) -> Window {
        Window {
            start: self.warm_s,
            end: self.warm_s + self.secs,
            deadline: self.warm_s + self.secs + self.drain_s,
        }
    }

    /// Replicas that never crash.
    pub fn never_crashed(&self) -> Vec<usize> {
        let touched = self.faults.touched();
        (0..self.cfg.n as NodeId)
            .filter(|id| !touched.contains(id))
            .map(|id| id as usize)
            .collect()
    }
}

/// End-to-end figures of one run, reduced from the client's records.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Launch → first warm-up `Committed` (s).
    pub setup_s: f64,
    /// Due → `Committed` median with tail support.
    pub p50: Percentile,
    /// Due → `Committed` 99th percentile over the whole window, with
    /// tail support.
    pub p99: Percentile,
    /// The 99th percentile of each window slice (s).
    pub slice_p99_s: Vec<f64>,
    /// The median of `slice_p99_s` (s).
    pub commit_p99_s: f64,
    /// `Committed` pushes per second inside the window.
    pub committed_rps: f64,
    /// Window submit accounting.
    pub acc: Accounting,
    /// Mean QC signers over replicas up, for blocks committed in window.
    pub vote_inclusion: f64,
    /// Gaps between consecutive block commits in the window, longest
    /// first (s).
    pub gaps_s: Vec<f64>,
    /// The [`reduce::OUTAGE_QUANTILE`] of those gaps (s).
    pub window_outage_s: f64,
    /// The [`reduce::OUTAGE_QUANTILE`] of each window slice's gaps (s).
    pub slice_outage_s: Vec<f64>,
    /// The median of `slice_outage_s` (s).
    pub outage_s: f64,
    /// Generator lateness p99 (s).
    pub late_p99_s: f64,
}

/// Server-side facts the traced reduction and the checks need.
pub struct RunFacts {
    /// Agreed committed prefix of the replicas that never crashed.
    pub agreed_height: u64,
    /// The restarted replica: (id, recovered blocks, state-transfer
    /// blocks, ms from restart to its first protocol commit).
    pub restarted: Option<(NodeId, u64, u64, Option<f64>)>,
}

/// One finished run.
pub struct Outcome {
    /// End-to-end figures.
    pub e2e: EndToEnd,
    /// Generator records.
    pub gen: GenResult,
    /// Server-side facts.
    pub facts: RunFacts,
}

/// Runs one live cluster of `spec`, observed into `obs_dir` when given,
/// with its WAL (if any) under `tmp`.
///
/// # Errors
/// Any failed correctness check, set-up failure or I/O error, by name.
pub fn run(spec: &Spec, tmp: &Path, obs_dir: Option<&Path>) -> Result<Outcome, String> {
    match spec.workload {
        Workload::BlsClosed => run_with::<BlsScheme>(spec, tmp, obs_dir),
        Workload::Steady | Workload::CrashWal => run_with::<SimScheme>(spec, tmp, obs_dir),
    }
}

/// A builder for `spec`'s cluster running for `duration`.
fn builder<S: WireScheme>(
    spec: &Spec,
    duration: Duration,
    tmp: &Path,
    obs_dir: Option<&Path>,
) -> ClusterBuilder<S> {
    let mut builder = ClusterBuilder::new(&spec.cfg, duration)
        .scheme::<S>()
        .faults(&spec.faults.plan())
        .ingress(spec.ingress.clone());
    if spec.wal {
        let wal_dir = tmp.join("wal");
        let _ = std::fs::remove_dir_all(&wal_dir);
        builder = builder.wal(wal_dir);
    }
    if let Some(dir) = obs_dir {
        let _ = std::fs::remove_dir_all(dir);
        builder = builder.observe(ObsOptions::new(dir));
    }
    builder
}

/// Launches `spec`'s cluster for a short life and returns the seconds from
/// launch until the first submit's `Committed` push: one more draw of the
/// set-up time.
///
/// # Errors
/// Launch failures and a first commit that misses the probe's life.
pub fn probe_setup(spec: &Spec, tmp: &Path) -> Result<f64, String> {
    match spec.workload {
        Workload::BlsClosed => probe_with::<BlsScheme>(spec, tmp),
        Workload::Steady | Workload::CrashWal => probe_with::<SimScheme>(spec, tmp),
    }
}

fn probe_with<S: WireScheme>(spec: &Spec, tmp: &Path) -> Result<f64, String> {
    let life = Duration::from_secs_f64(spec.probe_s);
    let t_zero = Instant::now();
    let handle = builder::<S>(spec, life, tmp, None)
        .launch()
        .map_err(|e| format!("launch: {e}"))?;
    let addr = handle
        .ingress()
        .ok_or("cluster launched without its ingress tier")?
        .client_addrs[spec.clients[0] as usize];
    // An empty window: the generator stops right after the set-up submit
    // and offers no load, whatever the workload's loop.
    let plan = GenPlan {
        addrs: vec![addr],
        load: Load::Open { rate: 1.0 },
        t_zero,
        window: Window {
            start: 0.0,
            end: 0.0,
            deadline: spec.probe_s,
        },
        setup_deadline: spec.probe_s,
        payload: PAYLOAD,
    };
    let first = gen::run(&plan);
    handle.join().map_err(|e| format!("cluster run: {e}"))?;
    Ok(first?.setup_s)
}

fn run_with<S: WireScheme>(
    spec: &Spec,
    tmp: &Path,
    obs_dir: Option<&Path>,
) -> Result<Outcome, String> {
    let w = spec.window();
    // The cluster outlives the drain deadline by a little, so late
    // `Committed` pushes still reach the generator.
    let duration = Duration::from_secs_f64(w.deadline + 0.3);
    let builder = builder::<S>(spec, duration, tmp, obs_dir);
    let t_zero = Instant::now();
    let handle = builder.launch().map_err(|e| format!("launch: {e}"))?;
    let ingress = handle
        .ingress()
        .ok_or("cluster launched without its ingress tier")?
        .clone();
    let plan = GenPlan {
        addrs: spec
            .clients
            .iter()
            .map(|&id| ingress.client_addrs[id as usize])
            .collect(),
        load: spec.load,
        t_zero,
        window: w,
        setup_deadline: spec.warm_s,
        payload: PAYLOAD,
    };
    let gen_result = gen::run(&plan);
    let run = handle.join().map_err(|e| format!("cluster run: {e}"))?;
    let gen = gen_result?;
    let facts = check(spec, &run, &gen)?;
    let e2e = reduce_e2e::<S>(spec, &run, &gen)?;
    Ok(Outcome { e2e, gen, facts })
}

/// The correctness checks; any failure fails the run.
fn check<S: WireScheme>(
    spec: &Spec,
    run: &ClusterRun<S>,
    gen: &GenResult,
) -> Result<RunFacts, String> {
    // Agreement: the replicas the plan never crashed share one prefix (and
    // no replica, crashed or not, committed a conflicting block).
    let healthy = spec.never_crashed();
    let agreed = run
        .agreed_prefix_height_of(&healthy)
        .map_err(|e| format!("agreement: {e}"))?;
    if agreed == 0 {
        return Err("agreement: the healthy replicas committed nothing".into());
    }
    // The restarted replica replays its WAL and catches up to the tip.
    let restarted = match spec.faults.restarted {
        None => None,
        Some((id, _, restart_s)) => {
            let chain = &run.nodes[id as usize].replica.chain;
            if chain.committed_height() + TIP_SLACK_BLOCKS < agreed {
                return Err(format!(
                    "recovery: restarted replica {id} at height {}, healthy prefix at {agreed}",
                    chain.committed_height()
                ));
            }
            // Commit points are in ns of cluster time, whose zero is
            // within milliseconds of launch.
            let restart_ns = (restart_s * SECS as f64) as u64;
            let first = chain
                .metrics
                .commit_points
                .iter()
                .find(|&&(t, _)| t >= restart_ns)
                .map(|&(t, _)| (t - restart_ns) as f64 / 1e6);
            Some((
                id,
                chain.metrics.recovered_blocks,
                chain.metrics.state_transfer_blocks,
                first,
            ))
        }
    };
    // Admission accounting: committed ≤ admitted ≤ offered.
    let stats = run
        .ingress
        .as_ref()
        .ok_or("run finished without its ingress tier")?
        .mempool
        .stats();
    if !(stats.committed <= stats.admitted && stats.admitted <= stats.offered) {
        return Err(format!(
            "ingress accounting: committed {} admitted {} offered {}",
            stats.committed, stats.admitted, stats.offered
        ));
    }
    // Every push names a submitted nonce, and no request commits twice,
    // whichever of its nonces (first submit or resubmits) carried it.
    if gen.misordered_acks > 0 {
        return Err(format!(
            "client: {} SubmitAcks out of submit order",
            gen.misordered_acks
        ));
    }
    if gen.unknown_pushes > 0 {
        return Err(format!(
            "client: {} Committed pushes for nonces never submitted",
            gen.unknown_pushes
        ));
    }
    let repeated = gen.reqs.iter().filter(|r| r.commit_pushes > 1).count();
    if repeated > 0 {
        return Err(format!(
            "client: {repeated} requests committed more than once"
        ));
    }
    if S::REAL_CRYPTO {
        audit_qcs(spec, run)?;
    }
    Ok(RunFacts {
        agreed_height: agreed,
        restarted,
    })
}

/// Re-verifies every retained committed QC of a healthy replica against a
/// freshly derived BLS keyring, as a third-party auditor would.
fn audit_qcs<S: WireScheme>(spec: &Spec, run: &ClusterRun<S>) -> Result<(), String> {
    let auditor = BlsScheme::new(spec.cfg.n, CLUSTER_SEED);
    let observer = spec.never_crashed()[0];
    let chain = &run.nodes[observer].replica.chain;
    let mut entries = Vec::new();
    for height in 1..=chain.committed_height() {
        if let Some((block, qc)) = chain.committed_entry(height) {
            // Round-trip through the wire format: the auditor sees bytes,
            // not the in-memory aggregate of another scheme type.
            let agg = BlsAggregate::from_frame(qc.agg.to_frame())
                .map_err(|e| format!("audit: height {height} QC does not decode: {e:?}"))?;
            entries.push((height, vote_message(&block.hash(), qc.view), agg));
        }
    }
    if entries.is_empty() {
        return Err("audit: no committed QC was retained".into());
    }
    for chunk in entries.chunks(32) {
        let groups: Vec<(&[u8], Vec<_>)> = chunk
            .iter()
            .map(|(_, m, a)| (m.as_slice(), vec![a.clone()]))
            .collect();
        let refs: Vec<(&[u8], &[_])> = groups.iter().map(|(m, a)| (*m, a.as_slice())).collect();
        if let BatchOutcome::Invalid(bad) = auditor.verify_batch(&refs) {
            let heights: Vec<u64> = bad.iter().map(|&(g, _)| chunk[g].0).collect();
            return Err(format!(
                "audit: committed QCs at heights {heights:?} do not verify"
            ));
        }
    }
    Ok(())
}

fn reduce_e2e<S: WireScheme>(
    spec: &Spec,
    run: &ClusterRun<S>,
    gen: &GenResult,
) -> Result<EndToEnd, String> {
    let w = spec.window();
    let samples = reduce::commit_samples(&gen.reqs, &w);
    let p50 = reduce::percentile(&samples, 0.50).ok_or("no request committed in the window")?;
    let p99 = reduce::percentile(&samples, 0.99).ok_or("no request committed in the window")?;
    let slices = reduce::slices(&w, SLICES);
    let mut slice_p99 = Vec::with_capacity(SLICES);
    for s in &slices {
        let p = reduce::percentile(&reduce::commit_samples(&gen.reqs, s), 0.99)
            .ok_or("a window slice committed no request")?;
        slice_p99.push(p.value);
    }
    let commit_times = reduce::block_commit_times(&gen.reqs);
    let slice_outage: Vec<f64> = slices
        .iter()
        .map(|s| reduce::outage(&commit_times, s))
        .collect();
    let scheme = S::new_committee(spec.cfg.n, CLUSTER_SEED);
    let observer = &run.nodes[spec.never_crashed()[0]].replica.chain;
    let signers: BTreeMap<u64, usize> = commit_times
        .keys()
        .filter_map(|&h| {
            let (_, qc) = observer.committed_entry(h)?;
            Some((h, qc.signer_count(&scheme)))
        })
        .collect();
    let up = spec.faults.up_schedule(spec.cfg.n);
    let vote_inclusion = reduce::vote_inclusion(&commit_times, &signers, &up, &w)
        .ok_or("no committed QC in the window")?;
    Ok(EndToEnd {
        setup_s: gen.setup_s,
        p50,
        p99,
        committed_rps: reduce::committed_rps(&gen.reqs, &w),
        acc: reduce::account(&gen.reqs, &w),
        vote_inclusion,
        commit_p99_s: reduce::median(&slice_p99),
        slice_p99_s: slice_p99,
        gaps_s: reduce::gaps_longest_first(&commit_times, &w),
        window_outage_s: reduce::outage(&commit_times, &w),
        outage_s: reduce::median(&slice_outage),
        slice_outage_s: slice_outage,
        late_p99_s: reduce::percentile_of(&gen.late, 0.99),
    })
}
