//! Per-layer metrics: the traced run's registry dumps reduced to the
//! benchmark's layer names, the tracing overhead, and timed calls into
//! each crate's public functions on inputs shaped like the workload.

use crate::reduce::{median, percentile_of};
use crate::workload::{Outcome, Spec, Workload};
use crate::{metric, Metric};
use iniva::protocol::InivaMsg;
use iniva_consensus::chain::RequestSource;
use iniva_consensus::types::{vote_message, Block, Qc};
use iniva_crypto::bls::{BlsAggregate, BlsScheme};
use iniva_crypto::multisig::{VoteScheme, WireScheme};
use iniva_crypto::sim_scheme::SimScheme;
use iniva_crypto::{g1, g2, pairing};
use iniva_ingress::{IngressOptions, Mempool};
use iniva_net::wire::Codec;
use iniva_storage::ChainWal;
use iniva_transport::frame::{parse_frame, FrameParse};
use iniva_tree::TreeView;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One node's flattened registry dump.
type Series = BTreeMap<String, u64>;

fn load(path: &Path) -> Result<Series, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let pairs = iniva_obs::json::parse_flat_object(&text)
        .map_err(|e| format!("parse {}: {e}", path.display()))?;
    Ok(pairs
        .into_iter()
        .filter_map(|(k, v)| v.as_u64().map(|v| (k, v)))
        .collect())
}

fn get(s: &Series, name: &str) -> f64 {
    s.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reduces the traced run's dumps (`metrics-<id>.json`, `ingress.json`)
/// plus its client and server facts to the per-layer names.
///
/// # Errors
/// A missing or unparsable dump.
pub fn from_dumps(spec: &Spec, o: &Outcome, dir: &Path) -> Result<Vec<Metric>, String> {
    let nodes: Vec<Series> = (0..spec.cfg.n)
        .map(|id| load(&dir.join(format!("metrics-{id}.json"))))
        .collect::<Result<_, _>>()?;
    let ingress = load(&dir.join("ingress.json"))?;
    let healthy: Vec<&Series> = spec.never_crashed().iter().map(|&i| &nodes[i]).collect();
    let sum = |set: &[&Series], name: &str| set.iter().map(|s| get(s, name)).sum::<f64>();
    let all: Vec<&Series> = nodes.iter().collect();
    let max = |name: &str| all.iter().map(|s| get(s, name)).fold(0.0, f64::max);
    let run_s = spec.window().deadline + 0.3;
    let blocks = o.facts.agreed_height as f64;
    let wal: Vec<&Series> = all
        .iter()
        .copied()
        .filter(|s| get(s, "wal.fsync_ns.count") > 0.0)
        .collect();
    let restarted = o.facts.restarted.unwrap_or((0, 0, 0, None));
    Ok(vec![
        metric(
            "crypto.verify_wall_p50_ms",
            median(
                &healthy
                    .iter()
                    .map(|s| get(s, "consensus.verify_wall_ns.p50"))
                    .collect::<Vec<_>>(),
            ) / 1e6,
            "ms",
        ),
        metric(
            "crypto.verify_share",
            ratio(
                all.iter()
                    .map(|s| {
                        get(s, "consensus.verify_wall_ns.mean")
                            * get(s, "consensus.verify_wall_ns.count")
                    })
                    .sum(),
                sum(&all, "runtime.busy_ns"),
            ),
            "ratio",
        ),
        // One keyring serves the in-process cluster: any node's export is
        // the cluster total.
        metric(
            "crypto.batch_probes",
            get(&nodes[0], "crypto.batch_probes"),
            "count",
        ),
        metric(
            "transport.msgs_per_block",
            ratio(sum(&all, "transport.msgs_sent"), blocks),
            "count",
        ),
        metric(
            "transport.bytes_per_block",
            ratio(sum(&all, "transport.bytes_sent"), blocks),
            "B",
        ),
        metric(
            "transport.lane_evicted",
            sum(&all, "transport.lane_evicted"),
            "count",
        ),
        metric(
            "transport.reconnects",
            sum(&all, "transport.reconnects"),
            "count",
        ),
        metric(
            "transport.dups_dropped",
            sum(&all, "transport.dups_dropped"),
            "count",
        ),
        metric(
            "runtime.busy_share_max",
            max("runtime.busy_ns") / (run_s * 1e9),
            "ratio",
        ),
        metric(
            "runtime.handler_p99_us",
            max("runtime.handler_ns.p99") / 1e3,
            "us",
        ),
        metric(
            "runtime.timer_lag_p99_ms",
            max("runtime.timer_lag_ns.p99") / 1e6,
            "ms",
        ),
        metric(
            "ingress.ack_p50_us",
            percentile_of(&o.gen.ack, 0.50) * 1e6,
            "us",
        ),
        metric(
            "ingress.ack_p99_us",
            percentile_of(&o.gen.ack, 0.99) * 1e6,
            "us",
        ),
        metric(
            "ingress.admit_ratio",
            ratio(
                get(&ingress, "ingress.admitted"),
                get(&ingress, "ingress.offered"),
            ),
            "ratio",
        ),
        metric(
            "ingress.commit_ratio",
            ratio(
                get(&ingress, "ingress.committed"),
                get(&ingress, "ingress.drafted"),
            ),
            "ratio",
        ),
        metric(
            "ingress.server_commit_p50_ms",
            get(&ingress, "ingress.submit_to_commit_ns.p50") / 1e6,
            "ms",
        ),
        metric("ingress.evicted", get(&ingress, "ingress.evicted"), "count"),
        metric(
            "consensus.views_per_s",
            ratio(
                sum(&healthy, "consensus.views_entered"),
                healthy.len() as f64,
            ) / run_s,
            "1/s",
        ),
        metric(
            "consensus.views_failed_pct",
            100.0
                * ratio(
                    sum(&healthy, "consensus.views_failed"),
                    sum(&healthy, "consensus.views_entered"),
                ),
            "%",
        ),
        metric(
            "consensus.reqs_per_block",
            ratio(get(&ingress, "ingress.committed"), blocks),
            "count",
        ),
        metric(
            "consensus.qc_size",
            ratio(
                sum(&healthy, "chain.qc_signers_sum"),
                sum(&healthy, "chain.qc_count"),
            ),
            "count",
        ),
        metric(
            "consensus.second_chances_per_view",
            ratio(
                sum(&all, "consensus.second_chances"),
                sum(&all, "consensus.views_entered"),
            ),
            "ratio",
        ),
        metric(
            "consensus.leader_fallbacks",
            sum(&all, "consensus.leader_fallbacks"),
            "count",
        ),
        metric(
            "storage.fsync_p50_ms",
            median(
                &wal.iter()
                    .map(|s| get(s, "wal.fsync_ns.p50"))
                    .collect::<Vec<_>>(),
            ) / 1e6,
            "ms",
        ),
        metric(
            "storage.fsync_p99_ms",
            wal.iter()
                .map(|s| get(s, "wal.fsync_ns.p99"))
                .fold(0.0, f64::max)
                / 1e6,
            "ms",
        ),
        metric(
            "storage.syncs_per_block",
            ratio(sum(&wal, "wal.syncs"), sum(&wal, "chain.committed_blocks")),
            "ratio",
        ),
        metric("storage.recovered_blocks", restarted.1 as f64, "count"),
        metric("storage.state_transfer_blocks", restarted.2 as f64, "count"),
        metric("storage.catchup_ms", restarted.3.unwrap_or(0.0), "ms"),
        metric("gen.late_p99_ms", o.e2e.late_p99_s * 1e3, "ms"),
    ])
}

/// Tracing overhead: how much throughput and median latency the traced
/// run lost against the untraced run of the same invocation.
pub fn overhead(plain: &Outcome, traced: &Outcome) -> Vec<Metric> {
    let (p, t) = (&plain.e2e, &traced.e2e);
    vec![
        metric(
            "obs.overhead_rps_pct",
            100.0 * ratio(p.committed_rps - t.committed_rps, p.committed_rps),
            "%",
        ),
        metric(
            "obs.overhead_p50_pct",
            100.0 * ratio(t.p50.value - p.p50.value, p.p50.value),
            "%",
        ),
    ]
}

/// Median seconds per call of `f` over `iters` calls, after `warm`
/// untimed calls that fill caches and finish lazy set-up.
fn time_calls<F: FnMut()>(warm: usize, iters: usize, mut f: F) -> f64 {
    for _ in 0..warm {
        f();
    }
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median over `rounds` of the mean seconds per call across `batch`
/// calls: for calls too short to time one at a time.
fn time_batched<F: FnMut()>(rounds: usize, batch: usize, mut f: F) -> f64 {
    time_calls(1, rounds, || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

/// A block shaped like the workload's: a full batch of `max_batch`
/// requests of its payload size.
fn full_block(spec: &Spec, height: u64) -> Block {
    Block {
        view: height + 1,
        height,
        parent: [height as u8; 32],
        proposer: (height % spec.cfg.n as u64) as u32,
        batch_start: height * spec.cfg.max_batch as u64,
        batch_len: spec.cfg.max_batch,
        payload_per_req: spec.cfg.payload_per_req,
    }
}

/// A QC over `block` signed by every replica of the committee.
fn full_qc<S: VoteScheme>(scheme: &S, n: usize, block: &Block) -> Qc<S> {
    let msg = vote_message(&block.hash(), block.view);
    let mut agg = scheme.sign(0, &msg);
    for id in 1..n {
        agg = scheme.combine(&agg, &scheme.sign(id as u32, &msg));
    }
    Qc {
        block_hash: block.hash(),
        view: block.view,
        height: block.height,
        agg,
    }
}

/// Timed calls into each crate's public functions, on inputs shaped like
/// `spec`'s workload (its n, `max_batch`, payload and queue depth).
///
/// # Errors
/// WAL I/O failures in the storage cell.
pub fn cells(spec: &Spec, tmp: &Path) -> Result<Vec<Metric>, String> {
    let mut out = crypto_cells(spec);
    out.push(metric(
        "tree.build_us",
        time_batched(9, 200, || {
            black_box(
                TreeView::build(
                    spec.cfg.n as u32,
                    spec.cfg.internal,
                    &spec.cfg.epoch_seed,
                    black_box(7),
                )
                .expect("workload tree shape is valid"),
            );
        }) * 1e6,
        "us",
    ));
    match spec.workload {
        Workload::BlsClosed => {
            let scheme = BlsScheme::new(spec.cfg.n, b"perfbench-cells");
            out.extend(codec_cells(spec, &scheme));
            out.push(storage_cell(spec, &scheme, tmp)?);
        }
        Workload::Steady | Workload::CrashWal => {
            let scheme = SimScheme::new(spec.cfg.n, b"perfbench-cells");
            out.extend(codec_cells(spec, &scheme));
            out.push(storage_cell(spec, &scheme, tmp)?);
        }
    }
    out.extend(mempool_cells(spec));
    Ok(out)
}

/// Pairing, verification, hash-to-curve and aggregate decoding on the
/// workload's committee size. These run on every workload: the modelled
/// workloads predict no change when they move.
fn crypto_cells(spec: &Spec) -> Vec<Metric> {
    let n = spec.cfg.n;
    let scheme = BlsScheme::new(n, b"perfbench-cells");
    let block = full_block(spec, 42);
    let msg = vote_message(&block.hash(), block.view);
    let qc = full_qc(&scheme, n, &block);
    let p = g1::hash_to_curve(&msg);
    let q = g2::generator();
    let pairing_s = time_calls(1, 5, || {
        black_box(pairing::pairing(black_box(&p), black_box(&q)));
    });
    // Verification warms the scheme's hash-to-curve cache first, as the
    // live protocol does for every aggregate of a view after the first.
    let verify_s = time_calls(1, 5, || {
        assert!(scheme.verify(black_box(&msg), black_box(&qc.agg)));
    });
    let eight: Vec<BlsAggregate> = (0..8).map(|i| scheme.sign((i % n) as u32, &msg)).collect();
    let batch_s = time_calls(1, 5, || {
        black_box(scheme.verify_batch(&[(msg.as_slice(), eight.as_slice())]));
    });
    let mut k = 0u64;
    let h2c_s = time_calls(2, 21, || {
        k += 1;
        let mut m = msg.clone();
        m.extend_from_slice(&k.to_le_bytes());
        black_box(g1::hash_to_curve(&m));
    });
    let wire = qc.agg.to_frame();
    let decode_s = time_calls(2, 21, || {
        black_box(BlsAggregate::from_frame(black_box(wire.clone())).expect("valid aggregate"));
    });
    vec![
        metric("crypto.pairing_ms", pairing_s * 1e3, "ms"),
        metric("crypto.verify_ms", verify_s * 1e3, "ms"),
        metric("crypto.verify_batch8_ms", batch_s * 1e3, "ms"),
        metric("crypto.hash_to_g1_us", h2c_s * 1e6, "us"),
        metric("crypto.sig_decode_us", decode_s * 1e6, "us"),
    ]
}

/// Proposal encode/decode and frame parsing with the workload's scheme:
/// a full block plus its parent's QC, and back-to-back frames of it.
fn codec_cells<S: WireScheme>(spec: &Spec, scheme: &S) -> Vec<Metric> {
    let parent = full_block(spec, 41);
    let msg: InivaMsg<S> = InivaMsg::Proposal {
        block: full_block(spec, 42),
        qc: Some(full_qc(scheme, spec.cfg.n, &parent)),
    };
    let encode_s = time_batched(9, 200, || {
        black_box(black_box(&msg).to_frame());
    });
    let body = msg.to_frame();
    let decode_s = time_batched(9, 50, || {
        black_box(InivaMsg::<S>::from_frame(black_box(body.clone())).expect("valid proposal"));
    });
    // Back-to-back frames as a reader buffer holds them:
    // u32 length (seq + body), u64 sequence number, body.
    const FRAMES: usize = 64;
    let mut buf = Vec::new();
    for seq in 0..FRAMES as u64 {
        buf.extend_from_slice(&((8 + body.len()) as u32).to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&body);
    }
    let parse_s = time_batched(9, 100, || {
        let mut off = 0;
        let mut frames = 0;
        while let Ok(FrameParse::Complete { consumed, .. }) = parse_frame(black_box(&buf[off..])) {
            off += consumed;
            frames += 1;
        }
        assert_eq!(frames, FRAMES);
    }) / FRAMES as f64;
    vec![
        metric("net.proposal_encode_us", encode_s * 1e6, "us"),
        metric("net.proposal_decode_us", decode_s * 1e6, "us"),
        metric("transport.parse_frame_ns", parse_s * 1e9, "ns"),
    ]
}

/// One committed block with its QC appended and fsynced per call, in a
/// fresh log under `tmp`.
fn storage_cell<S: WireScheme>(spec: &Spec, scheme: &S, tmp: &Path) -> Result<Metric, String> {
    let dir = tmp.join("cell-wal");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut wal, _) =
        ChainWal::<S>::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let items: Vec<(Block, Option<Qc<S>>)> = (1..=21)
        .map(|h| {
            let b = full_block(spec, h);
            let qc = full_qc(scheme, spec.cfg.n, &b);
            (b, Some(qc))
        })
        .collect();
    let mut next = items.iter();
    let mut err = None;
    let s = time_calls(1, 20, || {
        let item = next.next().expect("one item per call");
        if let Err(e) = wal.append_batch(std::slice::from_ref(item)) {
            err = Some(e);
        }
    });
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(e) = err {
        return Err(format!("append_batch: {e}"));
    }
    Ok(metric("storage.append_batch_ms", s * 1e3, "ms"))
}

/// Admission and drafting on a mempool held at the workload's queue
/// depth: each round submits one block's worth, drafts it and settles it.
fn mempool_cells(spec: &Spec) -> Vec<Metric> {
    let pool = Mempool::new(&IngressOptions::default());
    let batch = spec.cfg.max_batch as u64;
    let mut nonce = 0u64;
    for _ in 0..spec.queue_depth {
        pool.submit(0, nonce, 1, crate::workload::PAYLOAD);
        nonce += 1;
    }
    let mut seq = 0u64;
    let mut height = 0u64;
    let mut submit_s = Vec::new();
    let mut draft_s = Vec::new();
    for round in 0..60 {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(pool.submit(0, nonce, 1, crate::workload::PAYLOAD));
            nonce += 1;
        }
        let s = t.elapsed().as_secs_f64() / batch as f64;
        let t = Instant::now();
        let got = pool.draft(seq, batch as u32);
        let d = t.elapsed().as_secs_f64();
        height += 1;
        pool.committed(height, seq, got);
        seq += got as u64;
        // The first rounds warm the allocator and the pool's maps.
        if round >= 10 {
            submit_s.push(s);
            draft_s.push(d);
        }
    }
    vec![
        metric("ingress.submit_ns", median(&submit_s) * 1e9, "ns"),
        metric("ingress.draft_us", median(&draft_s) * 1e6, "us"),
    ]
}
