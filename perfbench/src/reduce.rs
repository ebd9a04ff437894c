//! Pure reducers from the generator's per-request records to the
//! end-to-end metrics. Everything here is deterministic over its inputs,
//! so the unit tests at the bottom pin each rule exactly.

use std::collections::{BTreeMap, BTreeSet};

/// What became of one submitted request, as the client saw it. Times are
/// seconds since the generator's time zero (cluster launch).
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    /// When the request was due: the open-loop schedule slot, or the send
    /// time in a closed loop (where sending *is* the schedule).
    pub due: f64,
    /// When the generator actually wrote it.
    pub sent: f64,
    /// When the `SubmitAck` arrived, if it did.
    pub ack: Option<f64>,
    /// True when the ack said `Busy` or `Duplicate`.
    pub refused: bool,
    /// When the first `Committed` push arrived, and the block height.
    pub commit: Option<(f64, u64)>,
    /// How many `Committed` pushes arrived for this request's nonces
    /// (must be ≤ 1).
    pub commit_pushes: u32,
    /// How many times the request was submitted: 1, plus one for each
    /// resubmit after its drafted range was lost in a failed view.
    pub submits: u32,
}

impl Req {
    /// A request due and sent at the given times, not yet answered.
    pub fn new(due: f64, sent: f64) -> Req {
        Req {
            due,
            sent,
            ack: None,
            refused: false,
            commit: None,
            commit_pushes: 0,
            submits: 1,
        }
    }
}

/// The half-open measured window `[start, end)` plus the drain deadline:
/// a request due inside the window that has not committed by `deadline`
/// counts as failed.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Window start (s since time zero).
    pub start: f64,
    /// Window end (s since time zero).
    pub end: f64,
    /// Drain deadline (s since time zero), `>= end`.
    pub deadline: f64,
}

impl Window {
    /// True when `t` lies in `[start, end)`.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }

    /// Window length in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Submit accounting over the window: every request *due* in the window
/// is attempted; it fails when refused at its first submit or not
/// committed by the drain deadline, resubmits included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Requests due inside the window.
    pub attempted: u64,
    /// Of those, refused (`Busy`/`Duplicate`).
    pub refused: u64,
    /// Of those, admitted but not committed by the drain deadline.
    pub lost: u64,
    /// Of those, committed in time only after one or more resubmits.
    pub resubmitted: u64,
}

impl Accounting {
    /// Refused plus lost.
    pub fn failed(&self) -> u64 {
        self.refused + self.lost
    }

    /// Share of attempted requests that failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    /// Share of attempted requests that committed in time on their first
    /// submit.
    pub fn first_try_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        let first = self.attempted - self.failed() - self.resubmitted;
        first as f64 / self.attempted as f64
    }
}

/// Counts attempted, refused, lost and resubmitted requests of the window.
pub fn account(reqs: &[Req], w: &Window) -> Accounting {
    let mut acc = Accounting::default();
    for r in reqs.iter().filter(|r| w.contains(r.due)) {
        acc.attempted += 1;
        if r.refused {
            acc.refused += 1;
        } else if !matches!(r.commit, Some((t, _)) if t <= w.deadline) {
            acc.lost += 1;
        } else if r.submits > 1 {
            acc.resubmitted += 1;
        }
    }
    acc
}

/// One commit-latency sample: due → `Committed` in seconds, and the block
/// that carried the request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Latency in seconds.
    pub secs: f64,
    /// Height of the committing block.
    pub height: u64,
}

/// Due-time latency samples of the window's requests that committed by
/// the deadline. Timing from the due slot rather than the send charges a
/// lagging generator's queueing to the system, as a user would see it.
pub fn commit_samples(reqs: &[Req], w: &Window) -> Vec<Sample> {
    reqs.iter()
        .filter(|r| w.contains(r.due) && !r.refused)
        .filter_map(|r| match r.commit {
            Some((t, height)) if t <= w.deadline => Some(Sample {
                secs: t - r.due,
                height,
            }),
            _ => None,
        })
        .collect()
}

/// A percentile with its tail support: how many samples lie strictly
/// beyond it, counted as requests and as the distinct blocks those
/// requests committed in. Requests of one block share its commit instant,
/// so a tail of 50 requests may be one block: only the block count says
/// how many independent events the percentile rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples strictly greater than `value`.
    pub beyond_reqs: usize,
    /// Distinct heights among those samples.
    pub beyond_blocks: usize,
}

/// Minimum tail support (in blocks) for a percentile to count as resolved.
pub const MIN_TAIL_BLOCKS: usize = 10;

impl Percentile {
    /// True when at least [`MIN_TAIL_BLOCKS`] blocks lie beyond the value.
    pub fn resolved(&self) -> bool {
        self.beyond_blocks >= MIN_TAIL_BLOCKS
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `samples`, with support.
/// `None` on an empty sample set.
pub fn percentile(samples: &[Sample], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.secs).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond: Vec<&Sample> = samples.iter().filter(|s| s.secs > value).collect();
    let blocks: BTreeSet<u64> = beyond.iter().map(|s| s.height).collect();
    Some(Percentile {
        value,
        beyond_reqs: beyond.len(),
        beyond_blocks: blocks.len(),
    })
}

/// Nearest-rank percentile of plain values (no block structure).
pub fn percentile_of(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle pair on even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Splits `w` into `k` equal consecutive slices (each keeping `w`'s
/// drain deadline), so a tail statistic can be taken per slice and the
/// median of the slices reported: a stall (a CPU-starved second, a
/// replica's crash) then moves the figure only when it touches most of
/// the window, instead of setting the run's whole tail.
pub fn slices(w: &Window, k: usize) -> Vec<Window> {
    let len = w.secs() / k as f64;
    (0..k)
        .map(|i| Window {
            start: w.start + i as f64 * len,
            end: if i + 1 == k {
                w.end
            } else {
                w.start + (i + 1) as f64 * len
            },
            deadline: w.deadline,
        })
        .collect()
}

/// Client-observed commit instant of each height: the first `Committed`
/// push that named it.
pub fn block_commit_times(reqs: &[Req]) -> BTreeMap<u64, f64> {
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for (t, h) in reqs.iter().filter_map(|r| r.commit) {
        out.entry(h).and_modify(|e| *e = e.min(t)).or_insert(t);
    }
    out
}

/// Committed pushes that landed inside the window, per second.
pub fn committed_rps(reqs: &[Req], w: &Window) -> f64 {
    let n = reqs
        .iter()
        .filter(|r| matches!(r.commit, Some((t, _)) if w.contains(t)))
        .count();
    n as f64 / w.secs()
}

/// Gaps between consecutive distinct commit instants inside the window,
/// longest first, in seconds (the window edges count as instants, so a
/// window with no commit at all reads as one gap of its whole length).
pub fn gaps_longest_first(commit_times: &BTreeMap<u64, f64>, w: &Window) -> Vec<f64> {
    let mut times: Vec<f64> = commit_times
        .values()
        .copied()
        .filter(|&t| w.contains(t))
        .collect();
    times.sort_by(f64::total_cmp);
    let mut prev = w.start;
    let mut gaps = Vec::with_capacity(times.len() + 1);
    for t in times.into_iter().chain(std::iter::once(w.end)) {
        gaps.push(t - prev);
        prev = t;
    }
    gaps.sort_by(|a, b| b.total_cmp(a));
    gaps
}

/// The quantile of inter-commit gaps reported as the outage. On
/// `crash-wal` about one view in seven has a dead leader, so the 95th
/// percentile lands on the gap a dead leader costs; the single longest
/// gap instead depends on whether two views happened to fail back to
/// back somewhere in the window.
pub const OUTAGE_QUANTILE: f64 = 0.95;

/// The [`OUTAGE_QUANTILE`] (nearest rank) of the window's inter-commit
/// gaps, in seconds.
pub fn outage(commit_times: &BTreeMap<u64, f64>, w: &Window) -> f64 {
    percentile_of(&gaps_longest_first(commit_times, w), OUTAGE_QUANTILE)
}

/// How many replicas the fault plan has up over time: the committee size
/// minus the replicas down at `t`, from `(time, delta)` steps.
#[derive(Clone, Debug)]
pub struct UpSchedule {
    n: usize,
    /// `(time, +1 | -1)` steps in seconds since time zero, ascending.
    steps: Vec<(f64, i64)>,
}

impl UpSchedule {
    /// All `n` replicas up for the whole run.
    pub fn all_up(n: usize) -> UpSchedule {
        UpSchedule {
            n,
            steps: Vec::new(),
        }
    }

    /// Marks `count` replicas down from `t` on.
    pub fn down(mut self, t: f64, count: usize) -> Self {
        self.steps.push((t, -(count as i64)));
        self.steps.sort_by(|a, b| a.0.total_cmp(&b.0));
        self
    }

    /// Marks `count` replicas up again from `t` on.
    pub fn up(mut self, t: f64, count: usize) -> Self {
        self.steps.push((t, count as i64));
        self.steps.sort_by(|a, b| a.0.total_cmp(&b.0));
        self
    }

    /// Replicas up at instant `t` (steps at exactly `t` apply).
    pub fn up_at(&self, t: f64) -> usize {
        let delta: i64 = self
            .steps
            .iter()
            .take_while(|(at, _)| *at <= t)
            .map(|(_, d)| d)
            .sum();
        (self.n as i64 + delta).max(0) as usize
    }
}

/// Vote inclusion over the window: for each block committed inside it,
/// its QC's distinct signers divided by the replicas up when it
/// committed, averaged over those blocks. Blocks whose QC the observer did
/// not retain are skipped; `None` when no block qualifies.
pub fn vote_inclusion(
    commit_times: &BTreeMap<u64, f64>,
    signers: &BTreeMap<u64, usize>,
    up: &UpSchedule,
    w: &Window,
) -> Option<f64> {
    let ratios: Vec<f64> = commit_times
        .iter()
        .filter(|(_, &t)| w.contains(t))
        .filter_map(|(h, &t)| {
            let s = *signers.get(h)?;
            let live = up.up_at(t);
            (live > 0).then(|| s as f64 / live as f64)
        })
        .collect();
    if ratios.is_empty() {
        None
    } else {
        Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(due: f64, at: f64, height: u64) -> Req {
        Req {
            ack: Some(due + 0.001),
            commit: Some((at, height)),
            commit_pushes: 1,
            ..Req::new(due, due)
        }
    }

    fn window() -> Window {
        Window {
            start: 10.0,
            end: 20.0,
            deadline: 22.0,
        }
    }

    #[test]
    fn nearest_rank_percentile_and_block_support() {
        // 100 samples: 1..=100 ms; the slowest 10 share two blocks.
        let samples: Vec<Sample> = (1..=100)
            .map(|i| Sample {
                secs: i as f64 / 1000.0,
                height: if i > 95 {
                    2
                } else if i > 90 {
                    1
                } else {
                    100 + i
                },
            })
            .collect();
        let p50 = percentile(&samples, 0.50).expect("non-empty");
        assert_eq!(p50.value, 0.050);
        assert_eq!(p50.beyond_reqs, 50);
        let p90 = percentile(&samples, 0.90).expect("non-empty");
        assert_eq!(p90.value, 0.090);
        assert_eq!(p90.beyond_reqs, 10);
        // Ten requests beyond p90, but only two independent commit events.
        assert_eq!(p90.beyond_blocks, 2);
        assert!(!p90.resolved());
        let p99 = percentile(&samples, 0.99).expect("non-empty");
        assert_eq!(p99.value, 0.099);
        assert_eq!((p99.beyond_reqs, p99.beyond_blocks), (1, 1));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn tail_resolves_once_ten_blocks_lie_beyond() {
        let samples: Vec<Sample> = (0..1000)
            .map(|i| Sample {
                secs: i as f64,
                height: i / 5,
            })
            .collect();
        // p95: 50 requests beyond, in 10 distinct blocks of 5.
        let p95 = percentile(&samples, 0.95).expect("non-empty");
        assert_eq!(p95.beyond_reqs, 50);
        assert_eq!(p95.beyond_blocks, 10);
        assert!(p95.resolved());
    }

    #[test]
    fn latency_is_timed_from_the_due_slot_not_the_send() {
        // The generator ran 300 ms late: the request was due at 11.0 but
        // written at 11.3, and committed at 11.5.
        let mut r = committed(11.0, 11.5, 7);
        r.sent = 11.3;
        let s = commit_samples(&[r], &window());
        assert_eq!(s.len(), 1);
        assert!((s[0].secs - 0.5).abs() < 1e-12);
        assert_eq!(s[0].height, 7);
    }

    #[test]
    fn failed_accounting_counts_refusals_and_late_or_missing_commits() {
        let w = window();
        let mut busy = Req::new(12.0, 12.0);
        busy.ack = Some(12.01);
        busy.refused = true;
        let mut never = Req::new(13.0, 13.0);
        never.ack = Some(13.01);
        let late = committed(14.0, 22.5, 9); // after the drain deadline
        let ok = committed(15.0, 15.2, 3);
        let drained = committed(19.9, 21.0, 4); // due in window, commits in drain
        let before = committed(9.0, 10.5, 1); // due before the window
        let after = committed(20.0, 20.1, 5); // due at the window end
        let mut second = committed(16.0, 16.9, 6); // committed on a resubmit
        second.submits = 2;
        let mut gone = Req::new(17.0, 17.0); // resubmitted, never committed
        gone.ack = Some(17.01);
        gone.submits = 3;
        let reqs = vec![busy, never, late, ok, drained, before, after, second, gone];
        let acc = account(&reqs, &w);
        assert_eq!(
            acc,
            Accounting {
                attempted: 7,
                refused: 1,
                lost: 3,
                resubmitted: 1,
            }
        );
        assert_eq!(acc.failed(), 4);
        assert!((acc.failed_frac() - 4.0 / 7.0).abs() < 1e-12);
        // `ok` and `drained` committed on their first submit.
        assert!((acc.first_try_frac() - 2.0 / 7.0).abs() < 1e-12);
        // Latency samples: only the in-window requests that committed in
        // time, resubmitted or not, timed from the first due slot.
        let s = commit_samples(&reqs, &w);
        assert_eq!(s.len(), 3);
        assert!(s.iter().any(|x| (x.secs - 0.9).abs() < 1e-9));
        // Throughput counts pushes landing inside the window, whatever
        // their due time: `ok` at 15.2, `before` at 10.5, `second` at 16.9.
        assert!((committed_rps(&reqs, &w) - 3.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn vote_inclusion_uses_the_replicas_up_at_each_commit() {
        // 21 replicas: two down from the start, a third down 12..16.
        let up = UpSchedule::all_up(21)
            .down(0.0, 2)
            .down(12.0, 1)
            .up(16.0, 1);
        assert_eq!(up.up_at(5.0), 19);
        assert_eq!(up.up_at(12.0), 18);
        assert_eq!(up.up_at(15.999), 18);
        assert_eq!(up.up_at(16.0), 19);
        let times: BTreeMap<u64, f64> = [(1, 11.0), (2, 13.0), (3, 17.0), (4, 25.0)]
            .into_iter()
            .collect();
        // Block 3 commits after the restart but the replica has not caught
        // up yet, so it misses the QC: 18 of 19.
        let signers: BTreeMap<u64, usize> =
            [(1, 19), (2, 18), (3, 18), (4, 19)].into_iter().collect();
        let v = vote_inclusion(&times, &signers, &up, &window()).expect("blocks");
        let want = (1.0 + 1.0 + 18.0 / 19.0) / 3.0;
        assert!((v - want).abs() < 1e-12, "{v} vs {want}");
        // Blocks without a retained QC are skipped, not counted as zero.
        let partial: BTreeMap<u64, usize> = [(1, 19)].into_iter().collect();
        assert_eq!(vote_inclusion(&times, &partial, &up, &window()), Some(1.0));
        assert_eq!(
            vote_inclusion(&times, &BTreeMap::new(), &up, &window()),
            None
        );
    }

    #[test]
    fn gaps_include_window_edges() {
        let w = window();
        let times: BTreeMap<u64, f64> = [
            (1, 9.0),
            (2, 10.5),
            (3, 11.0),
            (4, 14.0),
            (5, 19.0),
            (6, 21.0),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            gaps_longest_first(&times, &w),
            vec![5.0, 3.0, 1.0, 0.5, 0.5]
        );
        assert_eq!(gaps_longest_first(&BTreeMap::new(), &w), vec![10.0]);
    }

    #[test]
    fn outage_is_the_gap_a_recurring_stall_costs() {
        // 200 gaps of 0.04 s; every tenth view stalls 0.3 s and three
        // views stall 1 s. The three long stalls are too rare to set the
        // figure; the recurring one sets it.
        let mut t = 10.0;
        let mut times = BTreeMap::new();
        for h in 0..200u64 {
            times.insert(h, t);
            t += match h {
                50 | 100 | 150 => 1.0,
                h if h % 10 == 5 => 0.3,
                _ => 0.04,
            };
        }
        let w = Window {
            start: 10.0,
            end: t,
            deadline: t,
        };
        let gaps = gaps_longest_first(&times, &w);
        assert!((gaps[0] - 1.0).abs() < 1e-9);
        assert!((outage(&times, &w) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn slices_tile_the_window() {
        let w = window();
        let s = slices(&w, 4);
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].start, s[0].end), (10.0, 12.5));
        assert_eq!((s[3].start, s[3].end), (17.5, 20.0));
        assert!(s.iter().all(|x| x.deadline == w.deadline));
        for pair in s.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn block_commit_time_is_the_first_push() {
        let reqs = vec![
            committed(1.0, 2.0, 5),
            committed(1.1, 1.9, 5),
            committed(1.2, 3.0, 6),
        ];
        let t = block_commit_times(&reqs);
        assert_eq!(t.get(&5), Some(&1.9));
        assert_eq!(t.get(&6), Some(&3.0));
    }

    #[test]
    fn median_and_plain_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile_of(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.99), 5.0);
        assert_eq!(percentile_of(&[], 0.5), 0.0);
    }
}
