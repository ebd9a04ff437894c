//! The load generator: one generator thread (the caller's) driving at
//! most two client connections through the public `iniva-ingress`
//! protocol (`Follow`, `Submit`, `SubmitAck`, `Committed`). Each
//! connection has a reader thread that only timestamps what arrives and
//! forwards it; every record is owned and updated by the generator.
//!
//! Like a real client, the generator resubmits a request whose drafted
//! range was abandoned in a failed view. It learns of the loss from the
//! protocol alone: the mempool drafts one fee level first-in first-out,
//! a connection's submits are admitted in the order they were sent, and
//! commits are pushed in commit order. So once a submit commits, every
//! submit admitted before it on the same connection has either had its
//! own `Committed` pushed first or was drafted into a block that can no
//! longer commit. Such a request is sent again under a fresh nonce: the
//! mempool keeps an abandoned range's nonces reserved. After the window,
//! when no new load would otherwise pass a lost request, the generator
//! sends a filler submit (due after the window, so not measured) to learn
//! of the loss the same way.

use crate::reduce::{Req, Window};
use bytes::Bytes;
use iniva_ingress::{write_frame, ClientMsg, SubmitStatus, MAX_CLIENT_FRAME};
use iniva_net::wire::Codec;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How the generator offers load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Open loop: `rate` submits per second in total, alternating between
    /// the connections on a fixed schedule, whatever the system does.
    Open {
        /// Submits per second across both connections.
        rate: f64,
    },
    /// Closed loop: each connection keeps `window` submits outstanding and
    /// sends the next one when one commits or is refused.
    Closed {
        /// Outstanding submits per connection.
        window: usize,
    },
}

/// Everything the generator needs to run one cluster's load.
pub struct GenPlan {
    /// Client-facing addresses to connect to (one connection each).
    pub addrs: Vec<SocketAddr>,
    /// Offered load.
    pub load: Load,
    /// The instant just before `ClusterBuilder::launch`.
    pub t_zero: Instant,
    /// The measured window and drain deadline, in seconds since `t_zero`.
    pub window: Window,
    /// The first warm-up submit must commit before this (s since `t_zero`).
    pub setup_deadline: f64,
    /// Payload bytes per submit.
    pub payload: usize,
}

/// Seconds between learning that a request was lost and resubmitting it,
/// and between a refused resubmit and the next try. The pause outlasts
/// any reordering of two replicas' commit pushes, which race by
/// microseconds.
const RESUBMIT_AFTER: f64 = 0.02;

/// After the window, a connection that has sent nothing for this many
/// seconds while window requests are unsettled gets a filler submit.
const FILLER_AFTER: f64 = 0.2;

/// What the generator measured.
pub struct GenResult {
    /// Every request, in the order of its first submit.
    pub reqs: Vec<Req>,
    /// Seconds from launch until the first warm-up submit's `Committed`.
    pub setup_s: f64,
    /// For submits due in the window: send time minus due time (open
    /// loop), or send time minus the arrival of the event that freed the
    /// slot (closed loop), in seconds.
    pub late: Vec<f64>,
    /// For submits due in the window: `SubmitAck` arrival minus send (s).
    pub ack: Vec<f64>,
    /// `Committed` pushes naming a nonce this generator never sent.
    pub unknown_pushes: u64,
    /// `SubmitAck`s that did not answer the oldest unanswered submit of
    /// their connection.
    pub misordered_acks: u64,
}

/// What a reader thread forwards.
enum Event {
    Ack {
        conn: usize,
        nonce: u64,
        status: SubmitStatus,
        at: f64,
    },
    Committed {
        conn: usize,
        nonce: u64,
        height: u64,
        at: f64,
    },
}

/// Reads length-prefixed client frames off `stream`, forwarding each with
/// its arrival time, until the peer closes or `stop` is raised. Parsing
/// is incremental over an owned buffer, so a read timeout between two
/// segments of one frame never loses stream position.
fn reader(
    conn: usize,
    mut stream: TcpStream,
    t_zero: Instant,
    tx: Sender<Event>,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    while !stop.load(Ordering::SeqCst) {
        let got = match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(k) => k,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let at = t_zero.elapsed().as_secs_f64();
        buf.extend_from_slice(&chunk[..got]);
        let mut off = 0;
        while buf.len() - off >= 4 {
            let len =
                u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]) as usize;
            if len > MAX_CLIENT_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("client frame of {len} bytes"),
                ));
            }
            if buf.len() - off < 4 + len {
                break;
            }
            let body = Bytes::copy_from_slice(&buf[off + 4..off + 4 + len]);
            off += 4 + len;
            let msg = ClientMsg::from_frame(body)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
            let ev = match msg {
                ClientMsg::SubmitAck { nonce, status } => Event::Ack {
                    conn,
                    nonce,
                    status,
                    at,
                },
                ClientMsg::Committed { nonce, height } => Event::Committed {
                    conn,
                    nonce,
                    height,
                    at,
                },
                _ => continue,
            };
            if tx.send(ev).is_err() {
                return Ok(()); // the generator is done
            }
        }
        buf.drain(..off);
    }
    Ok(())
}

fn connect(addr: SocketAddr, give_up: Instant) -> io::Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) if Instant::now() >= give_up => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One client connection's write side plus its nonce → record index map.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    /// `index[nonce]` is the request's position in `Gen::reqs`; a
    /// resubmitted request owns several nonces.
    index: Vec<usize>,
    /// Submits awaiting their `SubmitAck`, in send order (the nonce is
    /// also the submit's sequence number on the connection).
    unacked: VecDeque<u64>,
    /// Submits not yet passed by a later commit, by nonce in send order.
    sent: VecDeque<u64>,
    /// When the latest submit was queued (s since time zero).
    last_write: f64,
}

/// The generator's resubmit bookkeeping for one request.
#[derive(Clone, Copy)]
struct Track {
    conn: usize,
    /// Nonce of the latest submit of this request.
    last: u64,
    /// Nonce of the latest submit acked `Accepted`: the one the mempool
    /// holds.
    accepted: Option<u64>,
}

struct Gen<'a> {
    plan: &'a GenPlan,
    conns: Vec<Conn>,
    reqs: Vec<Req>,
    /// Parallel to `reqs`.
    tracks: Vec<Track>,
    payload: Bytes,
    late: Vec<f64>,
    ack: Vec<f64>,
    unknown_pushes: u64,
    misordered_acks: u64,
    /// Requests to resubmit, in the order they were found lost: the
    /// instant each is due, its record index and the nonce of the submit
    /// found lost.
    resubmits: VecDeque<(f64, usize, u64)>,
    /// Closed loop: per connection, arrival times of events that freed a
    /// slot and still await their replacement submit.
    refill: Vec<VecDeque<f64>>,
    /// Submits due in the window that have neither committed nor been
    /// refused yet.
    unsettled: usize,
}

impl Gen<'_> {
    fn now(&self) -> f64 {
        self.plan.t_zero.elapsed().as_secs_f64()
    }

    /// Queues one submit on `conn`, due at `due`; `freed_at` is the event
    /// that triggered it in a closed loop.
    fn submit(&mut self, conn: usize, due: f64, freed_at: Option<f64>) -> io::Result<()> {
        let sent = self.now();
        let idx = self.reqs.len();
        self.reqs.push(Req::new(due, sent));
        self.tracks.push(Track {
            conn,
            last: 0,
            accepted: None,
        });
        self.write_submit(idx)?;
        if self.plan.window.contains(due) {
            self.late.push(sent - freed_at.unwrap_or(due));
            self.unsettled += 1;
        }
        Ok(())
    }

    /// Queues one submit of request `idx` (its first or a resubmit)
    /// under the connection's next nonce.
    fn write_submit(&mut self, idx: usize) -> io::Result<()> {
        let now = self.now();
        let t = &mut self.tracks[idx];
        let c = &mut self.conns[t.conn];
        c.last_write = now;
        let nonce = c.index.len() as u64;
        write_frame(
            &mut c.out,
            &ClientMsg::Submit {
                fee: 1,
                nonce,
                payload: self.payload.clone(),
            },
        )?;
        c.index.push(idx);
        c.unacked.push_back(nonce);
        c.sent.push_back(nonce);
        t.last = nonce;
        Ok(())
    }

    /// Resubmits every request found lost at least [`RESUBMIT_AFTER`]
    /// ago that has neither committed nor been sent again since.
    fn resubmit_due(&mut self, now: f64) -> io::Result<()> {
        while let Some(&(due, idx, nonce)) = self.resubmits.front() {
            if due > now {
                break;
            }
            self.resubmits.pop_front();
            if self.reqs[idx].commit.is_none() && self.tracks[idx].last == nonce {
                self.reqs[idx].submits += 1;
                self.write_submit(idx)?;
            }
        }
        Ok(())
    }

    /// After the window: a filler submit on every connection idle for
    /// [`FILLER_AFTER`] while window requests are unsettled, so a lost
    /// request is still passed by a later commit.
    fn fill(&mut self, now: f64) -> io::Result<()> {
        if now < self.plan.window.end || self.window_settled() {
            return Ok(());
        }
        for conn in 0..self.conns.len() {
            if now - self.conns[conn].last_write > FILLER_AFTER {
                self.submit(conn, now, None)?;
            }
        }
        Ok(())
    }

    /// Request `idx` on `conn` committed at `at`: every submit sent on
    /// `conn` before the one the mempool held for it, whose request has
    /// neither committed nor been sent again since, was lost.
    fn passed_by(&mut self, conn: usize, idx: usize, at: f64) {
        let t = self.tracks[idx];
        let upto = t.accepted.unwrap_or(t.last);
        while let Some(&nonce) = self.conns[conn].sent.front() {
            if nonce >= upto {
                break;
            }
            self.conns[conn].sent.pop_front();
            let j = self.conns[conn].index[nonce as usize];
            let r = &self.reqs[j];
            if r.commit.is_none() && !r.refused && self.tracks[j].last == nonce {
                self.resubmits.push_back((at + RESUBMIT_AFTER, j, nonce));
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        for c in &mut self.conns {
            if !c.out.is_empty() {
                c.stream.write_all(&c.out)?;
                c.out.clear();
            }
        }
        Ok(())
    }

    fn record(&mut self, conn: usize, nonce: u64) -> Option<usize> {
        let idx = self.conns[conn].index.get(nonce as usize).copied();
        if idx.is_none() {
            self.unknown_pushes += 1;
        }
        idx
    }

    /// The request a `SubmitAck` for `nonce` on `conn` answers: that of
    /// the oldest unanswered submit, which must carry that nonce.
    fn acked(&mut self, conn: usize, nonce: u64) -> Option<usize> {
        if self.conns[conn].unacked.pop_front() != Some(nonce) {
            self.misordered_acks += 1;
            return None;
        }
        self.record(conn, nonce)
    }

    /// Applies one reader event; returns the connection whose slot it
    /// freed (closed-loop refill trigger), if any.
    fn apply(&mut self, ev: Event) -> Option<(usize, f64)> {
        match ev {
            Event::Ack {
                conn,
                nonce,
                status,
                at,
            } => {
                let idx = self.acked(conn, nonce)?;
                if status == SubmitStatus::Accepted {
                    self.tracks[idx].accepted = Some(nonce);
                }
                let w = self.plan.window;
                let r = &mut self.reqs[idx];
                if r.ack.is_some() {
                    // A refused resubmit is tried again shortly.
                    if status != SubmitStatus::Accepted && r.commit.is_none() {
                        self.resubmits.push_back((at + RESUBMIT_AFTER, idx, nonce));
                    }
                    return None;
                }
                r.ack = Some(at);
                if w.contains(r.due) {
                    self.ack.push(at - r.sent);
                }
                if status != SubmitStatus::Accepted {
                    r.refused = true;
                    if r.commit.is_none() {
                        self.settle(idx);
                    }
                    return Some((conn, at));
                }
                None
            }
            Event::Committed {
                conn,
                nonce,
                height,
                at,
            } => {
                let idx = self.record(conn, nonce)?;
                let r = &mut self.reqs[idx];
                r.commit_pushes += 1;
                if r.commit.is_none() {
                    r.commit = Some((at, height));
                    if !r.refused {
                        self.settle(idx);
                    }
                    self.passed_by(conn, idx, at);
                    return Some((conn, at));
                }
                None
            }
        }
    }

    /// Counts the first resolution of request `idx`.
    fn settle(&mut self, idx: usize) {
        if self.plan.window.contains(self.reqs[idx].due) {
            self.unsettled -= 1;
        }
    }

    fn drain_events(&mut self, rx: &Receiver<Event>, closed: bool) {
        while let Ok(ev) = rx.try_recv() {
            self.absorb(ev, closed);
        }
    }

    fn absorb(&mut self, ev: Event, closed: bool) {
        if let Some((conn, at)) = self.apply(ev) {
            if closed && at < self.plan.window.end {
                self.refill[conn].push_back(at);
            }
        }
    }

    /// True once every submit due in the window has committed or been
    /// refused.
    fn window_settled(&self) -> bool {
        self.unsettled == 0
    }
}

/// Runs the plan's load from connect through the drain deadline.
///
/// # Errors
/// Connection failures, and a first warm-up submit that does not commit
/// before `setup_deadline`.
pub fn run(plan: &GenPlan) -> Result<GenResult, String> {
    let give_up = plan.t_zero + Duration::from_secs_f64(plan.setup_deadline);
    let mut streams = Vec::new();
    for &addr in &plan.addrs {
        let s = connect(addr, give_up).map_err(|e| format!("connect {addr}: {e}"))?;
        streams.push(s);
    }
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for (conn, s) in streams.iter().enumerate() {
            let rs = s.try_clone().map_err(|e| format!("clone stream: {e}"))?;
            let tx = tx.clone();
            let stop = &stop;
            let t_zero = plan.t_zero;
            readers.push(scope.spawn(move || reader(conn, rs, t_zero, tx, stop)));
        }
        drop(tx);
        let result = drive(plan, streams, &rx);
        stop.store(true, Ordering::SeqCst);
        for (conn, r) in readers.into_iter().enumerate() {
            match r.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(format!("reader {conn}: {e}")),
                Err(_) => return Err(format!("reader {conn} panicked")),
            }
        }
        result
    })
}

fn drive(
    plan: &GenPlan,
    streams: Vec<TcpStream>,
    rx: &Receiver<Event>,
) -> Result<GenResult, String> {
    let io_err = |e: io::Error| format!("client write: {e}");
    let mut conns = Vec::new();
    for mut stream in streams {
        let mut out = Vec::new();
        write_frame(&mut out, &ClientMsg::Follow).map_err(io_err)?;
        stream.write_all(&out).map_err(io_err)?;
        conns.push(Conn {
            stream,
            out: Vec::new(),
            index: Vec::new(),
            unacked: VecDeque::new(),
            sent: VecDeque::new(),
            last_write: 0.0,
        });
    }
    let n_conns = conns.len();
    let mut g = Gen {
        plan,
        conns,
        reqs: Vec::new(),
        tracks: Vec::new(),
        payload: Bytes::from(vec![0x5a; plan.payload]),
        late: Vec::new(),
        ack: Vec::new(),
        unknown_pushes: 0,
        misordered_acks: 0,
        resubmits: VecDeque::new(),
        refill: vec![VecDeque::new(); n_conns],
        unsettled: 0,
    };

    // Set-up: one warm-up submit, timed until its commit is pushed.
    let now = g.now();
    g.submit(0, now, None).map_err(io_err)?;
    g.flush().map_err(io_err)?;
    let setup_s = loop {
        if let Some((at, _)) = g.reqs[0].commit {
            break at;
        }
        let left = plan.setup_deadline - g.now();
        if left <= 0.0 {
            return Err(format!(
                "set-up: first submit not committed within {:.1} s of launch",
                plan.setup_deadline
            ));
        }
        match rx.recv_timeout(Duration::from_secs_f64(left.min(0.05))) {
            Ok(ev) => g.absorb(ev, false),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return Err("set-up: connections closed".into()),
        }
    };
    let w = plan.window;
    match plan.load {
        Load::Open { rate } => {
            let start = g.now();
            let mut k: u64 = 0;
            loop {
                let now = g.now();
                if now >= w.deadline || (now >= w.end && g.window_settled()) {
                    break;
                }
                loop {
                    let due = start + k as f64 / rate;
                    if due > now || due >= w.end {
                        break;
                    }
                    g.submit((k % n_conns as u64) as usize, due, None)
                        .map_err(io_err)?;
                    k += 1;
                }
                g.resubmit_due(now).map_err(io_err)?;
                g.fill(now).map_err(io_err)?;
                g.flush().map_err(io_err)?;
                g.drain_events(rx, false);
                let next_due = start + k as f64 / rate;
                let wake = if next_due < w.end {
                    next_due
                } else {
                    now + 0.02
                };
                let nap = (wake - g.now()).clamp(0.0, 0.002);
                if nap > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(nap));
                }
            }
        }
        Load::Closed { window } => {
            for conn in 0..n_conns {
                for _ in 0..window {
                    let now = g.now();
                    g.submit(conn, now, None).map_err(io_err)?;
                }
            }
            g.flush().map_err(io_err)?;
            loop {
                let now = g.now();
                if now >= w.deadline || (now >= w.end && g.window_settled()) {
                    break;
                }
                match rx.recv_timeout(Duration::from_millis(2)) {
                    Ok(ev) => g.absorb(ev, true),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                g.drain_events(rx, true);
                let now = g.now();
                g.resubmit_due(now).map_err(io_err)?;
                g.fill(now).map_err(io_err)?;
                for conn in 0..n_conns {
                    while let Some(freed_at) = g.refill[conn].pop_front() {
                        let now = g.now();
                        if now >= w.end {
                            g.refill[conn].clear();
                            break;
                        }
                        g.submit(conn, now, Some(freed_at)).map_err(io_err)?;
                    }
                }
                g.flush().map_err(io_err)?;
            }
        }
    }
    g.drain_events(rx, false);
    Ok(GenResult {
        reqs: g.reqs,
        setup_s,
        late: g.late,
        ack: g.ack,
        unknown_pushes: g.unknown_pushes,
        misordered_acks: g.misordered_acks,
    })
}
