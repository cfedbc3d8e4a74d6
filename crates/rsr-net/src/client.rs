//! The client engine behind [`ConnectedDriver`](crate::ConnectedDriver):
//! run rounds of Alice sessions over a pool of connections, all driven
//! by **one** shared session executor behind the readiness reactor.
//!
//! The client plays **Alice** for every session it runs. A round first
//! `OPEN`s every session — each `OPEN` optionally carrying a negotiated
//! [`SessionSpec`] so the server can build its Bob half from the wire
//! instead of out-of-band trace state — then submits all Alice halves
//! to the shared worker-pool executor: each half's opening say is
//! pumped on its shard and the frames of different sessions (and
//! different connections) interleave. The reactor loop owns every
//! socket: nonblocking reads run through the incremental record
//! decoder, routed to sessions by id — wake-on-frame, each record
//! waking exactly one session — while produced frames queue per
//! connection and drain as sockets accept them. No reader threads, no
//! writer threads: a client drives C connections with `1 + shards`
//! threads total.
//!
//! Failure is scoped tightly. A session-level failure (local decode
//! error, server error status) marks that one session failed and the
//! round carries on. A *connection*-level failure — abrupt disconnect,
//! truncated record, idle timeout — settles every unsettled session on
//! that connection with an error, closes their local halves so each
//! reports in (the blocking design instead deadlocked waiting on
//! them), records the failure in that connection's
//! [`RunReport::transport_error`], and leaves every other connection's
//! sessions untouched.
//!
//! Connections stay alive between rounds: the pool outlives each round
//! until [`ConnectedDriver::finish`](crate::ConnectedDriver::finish)
//! half-closes and drains it.

use crate::codec::{NetError, Record, SessionSpec, STATUS_OK, STATUS_SESSION_ERROR};
use crate::driver::{RunReport, RunSession};
use crate::executor::PLACEMENT_SEED;
use crate::reactor::{ConnIo, READ_CHUNK};
use crate::server::NetSession;
use netpoll::{PollFd, Poller, POLLIN};
use rsr_core::continuous::{AliceRound, ContinuousError, SharedParty};
use rsr_core::executor::{with_executor_notified, ExecEvent, Injector, Notify};
use rsr_core::transcript::{Party, Transcript};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One session a round will run: its wire id, the Alice half, and an
/// optional [`SessionSpec`] to carry on the `OPEN` so the server builds
/// its Bob half from the wire instead of out-of-band state.
pub struct SessionPlan<'s> {
    /// The session id to use on the wire — unique per connection across
    /// the connection's whole lifetime (rounds included), except that a
    /// *continuous* session reuses its id across its rounds.
    pub id: u64,
    /// Negotiation to send with the `OPEN`; `None` sends the legacy
    /// bare open and leaves instance lookup to the server's factory.
    pub spec: Option<SessionSpec>,
    /// The local Alice half.
    pub session: Box<dyn NetSession + 's>,
    /// For a continuous session, the round index this plan drives:
    /// `Some(0)` opens the session (the spec must be marked continuous)
    /// and runs round 0; `Some(r > 0)` runs round `r` on the
    /// already-open id, sending only a `ROUND` record. `None` is an
    /// ordinary one-shot session.
    pub round: Option<u32>,
}

impl<'s> SessionPlan<'s> {
    /// A plan with no negotiation spec (the server's factory resolves
    /// the id by itself).
    pub fn new(id: u64, session: Box<dyn NetSession + 's>) -> SessionPlan<'s> {
        SessionPlan {
            id,
            spec: None,
            session,
            round: None,
        }
    }

    /// Attaches a negotiation spec to send with the `OPEN`.
    pub fn with_spec(mut self, spec: SessionSpec) -> SessionPlan<'s> {
        self.spec = Some(spec);
        self
    }

    /// Opens a **continuous** session: sends `OPEN` with `spec` marked
    /// continuous, then drives round 0 of `party` (which must be fresh —
    /// no rounds settled yet). The server's factory builds its resident
    /// Bob half from the spec; later rounds ride
    /// [`SessionPlan::next_round`] under the same id.
    pub fn open_continuous(
        id: u64,
        spec: SessionSpec,
        party: &SharedParty,
    ) -> Result<SessionPlan<'static>, ContinuousError> {
        let alice = AliceRound::begin(party)?;
        let round = alice.round();
        if round != 0 {
            // Dropping the unstarted round rolls the party back.
            return Err(ContinuousError::Round(format!(
                "open_continuous needs a fresh party, this one is at round {round}"
            )));
        }
        Ok(SessionPlan {
            id,
            spec: Some(spec.into_continuous()),
            session: Box::new(alice),
            round: Some(0),
        })
    }

    /// Drives the next incremental round of an already-open continuous
    /// session: only a `ROUND` record travels, no `OPEN`.
    pub fn next_round(
        id: u64,
        party: &SharedParty,
    ) -> Result<SessionPlan<'static>, ContinuousError> {
        let alice = AliceRound::begin(party)?;
        let round = alice.round();
        Ok(SessionPlan {
            id,
            spec: None,
            session: Box::new(alice),
            round: Some(round),
        })
    }
}

/// Client-side bookkeeping for one session of a round.
struct ClientSlot {
    id: u64,
    /// `Some(r)` for a continuous round plan: the slot settles on the
    /// server's `ROUND` ack for exactly round `r`, not on `DONE`.
    round: Option<u32>,
    transcript: Transcript,
    error: Option<String>,
    /// The server said `DONE` (or we abandoned / lost the connection):
    /// nothing further is expected on the wire for it.
    settled: bool,
    /// The executor reported the local Alice half finished, failed, or
    /// stranded — its transcript has been collected. (Also set directly
    /// for sessions that were never injected.)
    local_done: bool,
    /// When the session was injected, as an offset from the round's
    /// start; `None` while (or if never) injected.
    injected: Option<Duration>,
    /// The instant both of the above became true — the session's settle
    /// time. Stamped once, inside the event loop, so load mode can report
    /// per-session latency; batch mode ignores it.
    settled_at: Option<Instant>,
}

impl ClientSlot {
    fn new(id: u64, round: Option<u32>) -> ClientSlot {
        ClientSlot {
            id,
            round,
            transcript: Transcript::new(),
            error: None,
            settled: false,
            local_done: false,
            injected: None,
            settled_at: None,
        }
    }

    fn resolved(&self) -> bool {
        self.settled && self.local_done
    }

    /// Stamps the settle time on the transition to fully-settled.
    fn note_progress(&mut self) {
        if self.settled && self.local_done && self.settled_at.is_none() {
            self.settled_at = Some(Instant::now());
        }
    }
}

/// Per-session error when the transport under it died.
const FAILED_BEFORE_SETTLE: &str = "connection failed before session settled";
/// Per-session error when the server closed cleanly first.
const CLOSED_BEFORE_SETTLE: &str = "connection closed before session settled";

/// How long a round keeps trying to drain already-queued output after
/// every session resolved, before giving the connection up as wedged.
const FLUSH_GRACE: Duration = Duration::from_secs(5);
/// How long [`finish`] waits for the server's EOFs.
const FINISH_GRACE: Duration = Duration::from_secs(5);

/// One connection's plan for a round: the sessions plus, in open-loop
/// mode, the arrival schedule.
pub(crate) struct RoundPlan<'s> {
    pub(crate) sessions: Vec<SessionPlan<'s>>,
    pub(crate) schedule: Option<Vec<Duration>>,
}

/// One connection's state while a round runs.
struct RoundConn<'s> {
    slots: Vec<ClientSlot>,
    wire_to_slot: HashMap<u64, usize>,
    /// Slot index → executor id, once injected.
    exec_of_slot: Vec<Option<u64>>,
    pending: std::vec::IntoIter<SessionPlan<'s>>,
    schedule: Option<Vec<Duration>>,
    next_up: usize,
    frames_in: usize,
    frames_out: usize,
    base_in: u64,
    base_out: u64,
    /// First transport-level failure on this connection.
    transport_error: Option<NetError>,
    /// Socket unusable after a failure.
    dead: bool,
    /// The server closed its side cleanly (no failure, but the
    /// connection is spent).
    eof_clean: bool,
    /// Set when every slot resolved but output is still draining.
    flush_deadline: Option<Instant>,
}

impl RoundConn<'_> {
    fn usable(&self) -> bool {
        !self.dead && !self.eof_clean
    }

    /// Sessions injected on the wire and not yet settled — the ones an
    /// idle deadline protects.
    fn in_flight(&self) -> bool {
        self.slots[..self.next_up].iter().any(|s| !s.settled)
    }

    fn all_resolved(&self) -> bool {
        self.slots.iter().all(ClientSlot::resolved)
    }

    /// Shapes this connection's finished round into its report. An
    /// open-loop round carries per-session timing and spans start to
    /// last settle when every session completed, start to `loop_end`
    /// otherwise. A batch round leaves the timing `None` and spans to
    /// `loop_end`; [`ConnectedDriver::batch`](crate::ConnectedDriver::batch)
    /// restamps it with the wall clock around the whole call.
    fn into_report(
        self,
        wire_in: u64,
        wire_out: u64,
        t0: Instant,
        loop_end: Duration,
    ) -> RunReport {
        let schedule = self.schedule;
        let sessions: Vec<RunSession> = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let mut error = slot.error;
                let (scheduled, injected, settled) = match &schedule {
                    Some(schedule) => {
                        if slot.injected.is_none() {
                            error.get_or_insert_with(|| {
                                "load run ended before this session was injected".into()
                            });
                        }
                        (
                            Some(schedule[i]),
                            Some(slot.injected.unwrap_or(loop_end)),
                            slot.settled_at.map(|at| at.saturating_duration_since(t0)),
                        )
                    }
                    None => (None, None, None),
                };
                RunSession {
                    id: slot.id,
                    transcript: slot.transcript,
                    error,
                    scheduled,
                    injected,
                    settled,
                }
            })
            .collect();
        let elapsed = if schedule.is_some() && sessions.iter().all(RunSession::is_ok) {
            sessions
                .iter()
                .filter_map(|s| s.settled)
                .max()
                .unwrap_or(loop_end)
        } else {
            loop_end
        };
        RunReport {
            sessions,
            elapsed,
            frames_out: self.frames_out,
            frames_in: self.frames_in,
            wire_bytes_out: wire_out - self.base_out,
            wire_bytes_in: wire_in - self.base_in,
            transport_error: self.transport_error,
        }
    }
}

/// A pooled connection between rounds.
pub(crate) struct PoolConn {
    io: Option<ConnIo>,
    /// Why `io` is `None` — surfaced when a later round still names
    /// this connection.
    closed_reason: Option<String>,
    /// Session ids ever used on this connection; reuse would collide
    /// with the server's per-connection id map.
    used: HashSet<u64>,
    /// Ids opened as continuous sessions — the one sanctioned form of
    /// id reuse: each later round names the same id again.
    continuous: HashSet<u64>,
}

impl PoolConn {
    pub(crate) fn new(stream: TcpStream) -> io::Result<PoolConn> {
        Ok(PoolConn {
            io: Some(ConnIo::new(stream)?),
            closed_reason: None,
            used: HashSet::new(),
            continuous: HashSet::new(),
        })
    }

    pub(crate) fn is_live(&self) -> bool {
        self.io.is_some()
    }

    /// Retires a continuous session: sends `DONE` under its id so the
    /// server drops the resident party, and frees the id's continuous
    /// standing on this connection. Queued output is flushed best-effort
    /// here and drains fully on the next round or at [`finish`].
    pub(crate) fn close_continuous(&mut self, id: u64) -> Result<(), NetError> {
        if !self.continuous.remove(&id) {
            return Err(NetError::Malformed(
                "id is not open as a continuous session on this connection",
            ));
        }
        // A dead connection already took the server-side state with it.
        let Some(io) = self.io.as_mut() else {
            return Ok(());
        };
        io.queue(&Record::Done {
            session: id,
            status: STATUS_OK,
            message: String::new(),
        })?;
        io.try_flush()
    }
}

/// Marks a connection failed mid-round: kills the socket, settles every
/// unsettled session with an error, and closes each injected session's
/// local half so it reports in. The close is what lets the round
/// terminate — the blocking design left those halves waiting forever.
fn fail_conn(
    rc: &mut RoundConn<'_>,
    io: Option<&mut ConnIo>,
    injector: &Injector<'_>,
    e: NetError,
) {
    let msg = format!("{FAILED_BEFORE_SETTLE}: {e}");
    if rc.transport_error.is_none() {
        rc.transport_error = Some(e);
    }
    rc.dead = true;
    if rsr_obs::enabled() {
        let unsettled = rc.slots.iter().filter(|s| !s.settled).count();
        rsr_obs::global_ring().push(
            "net_client_conn_failed",
            unsettled as u64,
            io.as_ref().map_or(0, |io| io.wire_bytes_in),
        );
    }
    if let Some(io) = io {
        io.kill();
    }
    settle_leftovers(rc, injector, &msg);
}

/// The server closed its side cleanly; anything unsettled becomes a
/// per-session error but the round (and report) stays `Ok`.
fn close_conn_clean(rc: &mut RoundConn<'_>, injector: &Injector<'_>) {
    rc.eof_clean = true;
    settle_leftovers(rc, injector, CLOSED_BEFORE_SETTLE);
}

fn settle_leftovers(rc: &mut RoundConn<'_>, injector: &Injector<'_>, msg: &str) {
    for (idx, slot) in rc.slots.iter_mut().enumerate() {
        if slot.settled {
            continue;
        }
        slot.settled = true;
        slot.error.get_or_insert_with(|| msg.to_owned());
        match rc.exec_of_slot[idx] {
            // Stale closes (local half already finished) are no-ops.
            // This is a failure path, so the owned reason is fine.
            Some(exec) => {
                injector.close(exec, msg.to_owned());
            }
            // Never injected: there is no local half to wait for.
            None => slot.local_done = true,
        }
        slot.note_progress();
    }
}

/// Checks a round's plans against the pool without touching it, so a
/// rejected round leaves every connection's id bookkeeping as it was.
fn validate_plans(pool: &[PoolConn], plans: &[RoundPlan<'_>]) -> Result<(), NetError> {
    if plans.len() != pool.len() {
        return Err(NetError::Malformed("one session plan per connection"));
    }
    for (conn, plan) in pool.iter().zip(plans) {
        if let Some(schedule) = &plan.schedule {
            if schedule.len() != plan.sessions.len() {
                return Err(NetError::Malformed(
                    "arrival schedule length must match session count",
                ));
            }
            if schedule.windows(2).any(|w| w[0] > w[1]) {
                return Err(NetError::Malformed(
                    "arrival schedule must be non-decreasing",
                ));
            }
        }
        let mut seen = HashSet::with_capacity(plan.sessions.len());
        for s in &plan.sessions {
            if !seen.insert(s.id) {
                return Err(NetError::Malformed("duplicate session id in batch"));
            }
            match s.round {
                // One-shot sessions and continuous opens burn a fresh id.
                None | Some(0) => {
                    if conn.used.contains(&s.id) {
                        return Err(NetError::Malformed("session id reused on this connection"));
                    }
                }
                // Later rounds are the sanctioned reuse — but only of an
                // id this connection actually opened as continuous.
                Some(_) => {
                    if !conn.continuous.contains(&s.id) {
                        return Err(NetError::Malformed(
                            "continuous round for a session this connection never opened",
                        ));
                    }
                }
            }
            let continuous_spec = s.spec.as_ref().is_some_and(|spec| spec.continuous);
            if s.round == Some(0) && !continuous_spec {
                return Err(NetError::Malformed(
                    "continuous round 0 needs a spec marked continuous",
                ));
            }
            if s.round.is_none() && continuous_spec {
                return Err(NetError::Malformed(
                    "a continuous spec needs a round index on its plan",
                ));
            }
        }
    }
    Ok(())
}

/// The round driver: injects each connection's sessions (on schedule in
/// open-loop mode, immediately otherwise), routes wire records and
/// executor events, and runs until every session on every connection is
/// resolved. Returns one report per connection — `Err` only for
/// argument errors and poller setup, both caught before any id is
/// committed to the pool; never for connection failures (those are
/// per-connection outcomes).
pub(crate) fn drive_rounds<'s>(
    pool: &mut [PoolConn],
    plans: Vec<RoundPlan<'s>>,
    shards: usize,
    idle_timeout: Option<Duration>,
) -> Result<Vec<RunReport>, NetError> {
    validate_plans(pool, &plans)?;
    let (mut poller, waker) = Poller::new()?;
    for (conn, plan) in pool.iter_mut().zip(&plans) {
        for s in &plan.sessions {
            conn.used.insert(s.id);
            if s.round == Some(0) {
                conn.continuous.insert(s.id);
            }
        }
    }

    let mut state: Vec<RoundConn<'s>> = Vec::with_capacity(plans.len());
    for (conn, plan) in pool.iter().zip(plans) {
        let n = plan.sessions.len();
        let slots: Vec<ClientSlot> = plan
            .sessions
            .iter()
            .map(|s| ClientSlot::new(s.id, s.round))
            .collect();
        let wire_to_slot = plan
            .sessions
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let (base_in, base_out) = conn
            .io
            .as_ref()
            .map_or((0, 0), |io| (io.wire_bytes_in, io.wire_bytes_out));
        state.push(RoundConn {
            slots,
            wire_to_slot,
            exec_of_slot: vec![None; n],
            pending: plan.sessions.into_iter(),
            schedule: plan.schedule,
            next_up: 0,
            frames_in: 0,
            frames_out: 0,
            base_in,
            base_out,
            transport_error: None,
            dead: false,
            eof_clean: false,
            flush_deadline: None,
        });
    }

    let notify: Notify = Arc::new(move || waker.wake());
    let t0 = Instant::now();
    let mut loop_end = Duration::ZERO;

    with_executor_notified(
        shards,
        PLACEMENT_SEED,
        Some(notify),
        |mut injector, events| {
            // Connections already closed by an earlier round: resolve
            // their sessions immediately.
            for (c, rc) in state.iter_mut().enumerate() {
                if pool[c].io.is_none() {
                    let reason = pool[c]
                        .closed_reason
                        .clone()
                        .unwrap_or_else(|| "connection already closed".into());
                    rc.eof_clean = true;
                    for slot in &mut rc.slots {
                        slot.settled = true;
                        slot.local_done = true;
                        slot.error.get_or_insert_with(|| reason.clone());
                    }
                }
            }

            // Executor id → (connection index, slot index). Wire ids are
            // per-connection; the shared executor needs unique ids.
            let mut routes: HashMap<u64, (usize, usize)> = HashMap::new();
            let mut next_exec: u64 = 0;
            let mut scratch = vec![0u8; READ_CHUNK];
            let mut fds: Vec<PollFd> = Vec::new();
            let mut fd_conns: Vec<usize> = Vec::new();

            loop {
                // Inject everything that is due. Submit before queueing
                // OPEN: were OPEN flushed first, the server could answer
                // before the executor knows the id.
                for c in 0..state.len() {
                    let rc = &mut state[c];
                    if !rc.usable() {
                        continue;
                    }
                    let elapsed = t0.elapsed();
                    while rc.next_up < rc.slots.len() {
                        let due = match &rc.schedule {
                            Some(schedule) => elapsed >= schedule[rc.next_up],
                            None => true,
                        };
                        if !due {
                            break;
                        }
                        let plan = rc.pending.next().expect("pending matches slots");
                        let exec = next_exec;
                        next_exec += 1;
                        let slot_idx = rc.next_up;
                        rc.exec_of_slot[slot_idx] = Some(exec);
                        routes.insert(exec, (c, slot_idx));
                        injector.submit(exec, Party::Alice, plan.session);
                        let io = pool[c].io.as_mut().expect("usable conn has io");
                        io.last_activity = Instant::now();
                        rc.slots[slot_idx].injected = Some(t0.elapsed());
                        rc.next_up += 1;
                        // A one-shot session OPENs; a continuous round 0
                        // OPENs (spec marked continuous) then announces
                        // round 0; a later round sends only ROUND — the
                        // id is already resident on the server.
                        let queued = match plan.round {
                            None => io.queue(&Record::Open {
                                session: plan.id,
                                spec: plan.spec,
                            }),
                            Some(0) => io
                                .queue(&Record::Open {
                                    session: plan.id,
                                    spec: plan.spec,
                                })
                                .and_then(|()| {
                                    io.queue(&Record::Round {
                                        session: plan.id,
                                        round: 0,
                                    })
                                }),
                            Some(round) => io.queue(&Record::Round {
                                session: plan.id,
                                round,
                            }),
                        };
                        if let Err(e) = queued {
                            fail_conn(rc, Some(io), &injector, e);
                            break;
                        }
                    }
                }

                // Route executor events: frames out, local halves done.
                while let Some(ev) = events.try_recv() {
                    match ev {
                        ExecEvent::Frame { id, frame } => {
                            let &(c, s) = routes.get(&id).expect("routed session");
                            let rc = &mut state[c];
                            rc.frames_out += 1;
                            if rc.usable() {
                                let rec = Record::Frame {
                                    session: rc.slots[s].id,
                                    frame,
                                };
                                let io = pool[c].io.as_mut().expect("usable conn has io");
                                if let Err(e) = io.queue(&rec) {
                                    fail_conn(rc, Some(io), &injector, e);
                                }
                            }
                        }
                        ExecEvent::Done {
                            id,
                            transcript,
                            error,
                        } => {
                            let (c, s) = routes.remove(&id).expect("routed session");
                            let rc = &mut state[c];
                            rc.slots[s].local_done = true;
                            rc.slots[s].transcript = transcript;
                            if let Some(e) = error {
                                // A genuine local failure (not one relayed
                                // from a server DONE — those arrive with
                                // `settled` already set) abandons the
                                // session so a Bob blocked on this Alice
                                // cannot wedge the connection.
                                if !rc.slots[s].settled {
                                    rc.slots[s].settled = true;
                                    if rc.usable() {
                                        let rec = Record::Done {
                                            session: rc.slots[s].id,
                                            status: STATUS_SESSION_ERROR,
                                            message: e.clone().into_owned(),
                                        };
                                        let io = pool[c].io.as_mut().expect("usable conn has io");
                                        if let Err(err) = io.queue(&rec) {
                                            fail_conn(rc, Some(io), &injector, err);
                                        }
                                    }
                                }
                                rc.slots[s].error.get_or_insert(e.into_owned());
                            }
                            rc.slots[s].note_progress();
                        }
                        ExecEvent::Stranded { id, transcript } => {
                            let (c, s) = routes.remove(&id).expect("routed session");
                            let rc = &mut state[c];
                            rc.slots[s].local_done = true;
                            rc.slots[s].transcript = transcript;
                            rc.slots[s]
                                .error
                                .get_or_insert_with(|| CLOSED_BEFORE_SETTLE.into());
                            rc.slots[s].note_progress();
                        }
                    }
                }

                // Flush queued output; sweep idle and flush-stalled conns.
                let now = Instant::now();
                for c in 0..state.len() {
                    let rc = &mut state[c];
                    if !rc.usable() {
                        continue;
                    }
                    let io = pool[c].io.as_mut().expect("usable conn has io");
                    if let Err(e) = io.try_flush() {
                        fail_conn(rc, Some(io), &injector, e);
                        continue;
                    }
                    if let Some(idle) = idle_timeout {
                        if rc.in_flight() && now.duration_since(io.last_activity) >= idle {
                            let e = io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("no wire activity for {idle:?} with sessions in flight"),
                            );
                            fail_conn(rc, Some(io), &injector, e.into());
                            continue;
                        }
                    }
                    if rc.all_resolved() && io.wants_write() {
                        let deadline = *rc.flush_deadline.get_or_insert(now + FLUSH_GRACE);
                        if now >= deadline {
                            let e = io::Error::new(
                                io::ErrorKind::TimedOut,
                                "output stalled after every session resolved",
                            );
                            fail_conn(rc, Some(io), &injector, e.into());
                        }
                    }
                }

                // Done when every connection's round is over: all slots
                // resolved and (for live conns) the output drained.
                let round_over = state.iter().enumerate().all(|(c, rc)| {
                    rc.all_resolved()
                        && (!rc.usable() || !pool[c].io.as_ref().is_some_and(ConnIo::wants_write))
                });
                if round_over {
                    break;
                }

                // Wait for readiness: sockets, the next scheduled
                // arrival, the nearest idle/flush deadline, or the
                // executor's waker.
                fds.clear();
                fd_conns.clear();
                let mut deadline: Option<Instant> = None;
                let note = |at: Instant, deadline: &mut Option<Instant>| {
                    *deadline = Some(deadline.map_or(at, |d| d.min(at)));
                };
                for (c, rc) in state.iter().enumerate() {
                    if !rc.usable() {
                        continue;
                    }
                    let io = pool[c].io.as_ref().expect("usable conn has io");
                    let interest = io.interest();
                    if interest != 0 {
                        fds.push(PollFd::new(io.fd(), interest));
                        fd_conns.push(c);
                    }
                    if let Some(schedule) = &rc.schedule {
                        if rc.next_up < rc.slots.len() {
                            note(t0 + schedule[rc.next_up], &mut deadline);
                        }
                    }
                    if let Some(idle) = idle_timeout {
                        if rc.in_flight() {
                            note(io.last_activity + idle, &mut deadline);
                        }
                    }
                    if let Some(flush) = rc.flush_deadline {
                        note(flush, &mut deadline);
                    }
                }
                let timeout = deadline.map(|at| at.saturating_duration_since(Instant::now()));
                if rsr_obs::enabled() {
                    crate::obs::net_metrics().client_polls.inc();
                }
                if let Err(e) = poller.wait(&mut fds, timeout) {
                    // Poller failure is unrecoverable for the whole round:
                    // fail every live connection and settle out.
                    for c in 0..state.len() {
                        let rc = &mut state[c];
                        if rc.usable() {
                            let err = io::Error::new(e.kind(), e.to_string());
                            fail_conn(rc, pool[c].io.as_mut(), &injector, err.into());
                        }
                    }
                    continue;
                }

                // Drain readable sockets into the executor.
                for (fd, &c) in fds.iter().zip(&fd_conns) {
                    if !fd.readable() {
                        continue;
                    }
                    let rc = &mut state[c];
                    if !rc.usable() {
                        continue;
                    }
                    let io = pool[c].io.as_mut().expect("usable conn has io");
                    if let Err(e) = io.fill(&mut scratch) {
                        fail_conn(rc, Some(io), &injector, e);
                        continue;
                    }
                    loop {
                        match io.next_record() {
                            Ok(Some(record)) => {
                                if let Err(e) = route_server_record(rc, record, &injector) {
                                    fail_conn(rc, Some(io), &injector, e);
                                    break;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                fail_conn(rc, Some(io), &injector, e);
                                break;
                            }
                        }
                    }
                    if rc.usable() && io.read_closed {
                        match io.eof_truncation() {
                            Some(e) => fail_conn(rc, Some(io), &injector, e),
                            None => close_conn_clean(rc, &injector),
                        }
                    }
                }
            }
            loop_end = t0.elapsed();
        },
    );

    // Shape reports and update the pool: dead and cleanly-closed
    // connections drop out of it.
    let mut reports = Vec::with_capacity(state.len());
    for (c, rc) in state.into_iter().enumerate() {
        let conn = &mut pool[c];
        let (wire_in, wire_out) = conn.io.as_ref().map_or((rc.base_in, rc.base_out), |io| {
            (io.wire_bytes_in, io.wire_bytes_out)
        });
        if rc.dead {
            let reason = rc
                .transport_error
                .as_ref()
                .map_or_else(|| "connection failed".to_owned(), NetError::to_string);
            conn.io = None;
            conn.closed_reason.get_or_insert(reason);
        } else if rc.eof_clean {
            conn.io = None;
            conn.closed_reason
                .get_or_insert_with(|| "connection closed by server".into());
        }
        reports.push(rc.into_report(wire_in, wire_out, t0, loop_end));
    }
    Ok(reports)
}

/// Applies one server record to a connection's round state. `Err` means
/// the server violated the record contract and the connection is done
/// for.
fn route_server_record(
    rc: &mut RoundConn<'_>,
    record: Record,
    injector: &Injector<'_>,
) -> Result<(), NetError> {
    match record {
        Record::Open { .. } => Err(NetError::Malformed("server sent an open record")),
        Record::Frame { session, frame } => {
            let (_, exec) = lookup(rc, session)?;
            rc.frames_in += 1;
            injector.deliver(exec, frame);
            Ok(())
        }
        Record::Done {
            session,
            status,
            message,
        } => {
            let (s, exec) = lookup(rc, session)?;
            let slot = &mut rc.slots[s];
            slot.settled = true;
            // Close the local half so it reports in even if it cannot
            // finish on its own; the close is stale — a silent no-op —
            // whenever the half already completed.
            let reason = if status == STATUS_OK {
                "server finished but the local session is incomplete".to_owned()
            } else {
                let e = format!("server status {status}: {message}");
                slot.error.get_or_insert_with(|| e.clone());
                e
            };
            injector.close(exec, reason);
            slot.note_progress();
            Ok(())
        }
        Record::Round { session, round } => {
            // The server acknowledges a settled continuous round by
            // echoing the ROUND record (its keys frame, if any, was
            // already on the wire before the ack). The local Alice half
            // finishes on its own from that frame, so nothing is closed
            // here — the slot just stops expecting wire traffic.
            let (s, _exec) = lookup(rc, session)?;
            let slot = &mut rc.slots[s];
            if slot.round != Some(round) {
                return Err(NetError::Malformed(
                    "round ack for a round this batch is not driving",
                ));
            }
            slot.settled = true;
            slot.note_progress();
            Ok(())
        }
    }
}

/// Resolves a wire session id to `(slot index, executor id)`; a record
/// for an id this round never injected is a contract violation.
fn lookup(rc: &RoundConn<'_>, wire: u64) -> Result<(usize, u64), NetError> {
    let unknown = NetError::Malformed("record for a session id not in the batch");
    let Some(&s) = rc.wire_to_slot.get(&wire) else {
        return Err(unknown);
    };
    match rc.exec_of_slot[s] {
        Some(exec) => Ok((s, exec)),
        None => Err(unknown),
    }
}

/// Half-closes every live connection in the pool (shutdown of the write
/// side — the server sees EOF, finishes, and closes) and drains the read
/// sides to EOF, bounded by a grace period. Errors at this point are
/// ignored: the connections are being thrown away.
pub(crate) fn finish(pool: Vec<PoolConn>) {
    let mut ios: Vec<ConnIo> = pool.into_iter().filter_map(|c| c.io).collect();
    for io in &ios {
        io.shutdown_write();
    }
    let Ok((mut poller, _waker)) = Poller::new() else {
        return;
    };
    let deadline = Instant::now() + FINISH_GRACE;
    let mut scratch = vec![0u8; READ_CHUNK];
    while !ios.is_empty() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let mut fds: Vec<PollFd> = ios.iter().map(|io| PollFd::new(io.fd(), POLLIN)).collect();
        if poller.wait(&mut fds, Some(deadline - now)).is_err() {
            return;
        }
        let mut keep = Vec::with_capacity(ios.len());
        for (io, fd) in ios.into_iter().zip(&fds) {
            let mut io = io;
            if !fd.readable() || !io.drain_read(&mut scratch) {
                keep.push(io);
            }
        }
        ios = keep;
    }
}
