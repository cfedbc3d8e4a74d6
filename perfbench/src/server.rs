//! The server process: one [`ReconServer`] (reactor + two executor
//! shards) behind this benchmark's own [`SessionFactory`].
//!
//! The factory rebuilds every one-shot instance from the `OPEN`'s spec,
//! exactly as the repository's spec-primary factory does, and wraps the
//! typed Bob half so the benchmark can (a) time it from outside — the
//! rebuild inside `open_spec`, the wait until the executor first calls
//! in, and the self time of every `poll_send`/`on_frame` — and (b) check
//! the set Bob actually reconciled. The check runs when the executor
//! drops the session, so only its verdict is kept and the process's peak
//! RSS holds no finished session's output; its thread CPU is left out of
//! the reported server CPU.
//!
//! Protocol with the client process, all on stdout, one record a line:
//! `READY <port>` once bound; after the run, `S …` per one-shot session
//! (its timings, then a status code: 0 unfinished, 1 passed, 2 Gap
//! guarantee missed, 3 wrong output, then the EMD ratio or `-`),
//! `C <open_us>` per continuous open, `M <key> <value>` for process
//! totals, and `END`.

use crate::stats::{process_cpu, thread_cpu, us};
use rsr_bench::experiments::net::{continuous_party_of, entry_of, Instance};
use rsr_core::channel::Frame;
use rsr_core::continuous::{shared, SharedParty};
use rsr_core::emd_protocol::EmdBobSession;
use rsr_core::emd_scaled::ScaledEmdBobSession;
use rsr_core::gap_protocol::{verify_gap_guarantee, GapBobSession};
use rsr_emd::AssignmentSolver;
use rsr_hash::BitSamplingFamily;
use rsr_metric::{MetricSpace, Point};
use rsr_net::{NetSession, ReconServer, SessionFactory, SessionSpec, PROTO_CONT};
use rsr_workloads::trace::TraceEntry;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Executor shards in the server process.
const SERVER_SHARDS: usize = 2;

/// Gap sessions exchange rounds 1–3 of the sets-of-sets substrate
/// before Alice's round-4 far points; frames up to this index count
/// towards `setsofsets.round_cpu_us`.
pub const SOS_FRAMES: u32 = 3;

/// The typed Bob half of a one-shot instance, kept typed so the
/// reconciled set can be taken out when the session ends.
enum BobHalf<'a> {
    Emd(EmdBobSession<'a>),
    Scaled(ScaledEmdBobSession<'a>),
    Gap(GapBobSession<'a, BitSamplingFamily>),
}

impl<'a> BobHalf<'a> {
    fn of(instance: &'a Instance) -> BobHalf<'a> {
        match instance {
            Instance::Emd { proto, bob, .. } => BobHalf::Emd(proto.bob_session(bob)),
            Instance::ScaledEmd { proto, bob, .. } => BobHalf::Scaled(proto.bob_session(bob)),
            Instance::Gap { proto, bob, .. } => BobHalf::Gap(proto.bob_session(bob)),
        }
    }

    fn session(&mut self) -> &mut (dyn NetSession + 'a) {
        match self {
            BobHalf::Emd(s) => s,
            BobHalf::Scaled(s) => s,
            BobHalf::Gap(s) => s,
        }
    }

    fn session_ref(&self) -> &(dyn NetSession + 'a) {
        match self {
            BobHalf::Emd(s) => s,
            BobHalf::Scaled(s) => s,
            BobHalf::Gap(s) => s,
        }
    }

    fn into_reconciled(self) -> Option<Vec<Point>> {
        match self {
            BobHalf::Emd(s) => s.into_outcome().map(|o| o.reconciled),
            BobHalf::Scaled(s) => s.into_outcome().map(|o| o.inner.reconciled),
            BobHalf::Gap(s) => s.into_reconciled(),
        }
    }
}

/// What the server measured about one one-shot session.
struct BobRecord {
    id: u64,
    open: Duration,
    /// `open_spec` end → first executor call into Bob.
    wait: Duration,
    cpu: Duration,
    sos: Duration,
    verdict: Verdict,
    /// The EMD ratio of a passed EMD-model session.
    quality: Option<f64>,
    /// Thread CPU of the output check, not part of the program's work.
    check_cpu: Duration,
}

/// A Bob session that owns the instance it borrows from and reports
/// its timings and result to the factory when the executor drops it.
struct TimedBob<'f> {
    /// Borrows `instance`; declared first so it drops first. `None` only
    /// inside `drop`.
    half: Option<BobHalf<'static>>,
    /// The heap-pinned instance `half` borrows.
    instance: Box<Instance>,
    store: &'f Mutex<Vec<BobRecord>>,
    trace: bool,
    id: u64,
    entry: TraceEntry,
    open: Duration,
    opened: Instant,
    first_call: Option<Instant>,
    cpu: Duration,
    sos: Duration,
    frames: u32,
}

impl TimedBob<'_> {
    fn enter(&mut self) -> Option<Instant> {
        if !self.trace {
            return None;
        }
        let now = Instant::now();
        self.first_call.get_or_insert(now);
        Some(now)
    }

    fn leave(&mut self, entered: Option<Instant>, moved_frame: bool) {
        let Some(entered) = entered else { return };
        let spent = entered.elapsed();
        self.cpu += spent;
        if moved_frame {
            self.frames += 1;
            if matches!(*self.instance, Instance::Gap { .. }) && self.frames <= SOS_FRAMES {
                self.sos += spent;
            }
        }
    }

    fn half(&mut self) -> &mut (dyn NetSession + 'static) {
        self.half
            .as_mut()
            .expect("the Bob half lives until drop")
            .session()
    }
}

impl NetSession for TimedBob<'_> {
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        let entered = self.enter();
        let out = self.half().poll_send();
        self.leave(entered, matches!(out, Ok(Some(_))));
        out
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        let entered = self.enter();
        let out = self.half().on_frame(frame);
        self.leave(entered, true);
        out
    }

    fn is_done(&self) -> bool {
        self.half
            .as_ref()
            .is_some_and(|h| h.session_ref().is_done())
    }

    fn protocol(&self) -> &'static str {
        self.half
            .as_ref()
            .map_or("session", |h| h.session_ref().protocol())
    }
}

impl Drop for TimedBob<'_> {
    fn drop(&mut self) {
        let reconciled = self.half.take().and_then(|h| {
            if h.session_ref().is_done() {
                h.into_reconciled()
            } else {
                None
            }
        });
        let check_from = thread_cpu();
        let (verdict, quality) = match reconciled {
            Some(set) => check(&self.entry, &self.instance, &set),
            None => (Verdict::Unfinished, None),
        };
        let check_cpu = thread_cpu().saturating_sub(check_from);
        let wait = self
            .first_call
            .map_or(Duration::ZERO, |t| t.saturating_duration_since(self.opened));
        let record = BobRecord {
            id: self.id,
            open: self.open,
            wait,
            cpu: self.cpu,
            sos: self.sos,
            verdict,
            quality,
            check_cpu,
        };
        // A poisoned store only loses this record; Drop must not panic.
        if let Ok(mut store) = self.store.lock() {
            store.push(record);
        }
    }
}

/// The benchmark's own factory: spec-carrying opens only.
struct BenchFactory {
    trace: bool,
    sessions: Mutex<Vec<BobRecord>>,
    continuous_opens: Mutex<Vec<Duration>>,
}

impl SessionFactory for BenchFactory {
    fn open_spec(
        &self,
        session_id: u64,
        spec: Option<&SessionSpec>,
    ) -> Option<Box<dyn NetSession + '_>> {
        let entry = entry_of(spec?)?;
        let started = Instant::now();
        let instance = Box::new(Instance::build(&entry));
        let half = BobHalf::of(&instance);
        // SAFETY: `half` borrows the `Instance` behind `instance`'s heap
        // allocation, whose address is stable however the box moves. The
        // box moves into `TimedBob` next to `half` and is never replaced;
        // `half` is declared first, so it drops first, and `Drop` takes it
        // out (ending every use of the borrow) before the box is freed.
        let half: BobHalf<'static> = unsafe { std::mem::transmute(half) };
        let opened = Instant::now();
        Some(Box::new(TimedBob {
            half: Some(half),
            instance,
            store: &self.sessions,
            trace: self.trace,
            id: session_id,
            entry,
            open: opened - started,
            opened,
            first_call: None,
            cpu: Duration::ZERO,
            sos: Duration::ZERO,
            frames: 0,
        }))
    }

    fn open_continuous(&self, _session_id: u64, spec: &SessionSpec) -> Option<SharedParty> {
        if spec.protocol != PROTO_CONT {
            return None;
        }
        let started = Instant::now();
        let party = shared(continuous_party_of(spec));
        if let Ok(mut opens) = self.continuous_opens.lock() {
            opens.push(started.elapsed());
        }
        Some(party)
    }
}

/// The verdict on one one-shot session, as the `S` line's status code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Bob never finished: the session failed and said so.
    Unfinished = 0,
    Passed = 1,
    /// A Gap session whose output misses the Gap Guarantee, which the
    /// protocol gives only with high probability: a failed op.
    GuaranteeMissed = 2,
    /// An output no guarantee allows (an EMD-model set of the wrong size).
    Wrong = 3,
}

impl Verdict {
    pub fn from_code(code: u8) -> Option<Verdict> {
        [
            Verdict::Unfinished,
            Verdict::Passed,
            Verdict::GuaranteeMissed,
            Verdict::Wrong,
        ]
        .into_iter()
        .find(|v| *v as u8 == code)
    }
}

/// The output check for one settled one-shot session, with the EMD
/// ratio `EMD(S_A, S'_B) / max(EMD_k(S_A, S_B), 1)` of EMD-model
/// sessions. Gap sessions pass when every Alice point has a reconciled
/// point within `r2`.
fn check(entry: &TraceEntry, instance: &Instance, reconciled: &[Point]) -> (Verdict, Option<f64>) {
    let ratio = |space: &MetricSpace, alice: &[Point], bob: &[Point], k: usize| {
        let metric = space.metric();
        let after = rsr_emd::emd_with(AssignmentSolver::Auction, metric, alice, reconciled);
        let before = rsr_emd::emd_k_with(AssignmentSolver::Auction, metric, alice, bob, k);
        after / before.max(1.0)
    };
    match instance {
        Instance::Emd { proto, alice, bob } => {
            if reconciled.len() != alice.len() {
                return (Verdict::Wrong, None);
            }
            (
                Verdict::Passed,
                Some(ratio(proto.space(), alice, bob, entry.k)),
            )
        }
        Instance::ScaledEmd { alice, bob, .. } => {
            if reconciled.len() != alice.len() {
                return (Verdict::Wrong, None);
            }
            // The space `Instance::build` draws scaled-EMD instances in.
            let space = MetricSpace::l2(256, entry.dim);
            (Verdict::Passed, Some(ratio(&space, alice, bob, entry.k)))
        }
        Instance::Gap { proto, alice, .. } => {
            let space = MetricSpace::hamming(entry.dim);
            if verify_gap_guarantee(&space, alice, reconciled, proto.config().r2) {
                (Verdict::Passed, None)
            } else {
                (Verdict::GuaranteeMissed, None)
            }
        }
    }
}

/// Entry point of `perfbench serve --conns C [--trace]`.
pub fn main(args: &[String]) -> Result<(), String> {
    let trace = args.iter().any(|a| a == "--trace");
    let conns: usize = args
        .iter()
        .position(|a| a == "--conns")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .ok_or("serve needs --conns N")?;
    rsr_obs::set_enabled(trace);
    let cpu_at_start = process_cpu();
    let factory = Arc::new(BenchFactory {
        trace,
        sessions: Mutex::new(Vec::new()),
        continuous_opens: Mutex::new(Vec::new()),
    });
    let server = ReconServer::bind("127.0.0.1:0", Arc::clone(&factory))
        .map_err(|e| format!("bind: {e}"))?
        .with_shards(SERVER_SHARDS);
    let port = server.local_addr().map_err(|e| e.to_string())?.port();
    let mut out = std::io::stdout().lock();
    writeln!(out, "READY {port}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    server
        .serve(Some(conns))
        .map_err(|e| format!("serve: {e}"))?;
    let peak_rss_mb = rsr_obs::procstat::read().rss_peak_mb();
    let obs = trace.then(|| rsr_obs::global().snapshot());

    let mut records = std::mem::take(&mut *factory.sessions.lock().map_err(|e| e.to_string())?);
    let check_cpu: Duration = records.iter().map(|r| r.check_cpu).sum();
    let cpu = process_cpu()
        .saturating_sub(cpu_at_start)
        .saturating_sub(check_cpu);
    records.sort_by_key(|r| r.id);
    for r in &records {
        writeln!(
            out,
            "S {} {:.3} {:.3} {:.3} {:.3} {} {}",
            r.id,
            us(r.open),
            us(r.wait),
            us(r.cpu),
            us(r.sos),
            r.verdict as u8,
            r.quality.map_or("-".to_string(), |q| format!("{q:.6}")),
        )
        .map_err(|e| e.to_string())?;
    }
    for open in factory
        .continuous_opens
        .lock()
        .map_err(|e| e.to_string())?
        .iter()
    {
        writeln!(out, "C {:.3}", us(*open)).map_err(|e| e.to_string())?;
    }
    writeln!(out, "M peak_rss_mb {peak_rss_mb}").map_err(|e| e.to_string())?;
    writeln!(out, "M cpu_us {}", us(cpu)).map_err(|e| e.to_string())?;
    if let Some(obs) = obs {
        for (key, value) in obs.entries() {
            writeln!(out, "M obs.{key} {value}").map_err(|e| e.to_string())?;
        }
    }
    writeln!(out, "END").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}
