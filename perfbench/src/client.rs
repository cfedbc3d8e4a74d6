//! The client side of a run: the server child process, the connected
//! generator, and the Alice wrapper that builds one-shot sessions inside
//! the measured window and times them from outside.

use crate::server::{Verdict, SOS_FRAMES};
use rsr_bench::experiments::net::Instance;
use rsr_core::channel::Frame;
use rsr_net::{ConnectedDriver, Driver, NetSession};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Lines};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Executor worker shards in the generator: the reactor runs on the
/// calling thread, so the generator uses two threads in all.
pub const CLIENT_SHARDS: usize = 1;

/// How long either endpoint tolerates a silent peer with work in flight.
const IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// One one-shot session as the server saw it.
#[derive(Clone, Debug)]
pub struct ServerSession {
    pub open_us: f64,
    pub wait_us: f64,
    pub cpu_us: f64,
    pub sos_us: f64,
    pub verdict: Verdict,
    /// `EMD(S_A, S'_B) / max(EMD_k(S_A, S_B), 1)` for EMD-model sessions.
    pub emd_ratio: Option<f64>,
}

/// Everything the server process reported after the run.
#[derive(Debug, Default)]
pub struct ServerReport {
    pub sessions: HashMap<u64, ServerSession>,
    pub continuous_open_us: Vec<f64>,
    pub values: BTreeMap<String, f64>,
}

impl ServerReport {
    pub fn value(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }
}

/// The server child process. Dropping it without [`ServerProc::report`]
/// kills and reaps it.
pub struct ServerProc {
    child: Child,
    lines: Lines<BufReader<ChildStdout>>,
    pub port: u16,
}

impl ServerProc {
    /// Starts `perfbench serve` and waits until it listens.
    pub fn spawn(conns: usize, trace: bool) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--conns", &conns.to_string()]);
        // One glibc malloc arena with fixed thresholds: a large buffer is
        // always mapped on its own and unmapped when freed, and a freed
        // heap top is trimmed. The server's peak RSS then follows the
        // memory it holds, not which thread's arena grew or the mmap
        // threshold glibc adapted to earlier frees.
        cmd.env("MALLOC_ARENA_MAX", "1");
        cmd.env("MALLOC_MMAP_THRESHOLD_", "131072");
        cmd.env("MALLOC_TRIM_THRESHOLD_", "131072");
        if trace {
            cmd.arg("--trace");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut proc = ServerProc {
            child,
            lines: BufReader::new(stdout).lines(),
            port: 0,
        };
        let first = proc.next_line()?;
        proc.port = first
            .strip_prefix("READY ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("server said {first:?} instead of READY"))?;
        Ok(proc)
    }

    fn next_line(&mut self) -> Result<String, String> {
        match self.lines.next() {
            Some(Ok(line)) => Ok(line),
            Some(Err(e)) => Err(format!("reading the server: {e}")),
            None => Err("server exited early".into()),
        }
    }

    /// Reads the server's report (it prints one once every connection
    /// has closed) and reaps the process.
    pub fn report(mut self) -> Result<ServerReport, String> {
        let mut report = ServerReport::default();
        loop {
            let line = self.next_line()?;
            let fields: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| -> Result<f64, String> {
                fields
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad server line {line:?}"))
            };
            match fields.first().copied() {
                Some("END") => break,
                Some("S") => {
                    report.sessions.insert(
                        num(1)? as u64,
                        ServerSession {
                            open_us: num(2)?,
                            wait_us: num(3)?,
                            cpu_us: num(4)?,
                            sos_us: num(5)?,
                            verdict: Verdict::from_code(num(6)? as u8)
                                .ok_or_else(|| format!("bad verdict in {line:?}"))?,
                            emd_ratio: num(7).ok(),
                        },
                    );
                }
                Some("C") => report.continuous_open_us.push(num(1)?),
                Some("M") => {
                    let key = fields.get(1).ok_or("bad M line")?.to_string();
                    report.values.insert(key, num(2)?);
                }
                _ => return Err(format!("unexpected server line {line:?}")),
            }
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(report)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Reaped already when `report` succeeded; otherwise make sure no
        // server outlives the benchmark. Errors mean it is already gone.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A server process plus the generator connected to it.
pub struct Live {
    pub server: ServerProc,
    pub driver: ConnectedDriver,
}

impl Live {
    pub fn start(conns: usize, trace: bool) -> Result<Live, String> {
        let server = ServerProc::spawn(conns, trace)?;
        let driver = Driver::new(("127.0.0.1", server.port))
            .conns(conns)
            .shards(CLIENT_SHARDS)
            .idle_timeout(Some(IDLE_TIMEOUT))
            .connect()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Live { server, driver })
    }

    /// Closes the connections and collects the server's report.
    pub fn finish(self) -> Result<ServerReport, String> {
        self.driver.finish();
        self.server.report()
    }
}

/// Client-side timings of one op, filled in by [`ClientSession`] on the
/// executor shard and read after the driver call has returned (which
/// joins the shard threads, so relaxed atomics suffice).
#[derive(Debug, Default)]
pub struct OpProbe {
    /// Nanoseconds from the probe's origin to the first call, plus one
    /// (zero = never called).
    first_call: AtomicU64,
    build_ns: AtomicU64,
    cpu_ns: AtomicU64,
    sos_ns: AtomicU64,
}

fn add(cell: &AtomicU64, d: Duration) {
    cell.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

fn us_of(cell: &AtomicU64) -> f64 {
    cell.load(Ordering::Relaxed) as f64 / 1e3
}

impl OpProbe {
    /// Offset of the first call into the session from the origin.
    pub fn first_call(&self) -> Option<Duration> {
        match self.first_call.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns - 1)),
        }
    }

    pub fn build_us(&self) -> f64 {
        us_of(&self.build_ns)
    }

    pub fn cpu_us(&self) -> f64 {
        us_of(&self.cpu_ns)
    }

    pub fn sos_us(&self) -> f64 {
        us_of(&self.sos_ns)
    }

    /// Records time spent building the session outside the executor
    /// (a continuous round's plan).
    pub fn add_build(&self, d: Duration) {
        add(&self.build_ns, d);
    }
}

/// The Alice half as the generator submits it: either built lazily from
/// a one-shot instance on the first executor call, or an already-built
/// session (a continuous round). With tracing on it times every call.
pub struct ClientSession<'s> {
    source: Option<&'s Instance>,
    alice: Option<Box<dyn NetSession + 's>>,
    probe: &'s OpProbe,
    origin: Instant,
    trace: bool,
    gap: bool,
    frames: u32,
}

impl<'s> ClientSession<'s> {
    pub fn lazy(
        instance: &'s Instance,
        probe: &'s OpProbe,
        origin: Instant,
        trace: bool,
    ) -> ClientSession<'s> {
        ClientSession {
            source: Some(instance),
            alice: None,
            probe,
            origin,
            trace,
            gap: matches!(instance, Instance::Gap { .. }),
            frames: 0,
        }
    }

    pub fn ready(
        session: Box<dyn NetSession + 's>,
        probe: &'s OpProbe,
        origin: Instant,
        trace: bool,
    ) -> ClientSession<'s> {
        ClientSession {
            source: None,
            alice: Some(session),
            probe,
            origin,
            trace,
            gap: false,
            frames: 0,
        }
    }

    /// Builds the session on first use and starts a timed call.
    fn enter(&mut self) -> Option<Instant> {
        let now = self.trace.then(Instant::now);
        if let Some(now) = now {
            let since = now.saturating_duration_since(self.origin).as_nanos() as u64;
            let _ = self.probe.first_call.compare_exchange(
                0,
                since + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        if let Some(instance) = self.source.take() {
            self.alice = Some(instance.alice_session());
            if let Some(now) = now {
                add(&self.probe.build_ns, now.elapsed());
                return Some(Instant::now());
            }
        }
        now
    }

    fn leave(&mut self, entered: Option<Instant>, moved_frame: bool) {
        let Some(entered) = entered else { return };
        let spent = entered.elapsed();
        add(&self.probe.cpu_ns, spent);
        if moved_frame {
            self.frames += 1;
            if self.gap && self.frames <= SOS_FRAMES {
                add(&self.probe.sos_ns, spent);
            }
        }
    }

    fn alice(&mut self) -> &mut (dyn NetSession + 's) {
        self.alice.as_deref_mut().expect("built by enter")
    }
}

impl NetSession for ClientSession<'_> {
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        let entered = self.enter();
        let out = self.alice().poll_send();
        self.leave(entered, matches!(out, Ok(Some(_))));
        out
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        let entered = self.enter();
        let out = self.alice().on_frame(frame);
        self.leave(entered, true);
        out
    }

    fn is_done(&self) -> bool {
        self.alice.as_ref().is_some_and(|a| a.is_done())
    }

    fn protocol(&self) -> &'static str {
        match (&self.alice, self.source) {
            (Some(alice), _) => alice.protocol(),
            (None, Some(Instance::Emd { .. })) => "emd",
            (None, Some(Instance::ScaledEmd { .. })) => "scaled_emd",
            (None, Some(Instance::Gap { .. })) => "gap",
            (None, None) => "session",
        }
    }
}
