//! The three traffic shapes. Each run sets up (server process, connected
//! generator, inputs) several times, keeps the last set-up, drives the
//! workload's ops through the real TCP server, and checks every output.
//!
//! The amount of work is fixed by `--seconds` and a nominal rate per
//! workload, not by a deadline, so a seed always yields the same ops and
//! the deterministic outputs (wire bits, failures, EMD ratios) repeat.

use crate::client::{ClientSession, Live, OpProbe, ServerReport};
use crate::layers;
use crate::server::Verdict;
use crate::stats::{median, process_cpu, quantile, ratio, thread_cpu, us};
use rsr_bench::experiments::net::{continuous_party_of, continuous_spec, spec_of, Instance};
use rsr_bench::loadgen::{self, Arrival};
use rsr_core::continuous::{shared, SharedParty};
use rsr_iblt::bits::{BitReader, BitWriter};
use rsr_iblt::iblt::Iblt;
use rsr_net::{RunSession, SessionPlan, SessionSpec};
use rsr_workloads::churn::{sample_churn, ChurnSpec, RoundChurn};
use rsr_workloads::trace::{sample_trace_with, TraceEntry, TraceMix};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::MutexGuard;
use std::time::{Duration, Instant};

/// Latency limit of an interactive session, scheduled arrival → settle.
const SLO: Duration = Duration::from_millis(50);

/// `interactive`: Poisson arrivals per second.
const INTERACTIVE_RATE: f64 = 100.0;
/// `bulk`: nominal sessions per second, which sizes the run.
const BULK_RATE: f64 = 20.0;
/// `bulk`: sessions per closed-loop batch, split over the connections.
const BULK_BATCH: usize = 16;
const BULK_CONNS: usize = 2;
/// `bulk`: instance-size multiplier over the production-day mix.
const BULK_SCALE: f64 = 4.0;
/// `continuous`: resident sessions, their initial set size, the churn
/// per round, and nominal lockstep rounds per second.
const CONT_SESSIONS: usize = 32;
const CONT_KEYS: usize = 4096;
const CONT_CHURN: usize = 32;
const CONT_ROUNDS_PER_SEC: f64 = 100.0;
/// Seed of the one-shot traces' protocol-and-size sequence.
const TRACE_SHAPE_SEED: u64 = 0x7ace_5a9e;
/// Empty batches timed for `net.driver.empty_batch_us`.
const EMPTY_BATCHES: usize = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Bulk,
    Continuous,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "interactive" => Some(Workload::Interactive),
            "bulk" => Some(Workload::Bulk),
            "continuous" => Some(Workload::Continuous),
            _ => None,
        }
    }
}

/// What one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup: Vec<Duration>,
    pub attempted: usize,
    /// Ops that failed, output-check violations included.
    pub failed: usize,
    /// Ops that settled with a wrong output.
    pub violations: usize,
    /// Gap sessions whose output missed the Gap Guarantee (failed ops).
    pub guarantee_misses: usize,
    /// Generator CPU time spent driving the ops.
    pub client_cpu: Duration,
    pub settled_ok: usize,
    /// The measured window the throughput divides by.
    pub window: Duration,
    /// Per settled op, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The workload's latency limit, if it has one.
    slo: Option<Duration>,
    slo_met: usize,
    pub payload_bits: u64,
    pub wire_bytes: u64,
    pub emd_ratios: Vec<f64>,
    pub server: ServerReport,
    /// A digest of the run's drawn inputs: the one-shot specs and arrival
    /// times, or the continuous churn keys. The self-test compares it
    /// across seeds.
    pub inputs_digest: u64,
    /// Layer values measured by this pass (tracing on only).
    pub layers: Vec<(&'static str, f64)>,
}

impl Pass {
    fn settle(&mut self, ok: bool, latency: Option<Duration>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            return;
        }
        self.settled_ok += 1;
        if let Some(latency) = latency {
            self.latencies_ms.push(latency.as_secs_f64() * 1e3);
            if self.slo.is_some_and(|limit| latency <= limit) {
                self.slo_met += 1;
            }
        }
    }

    /// The share of attempted ops that settled correctly within the
    /// latency limit; 0 for a workload without one.
    pub fn slo_ratio(&self) -> f64 {
        match self.slo {
            Some(_) => ratio(self.slo_met as f64, self.attempted as f64),
            None => 0.0,
        }
    }
}

/// Sets up `reps` times — server process, connections, inputs — and
/// keeps the last set-up; every earlier one is torn down again.
fn set_up<T>(
    reps: usize,
    conns: usize,
    trace: bool,
    mut inputs: impl FnMut() -> T,
) -> Result<(Live, T, Vec<Duration>), String> {
    let mut times = Vec::with_capacity(reps);
    loop {
        let started = Instant::now();
        let live = Live::start(conns, trace)?;
        let prepared = inputs();
        times.push(started.elapsed());
        if times.len() >= reps {
            return Ok((live, prepared, times));
        }
        live.finish()?;
    }
}

/// Times `ConnectedDriver::batch` with nothing to run: the generator's
/// per-call runtime set-up.
fn empty_batches(live: &mut Live, conns: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(EMPTY_BATCHES);
    for _ in 0..EMPTY_BATCHES {
        let started = Instant::now();
        live.driver
            .batch((0..conns).map(|_| Vec::new()).collect())
            .map_err(|e| format!("empty batch: {e}"))?;
        times.push(us(started.elapsed()));
    }
    Ok(median(&times))
}

/// Folds one one-shot session's client and server records into the pass.
#[derive(Default)]
struct OneShotLayers {
    build: Vec<f64>,
    alice_cpu: Vec<f64>,
    bob_cpu: Vec<f64>,
    open: Vec<f64>,
    wait_client: Vec<f64>,
    wait_server: Vec<f64>,
    residual: Vec<f64>,
    sos: Vec<f64>,
}

impl OneShotLayers {
    /// `called_from` is the offset the session's first call is measured
    /// against: its injection for open-loop runs, zero for a batch.
    fn record(
        &mut self,
        probe: &OpProbe,
        server: &crate::client::ServerSession,
        gap: bool,
        called_from: Duration,
        latency: Option<Duration>,
    ) {
        let wait_client = probe
            .first_call()
            .map_or(0.0, |t| us(t.saturating_sub(called_from)));
        self.build.push(probe.build_us());
        self.alice_cpu.push(probe.cpu_us());
        self.bob_cpu.push(server.cpu_us);
        self.open.push(server.open_us);
        self.wait_client.push(wait_client);
        self.wait_server.push(server.wait_us);
        if gap {
            self.sos.push(probe.sos_us() + server.sos_us);
        }
        if let Some(latency) = latency {
            let parts = probe.build_us()
                + probe.cpu_us()
                + server.cpu_us
                + server.open_us
                + wait_client
                + server.wait_us;
            self.residual.push(us(latency) - parts);
        }
    }

    fn push_into(&self, layers: &mut Vec<(&'static str, f64)>) {
        layers.extend([
            ("core.alice_build_us", median(&self.build)),
            ("core.alice_build_us_p99", quantile(&self.build, 0.99)),
            ("core.alice_cpu_us", median(&self.alice_cpu)),
            ("core.bob_cpu_us", median(&self.bob_cpu)),
            ("net.open_spec_us", median(&self.open)),
            ("net.open_spec_us_p99", quantile(&self.open, 0.99)),
            ("core.exec_wait_client_us", median(&self.wait_client)),
            ("core.exec_wait_server_us", median(&self.wait_server)),
            ("net.residual_us", median(&self.residual)),
            ("setsofsets.round_cpu_us", median(&self.sos)),
        ]);
    }
}

/// Settles one one-shot session against the server's record.
fn settle_one_shot(pass: &mut Pass, session: &RunSession, latency: Option<Duration>) {
    let server = pass.server.sessions.get(&session.id).cloned();
    let verdict = server.as_ref().map_or(Verdict::Unfinished, |s| s.verdict);
    if session.is_ok() {
        match verdict {
            Verdict::GuaranteeMissed => {
                eprintln!("perfbench: session {} missed the Gap guarantee", session.id);
                pass.guarantee_misses += 1;
            }
            Verdict::Wrong => {
                eprintln!(
                    "perfbench: session {} settled with a wrong output",
                    session.id
                );
                pass.violations += 1;
            }
            Verdict::Unfinished | Verdict::Passed => {}
        }
    } else {
        eprintln!(
            "perfbench: session {} failed: {}",
            session.id,
            session.error.as_deref().unwrap_or("unknown error")
        );
    }
    if let Some(ratio) = server.as_ref().and_then(|s| s.emd_ratio) {
        if session.is_ok() {
            pass.emd_ratios.push(ratio);
        }
    }
    pass.payload_bits += session.transcript.total_bits();
    pass.settle(session.is_ok() && verdict == Verdict::Passed, latency);
}

/// The one-shot trace: `count` sessions of `mix`. The sequence of
/// protocols and sizes is the mix's sample under a fixed seed, and the
/// run seed draws each instance's points and public coins, so that a
/// seed changes the data but not the amount of work — otherwise the
/// heavy-tailed session cost would make throughput swing with the seed.
fn one_shot_trace(count: usize, seed: u64, mix: &TraceMix) -> Vec<TraceEntry> {
    let mut entries = sample_trace_with(count, TRACE_SHAPE_SEED, mix);
    for (i, entry) in entries.iter_mut().enumerate() {
        entry.seed = mix64(seed ^ mix64(i as u64));
    }
    entries
}

/// SplitMix64's finalizer: spreads a counter over 64 bits.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds `values` into `digest`, order-sensitively.
fn digest(digest: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(digest, |d, v| mix64(d ^ v))
}

/// A digest of one-shot specs and, for an open loop, their arrivals.
fn specs_digest(specs: &[SessionSpec], schedule: &[Duration]) -> u64 {
    let specs = specs.iter().flat_map(|s| {
        [
            u64::from(s.protocol),
            u64::from(s.n),
            u64::from(s.k),
            u64::from(s.dim),
            s.seed,
        ]
    });
    let arrivals = schedule.iter().map(|at| at.as_nanos() as u64);
    digest(digest(0, specs), arrivals)
}

/// Poisson arrivals conditioned on exactly `count` of them in the
/// window `count / rate`: the loadgen schedule with one arrival more,
/// rescaled so that the extra arrival lands on the window's end. The
/// offered rate is then the same for every seed, so the seed varies the
/// arrival pattern and the traffic but not the offered load.
fn conditioned_schedule(count: usize, seed: u64) -> Vec<Duration> {
    let mut schedule = loadgen::schedule(count + 1, INTERACTIVE_RATE, Arrival::Exponential, seed);
    let end = schedule.pop().expect("count + 1 arrivals");
    let scale = count as f64 / INTERACTIVE_RATE / end.as_secs_f64();
    schedule.into_iter().map(|at| at.mul_f64(scale)).collect()
}

/// `interactive`: open loop, Poisson arrivals at 100/s of the
/// production-day mix at base size, one connection.
pub fn interactive(seed: u64, seconds: u64, trace: bool, reps: usize) -> Result<Pass, String> {
    let count = (INTERACTIVE_RATE * seconds as f64).round() as usize;
    let mix = TraceMix::production_day();
    let (mut live, (instances, specs, schedule), setup) = set_up(reps, 1, trace, || {
        let entries = one_shot_trace(count, seed, &mix);
        let instances: Vec<Instance> = entries.iter().map(Instance::build).collect();
        let specs: Vec<SessionSpec> = entries.iter().map(spec_of).collect();
        (instances, specs, conditioned_schedule(count, seed))
    })?;
    let inputs_digest = specs_digest(&specs, &schedule);
    let probes: Vec<OpProbe> = (0..count).map(|_| OpProbe::default()).collect();
    // First calls are timed from here; the driver's own clock, which
    // `injected` counts from, starts a few microseconds later.
    let origin = Instant::now();
    let plans: Vec<SessionPlan<'_>> = instances
        .iter()
        .zip(&specs)
        .zip(&probes)
        .enumerate()
        .map(|(i, ((instance, spec), probe))| {
            SessionPlan::new(
                i as u64,
                Box::new(ClientSession::lazy(instance, probe, origin, trace)),
            )
            .with_spec(*spec)
        })
        .collect();
    let cpu_at_start = process_cpu();
    let report = live
        .driver
        .load(vec![(plans, schedule)])
        .map_err(|e| format!("load run: {e}"))?;
    let client_cpu = process_cpu().saturating_sub(cpu_at_start);
    if let Some(e) = report.transport_error() {
        return Err(format!("transport failed: {e}"));
    }
    let empty_batch = if trace {
        Some(empty_batches(&mut live, 1)?)
    } else {
        None
    };
    let mut pass = Pass {
        setup,
        client_cpu,
        slo: Some(SLO),
        inputs_digest,
        server: live.finish()?,
        ..Pass::default()
    };
    pass.wire_bytes = report
        .conns
        .iter()
        .map(|c| c.wire_bytes_in + c.wire_bytes_out)
        .sum();
    let mut layers = OneShotLayers::default();
    let mut lag = Vec::new();
    for session in report.sessions() {
        let latency = session.latency();
        settle_one_shot(&mut pass, session, latency);
        if trace {
            let idx = session.id as usize;
            if let (Some(server), Some(injected)) =
                (pass.server.sessions.get(&session.id), session.injected)
            {
                let gap = matches!(instances[idx], Instance::Gap { .. });
                layers.record(&probes[idx], server, gap, injected, latency);
            }
            if let (Some(injected), Some(scheduled)) = (session.injected, session.scheduled) {
                lag.push(injected.saturating_sub(scheduled).as_secs_f64() * 1e3);
            }
        }
    }
    pass.window = report.elapsed();
    if trace {
        layers.push_into(&mut pass.layers);
        pass.layers.extend([
            ("loadgen.inject_lag_p99_ms", quantile(&lag, 0.99)),
            ("loadgen.inject_lag_max_ms", quantile(&lag, 1.0)),
            ("net.driver.empty_batch_us", empty_batch.unwrap_or(0.0)),
        ]);
        pass.layers.extend(layers::one_shot(&instances));
    }
    Ok(pass)
}

/// `bulk`: closed loop, the production-day mix at four times the size,
/// batches of 16 sessions split over two connections.
pub fn bulk(seed: u64, seconds: u64, trace: bool, reps: usize) -> Result<Pass, String> {
    let batches = ((BULK_RATE * seconds as f64) / BULK_BATCH as f64)
        .round()
        .max(1.0) as usize;
    let count = batches * BULK_BATCH;
    let mix = TraceMix::production_day().scaled(BULK_SCALE);
    let (mut live, (instances, specs), setup) = set_up(reps, BULK_CONNS, trace, || {
        let entries = one_shot_trace(count, seed, &mix);
        let instances: Vec<Instance> = entries.iter().map(Instance::build).collect();
        let specs: Vec<SessionSpec> = entries.iter().map(spec_of).collect();
        (instances, specs)
    })?;
    let probes: Vec<OpProbe> = (0..count).map(|_| OpProbe::default()).collect();
    let mut reports = Vec::with_capacity(batches);
    let cpu_at_start = process_cpu();
    for b in 0..batches {
        let origin = Instant::now();
        let mut plans: Vec<Vec<SessionPlan<'_>>> = (0..BULK_CONNS).map(|_| Vec::new()).collect();
        for i in b * BULK_BATCH..(b + 1) * BULK_BATCH {
            plans[i % BULK_CONNS].push(
                SessionPlan::new(
                    i as u64,
                    Box::new(ClientSession::lazy(
                        &instances[i],
                        &probes[i],
                        origin,
                        trace,
                    )),
                )
                .with_spec(specs[i]),
            );
        }
        let report = live
            .driver
            .batch(plans)
            .map_err(|e| format!("bulk batch {b}: {e}"))?;
        let elapsed = origin.elapsed();
        if let Some(e) = report.transport_error() {
            return Err(format!("transport failed: {e}"));
        }
        reports.push((report, elapsed));
    }
    let client_cpu = process_cpu().saturating_sub(cpu_at_start);
    let empty_batch = if trace {
        Some(empty_batches(&mut live, BULK_CONNS)?)
    } else {
        None
    };
    let mut pass = Pass {
        setup,
        client_cpu,
        server: live.finish()?,
        inputs_digest: specs_digest(&specs, &[]),
        ..Pass::default()
    };
    let mut layers = OneShotLayers::default();
    for (report, elapsed) in &reports {
        pass.wire_bytes += report
            .conns
            .iter()
            .map(|c| c.wire_bytes_in + c.wire_bytes_out)
            .sum::<u64>();
        for session in report.sessions() {
            // A batch returns as a whole: each of its sessions waits for
            // the batch.
            settle_one_shot(&mut pass, session, Some(*elapsed));
            if trace {
                let idx = session.id as usize;
                if let Some(server) = pass.server.sessions.get(&session.id) {
                    let gap = matches!(instances[idx], Instance::Gap { .. });
                    layers.record(&probes[idx], server, gap, Duration::ZERO, None);
                }
            }
        }
        pass.window += *elapsed;
    }
    if trace {
        layers.push_into(&mut pass.layers);
        pass.layers
            .push(("net.driver.empty_batch_us", empty_batch.unwrap_or(0.0)));
        pass.layers.extend(layers::one_shot(&instances));
    }
    Ok(pass)
}

/// One resident continuous session of the `continuous` workload.
struct Member {
    id: u64,
    wire: SessionSpec,
    party: SharedParty,
    /// The union the client party must hold after each settle.
    expected: BTreeSet<u64>,
    churn: Vec<RoundChurn>,
    next_round: usize,
    opened: bool,
}

fn churn_spec() -> ChurnSpec {
    ChurnSpec {
        skew: 1.0,
        ..ChurnSpec::steady(CONT_CHURN)
    }
}

impl Member {
    /// A fresh session for the run's last `rounds` rounds: its spec
    /// seed (hence its base set) and churn trace derive from the run seed
    /// and the wire id.
    fn new(id: u64, run_seed: u64, rounds: usize) -> Member {
        let seed = mix64(run_seed ^ mix64(id));
        let spec = churn_spec();
        let wire = continuous_spec(CONT_KEYS, spec.peak_round_ops(), seed);
        let party = continuous_party_of(&wire);
        Member {
            id,
            wire,
            expected: party.set().clone(),
            party: shared(party),
            churn: sample_churn(&spec, rounds, seed),
            next_round: 0,
            opened: false,
        }
    }
}

fn lock(party: &SharedParty) -> MutexGuard<'_, rsr_core::continuous::ContinuousParty> {
    party.lock().expect("continuous party poisoned")
}

/// Per-layer samples of the continuous workload, tracing on only.
#[derive(Default)]
struct ContinuousLayers {
    churn_apply: Vec<f64>,
    delta: Vec<f64>,
    decode: Vec<f64>,
    decode_attempts: usize,
    decode_failures: usize,
    codec_bytes: u64,
    write: Duration,
    read: Duration,
    build: Vec<f64>,
    alice_cpu: Vec<f64>,
    wait_client: Vec<f64>,
}

impl ContinuousLayers {
    /// Direct calls on a member's party after its churn landed: the
    /// delta a round would ship, its codec, and its decode (with skew 1.0
    /// the server's own delta is empty, so this is the table Bob peels).
    fn probe_party(&mut self, member: &Member) {
        let party = lock(&member.party);
        let started = Instant::now();
        let delta: Iblt = party.delta();
        self.delta.push(us(started.elapsed()));
        let cfg = *party.config();
        drop(party);

        let started = Instant::now();
        let mut w = BitWriter::new();
        delta.write_to(&mut w, cfg.n_bound);
        let bytes = w.finish();
        self.write += started.elapsed();
        let started = Instant::now();
        let read = Iblt::read_from(
            &mut BitReader::new(&bytes),
            cfg.cells,
            cfg.q,
            cfg.seed,
            cfg.n_bound,
        );
        self.read += started.elapsed();
        black_box(read);
        self.codec_bytes += bytes.len() as u64;

        let started = Instant::now();
        let decoded = delta.decode_with(cfg.decode_mode);
        self.decode.push(us(started.elapsed()));
        self.decode_attempts += 1;
        if !decoded.complete {
            self.decode_failures += 1;
        }
    }

    fn push_into(&self, layers: &mut Vec<(&'static str, f64)>) {
        let mb_per_s = |d: Duration| ratio(self.codec_bytes as f64 / 1e6, d.as_secs_f64());
        layers.extend([
            ("core.alice_build_us", median(&self.build)),
            ("core.alice_build_us_p99", quantile(&self.build, 0.99)),
            ("core.alice_cpu_us", median(&self.alice_cpu)),
            ("core.exec_wait_client_us", median(&self.wait_client)),
            ("core.continuous.churn_apply_us", median(&self.churn_apply)),
            ("core.continuous.delta_us", median(&self.delta)),
            ("iblt.delta_decode_us", median(&self.decode)),
            (
                "iblt.delta_decode_fail_ratio",
                ratio(self.decode_failures as f64, self.decode_attempts as f64),
            ),
            ("iblt.codec_write_mb_per_s", mb_per_s(self.write)),
            ("iblt.codec_read_mb_per_s", mb_per_s(self.read)),
        ]);
    }
}

/// `continuous`: 32 resident sessions on one connection, each starting
/// from 4096 keys, all churn on the client, rounds in lockstep.
pub fn continuous(seed: u64, seconds: u64, trace: bool, reps: usize) -> Result<Pass, String> {
    let rounds = (CONT_ROUNDS_PER_SEC * seconds as f64).round().max(1.0) as usize;
    let (mut live, mut members, setup) = set_up(reps, 1, trace, || {
        (0..CONT_SESSIONS as u64)
            .map(|id| Member::new(id, seed, rounds))
            .collect::<Vec<Member>>()
    })?;
    let mut next_id = CONT_SESSIONS as u64;
    let mut pass = Pass {
        setup,
        ..Pass::default()
    };
    let mut layers = ContinuousLayers::default();
    let mut ok_in_round = Vec::with_capacity(CONT_SESSIONS);
    // The generator's CPU for the ops is the process's over the loop less
    // what this thread spends outside the timed parts of each round.
    let cpu_at_start = process_cpu();
    let mut untimed = Duration::ZERO;
    for r in 0..rounds {
        let mut untimed_from = thread_cpu();
        // The round's churn, drawn against each expected set before the
        // clock starts: drawing deletes walks the whole set.
        let churn: Vec<(Vec<u64>, Vec<u64>)> = members
            .iter_mut()
            .map(|m| {
                m.next_round += 1;
                m.churn[m.next_round - 1].alice_keys(&m.expected)
            })
            .collect();
        for (inserts, deletes) in &churn {
            pass.inputs_digest = digest(pass.inputs_digest, inserts.iter().chain(deletes).copied());
        }
        untimed += thread_cpu().saturating_sub(untimed_from);
        let started = Instant::now();
        for (m, (inserts, deletes)) in members.iter().zip(&churn) {
            let applied = Instant::now();
            let mut party = lock(&m.party);
            for &key in inserts {
                party.insert(key).map_err(|e| format!("insert: {e}"))?;
            }
            for &key in deletes {
                party.remove(key).map_err(|e| format!("remove: {e}"))?;
            }
            drop(party);
            if trace {
                layers.churn_apply.push(us(applied.elapsed()));
            }
        }
        let mut round_time = started.elapsed();
        untimed_from = thread_cpu();
        // The server never deletes, so a settle resurrects client
        // deletes: the expected union only grows.
        for (m, (inserts, _)) in members.iter_mut().zip(churn) {
            m.expected.extend(inserts);
        }

        if trace {
            // Direct calls, outside the timed round and unrecorded by
            // the registry (they are not the program's own decodes).
            rsr_obs::set_enabled(false);
            // A round-0 delta is the whole set; only an opened session's
            // delta is the table the server will peel.
            for m in members.iter().filter(|m| m.opened) {
                layers.probe_party(m);
            }
            rsr_obs::set_enabled(true);
        }

        untimed += thread_cpu().saturating_sub(untimed_from);
        let started = Instant::now();
        let probes: Vec<OpProbe> = (0..members.len()).map(|_| OpProbe::default()).collect();
        let mut rounds_plans = Vec::with_capacity(members.len());
        for (m, probe) in members.iter().zip(&probes) {
            let built = Instant::now();
            let plan = if m.opened {
                SessionPlan::next_round(m.id, &m.party)
            } else {
                SessionPlan::open_continuous(m.id, m.wire, &m.party)
            }
            .map_err(|e| format!("round {r} plan: {e}"))?;
            if trace {
                probe.add_build(built.elapsed());
            }
            rounds_plans.push(plan);
        }
        let origin = Instant::now();
        let plans: Vec<SessionPlan<'_>> = rounds_plans
            .into_iter()
            .zip(&probes)
            .map(|(plan, probe)| SessionPlan {
                id: plan.id,
                spec: plan.spec,
                round: plan.round,
                session: Box::new(ClientSession::ready(plan.session, probe, origin, trace)),
            })
            .collect();
        let report = live
            .driver
            .batch(vec![plans])
            .map_err(|e| format!("round {r}: {e}"))?;
        round_time += started.elapsed();
        untimed_from = thread_cpu();
        if let Some(e) = report.transport_error() {
            return Err(format!("round {r}: transport failed: {e}"));
        }
        pass.window += round_time;
        pass.wire_bytes += report
            .conns
            .iter()
            .map(|c| c.wire_bytes_in + c.wire_bytes_out)
            .sum::<u64>();

        // Checks, outside the timed round.
        ok_in_round.clear();
        for (j, session) in report.sessions().enumerate() {
            pass.payload_bits += session.transcript.total_bits();
            let m = &mut members[j];
            let settled = session.is_ok();
            let correct = settled && *lock(&m.party).set() == m.expected;
            if settled && !correct {
                pass.violations += 1;
            }
            pass.settle(correct, Some(round_time));
            ok_in_round.push(correct);
            if trace {
                layers.build.push(probes[j].build_us());
                layers.alice_cpu.push(probes[j].cpu_us());
                layers
                    .wait_client
                    .push(probes[j].first_call().map_or(0.0, us));
            }
        }
        // A failed round leaves the server without the party, so every
        // later round on that id would fail too: retire the session and
        // open a fresh one in its place next round.
        for (j, ok) in ok_in_round.iter().enumerate() {
            if *ok {
                members[j].opened = true;
                continue;
            }
            if members[j].opened {
                // The server may already have dropped the id; either way
                // it is gone afterwards.
                let _ = live.driver.close_session(0, members[j].id);
            }
            members[j] = Member::new(next_id, seed, rounds - r);
            next_id += 1;
        }
        untimed += thread_cpu().saturating_sub(untimed_from);
    }
    pass.client_cpu = process_cpu()
        .saturating_sub(cpu_at_start)
        .saturating_sub(untimed);
    for m in &members {
        if m.opened {
            live.driver
                .close_session(0, m.id)
                .map_err(|e| format!("closing session {}: {e}", m.id))?;
        }
    }
    let empty_batch = if trace {
        Some(empty_batches(&mut live, 1)?)
    } else {
        None
    };
    pass.server = live.finish()?;
    if trace {
        layers.push_into(&mut pass.layers);
        pass.layers.extend([
            ("net.open_spec_us", median(&pass.server.continuous_open_us)),
            (
                "net.open_spec_us_p99",
                quantile(&pass.server.continuous_open_us, 0.99),
            ),
            ("net.driver.empty_batch_us", empty_batch.unwrap_or(0.0)),
        ]);
    }
    Ok(pass)
}
