//! Round-plan validation on a live `ConnectedDriver`: every argument
//! error `batch`/`load` can return is rejected with its exact message
//! before anything reaches the wire, and a rejected round leaves the
//! pool exactly as it was — no session id spent, no continuous standing
//! granted, every connection still able to run the next valid round.

use rsr_core::channel::Frame;
use rsr_core::continuous::{shared, ContinuousConfig, ContinuousParty, SharedParty};
use rsr_core::session::Session;
use rsr_net::{
    ConnectedDriver, Driver, DriverReport, NetError, NetSession, ReconServer, SessionFactory,
    SessionPlan, SessionSpec,
};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Alice of a one-way session: one frame, then done.
struct OneFrame {
    sent: bool,
}

impl Session for OneFrame {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        if self.sent {
            return Ok(None);
        }
        self.sent = true;
        Ok(Some(Frame {
            label: "m".into(),
            payload: vec![0xAA],
            bit_len: 8,
        }))
    }

    fn on_frame(&mut self, _: Frame) -> Result<(), String> {
        Err("unexpected frame".into())
    }

    fn is_done(&self) -> bool {
        self.sent
    }
}

/// Bob of a one-way session: done once the frame arrives.
struct Sink {
    got: bool,
}

impl Session for Sink {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        Ok(None)
    }

    fn on_frame(&mut self, _: Frame) -> Result<(), String> {
        self.got = true;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.got
    }
}

/// Both endpoints derive the same resident party from the spec.
fn party_of(spec: &SessionSpec) -> SharedParty {
    let cfg = ContinuousConfig::for_churn(spec.k as usize, spec.seed);
    shared(ContinuousParty::new(cfg, 0..u64::from(spec.n)))
}

struct Factory;

impl SessionFactory for Factory {
    fn open_spec(&self, _: u64, _: Option<&SessionSpec>) -> Option<Box<dyn NetSession + '_>> {
        Some(Box::new(Sink { got: false }))
    }

    fn open_continuous(&self, _: u64, spec: &SessionSpec) -> Option<SharedParty> {
        Some(party_of(spec))
    }
}

fn spec() -> SessionSpec {
    SessionSpec {
        protocol: 9,
        n: 16,
        k: 4,
        dim: 0,
        seed: 7,
        continuous: false,
    }
}

fn plan(id: u64) -> SessionPlan<'static> {
    SessionPlan::new(id, Box::new(OneFrame { sent: false }))
}

/// A one-frame plan with the continuous fields set by hand.
fn raw_plan(id: u64, spec: Option<SessionSpec>, round: Option<u32>) -> SessionPlan<'static> {
    SessionPlan {
        id,
        spec,
        session: Box::new(OneFrame { sent: false }),
        round,
    }
}

/// A server for exactly two connections, plus a driver connected to it.
fn connect_pair() -> (ConnectedDriver, JoinHandle<io::Result<()>>) {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(Factory)).unwrap();
    let addr: SocketAddr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve(Some(2)));
    let driver = Driver::new(addr)
        .conns(2)
        .idle_timeout(Some(Duration::from_secs(30)))
        .connect()
        .unwrap();
    (driver, handle)
}

fn assert_rejected(got: Result<DriverReport, NetError>, want: &str) {
    match got {
        Err(NetError::Malformed(msg)) => assert_eq!(msg, want),
        other => panic!("expected Malformed({want:?}), got {other:?}"),
    }
}

fn assert_clean(report: &DriverReport, sessions: usize) {
    assert!(
        report.transport_error().is_none(),
        "{:?}",
        report.transport_error()
    );
    assert_eq!(report.completed(), sessions, "{report:?}");
    assert_eq!(report.failed(), 0, "{report:?}");
}

enum Round {
    Batch(Vec<Vec<SessionPlan<'static>>>),
    Load(Vec<(Vec<SessionPlan<'static>>, Vec<Duration>)>),
}

#[test]
fn every_plan_argument_error_is_rejected_and_the_pool_stays_usable() {
    let (mut driver, server) = connect_pair();
    // Spends id 1 on connection 0 for the reuse case below.
    assert_clean(
        &driver.batch(vec![vec![plan(1)], vec![plan(2)]]).unwrap(),
        2,
    );

    let ms = Duration::from_millis;
    let cases: Vec<(&str, Round)> = vec![
        (
            "one session plan per connection",
            Round::Batch(vec![vec![plan(10)]]),
        ),
        (
            "arrival schedule length must match session count",
            Round::Load(vec![(vec![plan(11)], vec![]), (vec![], vec![])]),
        ),
        (
            "arrival schedule must be non-decreasing",
            Round::Load(vec![
                (vec![plan(12), plan(13)], vec![ms(5), ms(1)]),
                (vec![], vec![]),
            ]),
        ),
        (
            "duplicate session id in batch",
            Round::Batch(vec![vec![plan(14), plan(14)], vec![]]),
        ),
        (
            "session id reused on this connection",
            Round::Batch(vec![vec![plan(1)], vec![]]),
        ),
        (
            "continuous round for a session this connection never opened",
            Round::Batch(vec![vec![raw_plan(15, None, Some(2))], vec![]]),
        ),
        (
            "continuous round 0 needs a spec marked continuous",
            Round::Batch(vec![vec![raw_plan(16, Some(spec()), Some(0))], vec![]]),
        ),
        (
            "a continuous spec needs a round index on its plan",
            Round::Batch(vec![
                vec![raw_plan(17, Some(spec().into_continuous()), None)],
                vec![],
            ]),
        ),
    ];
    for (i, (want, round)) in cases.into_iter().enumerate() {
        let got = match round {
            Round::Batch(batches) => driver.batch(batches),
            Round::Load(loads) => driver.load(loads),
        };
        assert_rejected(got, want);
        // The same connections still carry a valid round.
        let id = 100 + 2 * i as u64;
        let report = driver
            .batch(vec![vec![plan(id)], vec![plan(id + 1)]])
            .unwrap_or_else(|e| panic!("valid batch after {want:?} rejected: {e:?}"));
        assert_clean(&report, 2);
        assert_eq!(driver.live_conns(), 2);
    }
    driver.finish();
    server.join().unwrap().unwrap();
}

#[test]
fn a_rejected_round_spends_no_session_ids() {
    let (mut driver, server) = connect_pair();
    // Connection 0's plan is valid; connection 1's duplicate sinks the
    // whole round before anything is sent.
    assert_rejected(
        driver.batch(vec![vec![plan(1)], vec![plan(2), plan(2)]]),
        "duplicate session id in batch",
    );
    // So id 1 is still fresh on connection 0.
    let report = driver
        .batch(vec![vec![plan(1)], vec![]])
        .expect("id 1 never reached the wire");
    assert_clean(&report, 1);
    driver.finish();
    server.join().unwrap().unwrap();
}

#[test]
fn a_rejected_round_opens_no_continuous_session() {
    let (mut driver, server) = connect_pair();
    let party = party_of(&spec());
    let open = || SessionPlan::open_continuous(5, spec(), &party).expect("fresh party");
    assert_rejected(
        driver.batch(vec![vec![open()], vec![plan(2), plan(2)]]),
        "duplicate session id in batch",
    );
    // The rejected open left no continuous standing behind: there is
    // nothing to close...
    match driver.close_session(0, 5) {
        Err(NetError::Malformed(msg)) => assert_eq!(
            msg,
            "id is not open as a continuous session on this connection"
        ),
        other => panic!("closed a session the server never saw: {other:?}"),
    }
    // ...and the id opens for real on retry.
    let report = driver
        .batch(vec![vec![open()], vec![]])
        .expect("id 5 never reached the wire");
    assert_clean(&report, 1);
    driver.close_session(0, 5).expect("now open");
    driver.finish();
    server.join().unwrap().unwrap();
}
