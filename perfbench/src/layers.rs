//! Direct calls into the compute layers on a fixed sample of a one-shot
//! workload's own instances (the first few of each protocol in trace
//! order), timed from outside. Traced runs only.

use crate::stats::{median, ratio, us};
use rsr_bench::experiments::net::Instance;
use rsr_core::emd_protocol::EmdMessage;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Instances sampled per protocol.
const SAMPLE: usize = 6;
/// Timed calls per sampled instance.
const REPS: usize = 3;

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed())
}

/// Per-call medians for the EMD, scaled-EMD, Gap-keying and codec rows.
pub fn one_shot(instances: &[Instance]) -> Vec<(&'static str, f64)> {
    let (mut emd_encode, mut emd_decode) = (Vec::new(), Vec::new());
    let (mut scaled_encode, mut scaled_decode) = (Vec::new(), Vec::new());
    let mut gap_key = Vec::new();
    let (mut codec_bytes, mut write, mut read) = (0u64, Duration::ZERO, Duration::ZERO);
    let (mut emd_seen, mut scaled_seen, mut gap_seen) = (0, 0, 0);

    for instance in instances {
        match instance {
            Instance::Emd { proto, alice, bob } if emd_seen < SAMPLE => {
                emd_seen += 1;
                for _ in 0..REPS {
                    let (msg, t) = time(|| proto.alice_encode(alice));
                    emd_encode.push(us(t));
                    let (frame, t) = time(|| msg.to_frame());
                    write += t;
                    let (decoded, t) =
                        time(|| frame.decode_exact(|r| EmdMessage::read_wire(r, proto)));
                    read += t;
                    codec_bytes += frame.payload.len() as u64;
                    assert!(decoded.is_some(), "an encoded EMD message must read back");
                    let (_, t) = time(|| proto.bob_decode(&msg, bob));
                    emd_decode.push(us(t));
                }
            }
            Instance::ScaledEmd { proto, alice, bob } if scaled_seen < SAMPLE => {
                scaled_seen += 1;
                for _ in 0..REPS {
                    let (msg, t) = time(|| proto.alice_encode(alice));
                    scaled_encode.push(us(t));
                    let (_, t) = time(|| proto.bob_decode(&msg, bob));
                    scaled_decode.push(us(t));
                }
            }
            Instance::Gap { proto, alice, .. } if gap_seen < SAMPLE => {
                gap_seen += 1;
                for _ in 0..REPS {
                    let (_, t) = time(|| {
                        for p in alice {
                            black_box(proto.key_of(p));
                        }
                    });
                    gap_key.push(us(t) / alice.len() as f64);
                }
            }
            _ => {}
        }
    }
    let mb_per_s = |d: Duration| ratio(codec_bytes as f64 / 1e6, d.as_secs_f64());
    vec![
        ("core.emd.alice_encode_us", median(&emd_encode)),
        ("core.emd.bob_decode_us", median(&emd_decode)),
        ("core.scaled_emd.alice_encode_us", median(&scaled_encode)),
        ("core.scaled_emd.bob_decode_us", median(&scaled_decode)),
        ("hash.gap_key_us", median(&gap_key)),
        ("iblt.codec_write_mb_per_s", mb_per_s(write)),
        ("iblt.codec_read_mb_per_s", mb_per_s(read)),
    ]
}
