//! Workload generators: a workload name and a seed become the
//! `FleetSpec`s of one run. `fleet_serve` only ever sees the generated
//! specs.
//!
//! Message lengths are spread evenly over each workload's range and then
//! shuffled by the seed, so every seed sends the same number of bytes and
//! seeds differ in message order and content, not in volume. Secure
//! sessions also pair a short message with a long one, so every session
//! carries the same load. That keeps the end-to-end numbers comparable
//! across seeds.

use issl::recmap;
use netsim::Corruption;
use rabbit::Engine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmc2000::{FaultPlan, FleetFirmware, FleetSpec, GuestClient, Tamper};

/// The credential every board and secure client shares.
pub const PSK: &[u8] = b"rmc2000 shared secret";

/// Largest secure message a workload sends. This cap works around a bug;
/// it is not a protocol limit. A 976-byte message becomes a 1031-byte
/// record, more than the NIC's `FRAME_MAX` (1024), and `fleet_serve` then
/// panics with "did not converge" instead of failing the session.
pub const SECURE_MSG_MAX: usize = 975;

/// Every workload, in report order.
pub const NAMES: [&str; 5] = [
    "secure_batch",
    "secure_bulk",
    "plain_churn",
    "paced_idle",
    "fault_storm",
];

/// One generated workload: the specs one run serves, in order.
pub struct Workload {
    pub specs: Vec<FleetSpec>,
    /// Client indices the fault plan is scripted to cut off with the
    /// guest's close alert (the same in every spec); empty when the
    /// workload has no faults.
    pub victims: Vec<usize>,
}

/// Generates workload `name` from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let one = |spec| Workload {
        specs: vec![spec],
        victims: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    Some(match name {
        "secure_batch" => one(secure_fleet(&mut rng, 8, 24, 16, 128)),
        "secure_bulk" => one(secure_fleet(&mut rng, 4, 12, 512, SECURE_MSG_MAX)),
        "plain_churn" => one(plain_churn(&mut rng)),
        "paced_idle" => one(paced_idle(&mut rng)),
        "fault_storm" => Workload {
            // One run is three passes over the same timeline, each with
            // its own payload bytes.
            specs: (0..3).map(|k| fault_storm(seed.wrapping_add(k))).collect(),
            victims: STORM_VICTIMS.to_vec(),
        },
        _ => return None,
    })
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// `n` lengths spread evenly over `lo..=hi`, ascending.
fn even_lengths(n: usize, lo: usize, hi: usize) -> Vec<usize> {
    (0..n)
        .map(|i| lo + i * (hi - lo) / (n - 1).max(1))
        .collect()
}

/// `n` lengths spread evenly over `lo..=hi`, in seed order.
fn spread_lengths(rng: &mut StdRng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut v = even_lengths(n, lo, hi);
    shuffle(rng, &mut v);
    v
}

/// Two message lengths per session from an even spread over `lo..=hi`,
/// the shortest paired with the longest, in seed order.
fn paired_lengths(rng: &mut StdRng, sessions: usize, lo: usize, hi: usize) -> Vec<[usize; 2]> {
    let v = even_lengths(2 * sessions, lo, hi);
    let mut pairs: Vec<[usize; 2]> = (0..sessions)
        .map(|i| [v[i], v[2 * sessions - 1 - i]])
        .collect();
    shuffle(rng, &mut pairs);
    for p in &mut pairs {
        if rng.gen_bool(0.5) {
            p.swap(0, 1);
        }
    }
    pairs
}

fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let mut v = vec![0u8; n];
    rng.fill(&mut v[..]);
    v
}

/// Printable ASCII only: the guest sniffs a session's first byte for a
/// ClientHello record type, which no printable byte is.
fn printable(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen_range(0x20u8..=0x7E)).collect()
}

fn secure_client(messages: Vec<Vec<u8>>) -> GuestClient {
    GuestClient::Secure {
        messages,
        psk: PSK.to_vec(),
        tamper: Tamper::None,
    }
}

/// `sessions` secure clients dialing at t=0, two messages each.
fn secure_fleet(
    rng: &mut StdRng,
    boards: usize,
    sessions: usize,
    lo: usize,
    hi: usize,
) -> FleetSpec {
    let clients = paired_lengths(rng, sessions, lo, hi)
        .into_iter()
        .map(|p| secure_client(p.iter().map(|&n| random_bytes(rng, n)).collect()))
        .collect();
    FleetSpec::new(Engine::BlockCache, boards, PSK, clients)
}

fn plain_churn(rng: &mut StdRng) -> FleetSpec {
    const SESSIONS: usize = 240;
    const MSGS: usize = 192;
    let lens = spread_lengths(rng, SESSIONS * MSGS, 1, 64);
    let clients = lens
        .chunks(MSGS)
        .map(|c| GuestClient::Plain {
            messages: c.iter().map(|&n| printable(rng, n)).collect(),
        })
        .collect();
    let mut spec = FleetSpec::new(Engine::BlockCache, 16, b"", clients);
    spec.firmware = FleetFirmware::PlainEcho;
    spec
}

fn paced_idle(rng: &mut StdRng) -> FleetSpec {
    const SESSIONS: usize = 240;
    const FIRST_US: u64 = 10_000;
    const MEAN_GAP_US: u64 = 150_000;
    let offset = rng.gen_range(0..16usize);
    let secure = |i: usize| i % 16 == offset;
    let n_secure = (0..SESSIONS).filter(|&i| secure(i)).count();
    let mut secure_lens = spread_lengths(rng, n_secure, 16, 128).into_iter();
    let mut plain_lens = spread_lengths(rng, 2 * (SESSIONS - n_secure), 1, 64).into_iter();
    let clients = (0..SESSIONS)
        .map(|i| {
            if secure(i) {
                let n = secure_lens.next().expect("one length per secure session");
                secure_client(vec![random_bytes(rng, n)])
            } else {
                let mut msg = || printable(rng, plain_lens.next().expect("two per plain session"));
                GuestClient::Plain {
                    messages: vec![msg(), msg()],
                }
            }
        })
        .collect();
    // Open-loop Poisson arrivals conditioned on their count and window:
    // the first dial at 10 ms, the other 239 at sorted uniform times over
    // the next 239 mean gaps.
    let span = (SESSIONS as u64 - 1) * MEAN_GAP_US;
    let mut dials: Vec<u64> = (1..SESSIONS)
        .map(|_| FIRST_US + 1 + rng.gen_range(0..span))
        .collect();
    dials.sort_unstable();
    dials.insert(0, FIRST_US);
    let mut spec = FleetSpec::new(Engine::BlockCache, 4, PSK, clients);
    spec.dials = dials;
    spec.probe_gap_us = Some(900);
    spec
}

// The E16 timeline (`examples/board_fleet_faults.rs`), in virtual µs.
const WEDGE_AT: u64 = 560_000;
const WAVE2_AT: u64 = 600_000;
const FLAP_END: u64 = 750_000;
const STORM_END: u64 = 1_500_000;
const RESURRECT_AT: u64 = 1_600_000;
const WAVE3_AT: u64 = 1_900_000;

/// The two wave-2 secure sessions the balancer routes to board3 while its
/// MAC storm is armed: each draws the guest's close alert before any echo.
/// Routing depends only on the timeline, so they are the same every seed.
const STORM_VICTIMS: [usize; 2] = [6, 7];

fn fault_storm(seed: u64) -> FleetSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    // E16's clients and message lengths; only the bytes come from the seed.
    let clients = (0..12)
        .map(|tag| match tag {
            2 | 3 | 10 | 11 => GuestClient::Plain {
                messages: vec![printable(
                    &mut rng,
                    format!("fault wave client {tag}").len(),
                )],
            },
            _ => secure_client(vec![random_bytes(&mut rng, 22), random_bytes(&mut rng, 31)]),
        })
        .collect();
    let mut dials = vec![0; 4];
    dials.extend([WAVE2_AT; 4]);
    dials.extend([WAVE3_AT; 4]);

    let mut spec = FleetSpec::new(Engine::BlockCache, 4, PSK, clients);
    spec.probe_gap_us = Some(900);
    spec.faults = FaultPlan::new()
        .wedge_resurrect(1, WEDGE_AT, RESURRECT_AT)
        .flap(2, WAVE2_AT, FLAP_END, 0.4)
        .storm(
            3,
            WAVE2_AT,
            STORM_END,
            Corruption::mac_storm(recmap::REC_DATA),
        );
    spec.dials = dials;
    spec.lb_retry_after_us = Some(200_000);
    spec.lb_stall_timeout_us = Some(2_000_000);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn messages(c: &GuestClient) -> &[Vec<u8>] {
        match c {
            GuestClient::Secure { messages, .. } | GuestClient::Plain { messages } => messages,
            other => panic!("unexpected client {other:?}"),
        }
    }

    fn specs(name: &str, seed: u64) -> Vec<FleetSpec> {
        generate(name, seed).expect("known workload").specs
    }

    #[test]
    fn same_seed_same_specs_and_other_seeds_other_payloads() {
        for name in NAMES {
            let a = format!("{:?}", specs(name, 7));
            assert_eq!(a, format!("{:?}", specs(name, 7)), "{name}");
            let payloads = |seed| -> Vec<Vec<u8>> {
                specs(name, seed)
                    .iter()
                    .flat_map(|s| s.clients.iter().flat_map(|c| messages(c).to_vec()))
                    .collect()
            };
            assert_ne!(payloads(7), payloads(8), "{name}");
        }
    }

    #[test]
    fn secure_messages_fit_one_frame() {
        for name in NAMES {
            for spec in specs(name, 3) {
                for c in &spec.clients {
                    if let GuestClient::Secure { messages, .. } = c {
                        assert!(messages.iter().all(|m| m.len() <= SECURE_MSG_MAX), "{name}");
                    }
                }
            }
        }
    }

    #[test]
    fn plain_bytes_are_printable_so_never_sniffed_as_a_hello() {
        for name in NAMES {
            for spec in specs(name, 5) {
                for c in &spec.clients {
                    if let GuestClient::Plain { messages } = c {
                        for m in messages {
                            assert!(!m.is_empty(), "{name}");
                            assert!(m.iter().all(|b| (0x20..=0x7E).contains(b)), "{name}");
                            assert_ne!(m[0], recmap::REC_CLIENT_HELLO, "{name}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_client_gets_an_ip_octet() {
        for name in NAMES {
            for spec in specs(name, 1) {
                assert!(spec.clients.len() <= 254, "{name}");
                assert!(spec.dials.is_empty() || spec.dials.len() == spec.clients.len());
            }
        }
    }

    #[test]
    fn lengths_spread_over_the_whole_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v = spread_lengths(&mut rng, 48, 16, 128);
        v.sort_unstable();
        assert_eq!((v[0], v[47]), (16, 128));
        let total: usize = v.iter().sum();
        let mut rng = StdRng::seed_from_u64(10);
        assert_eq!(total, spread_lengths(&mut rng, 48, 16, 128).iter().sum());

        let pairs = paired_lengths(&mut rng, 12, 512, SECURE_MSG_MAX);
        let sums: Vec<usize> = pairs.iter().map(|p| p[0] + p[1]).collect();
        let (lo, hi) = (sums.iter().min(), sums.iter().max());
        assert!(hi.zip(lo).is_some_and(|(h, l)| h - l <= 1), "{sums:?}");
    }
}
