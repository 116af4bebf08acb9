//! E4 (paper §2, Goldberg et al.), pinned: the virtual time of every
//! point of the SSL-overhead sweep, plain echo and issl redirector alike.
//!
//! The host profile's servers, clients and wires all feed these numbers,
//! so a change to how a host peer accepts, reads, writes or yields that
//! moves the virtual clock fails here, even where the throughput table
//! would still round to the same figures.

use bench::e4_sweep;

/// `(bytes per connection, connections, plain virtual µs, issl virtual µs)`.
const PINNED: [(usize, u32, u64, u64); 4] = [
    (128, 8, 4_000, 167_360),
    (1024, 8, 5_600, 170_080),
    (16 * 1024, 2, 13_400, 59_320),
    (128 * 1024, 2, 103_000, 184_760),
];

#[test]
fn e4_virtual_time_results_are_pinned() {
    let sweep = e4_sweep();
    assert_eq!(sweep.len(), PINNED.len());
    for ((plain, tls), (bytes, conns, plain_us, tls_us)) in sweep.iter().zip(PINNED) {
        for p in [plain, tls] {
            assert_eq!((p.bytes_per_conn, p.connections), (bytes, conns));
        }
        let at = format!("{bytes} B x {conns}");
        assert_eq!(plain.virtual_us, plain_us, "plain echo, {at}");
        assert_eq!(tls.virtual_us, tls_us, "issl redirector, {at}");
    }
}
