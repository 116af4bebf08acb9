//! Mass-concurrency smoke run for CI: 100 concurrent sessions through
//! the readiness-driven event-loop server, printing throughput and
//! handshake-latency numbers (run with `--nocapture` to see them).
//!
//! The full 1,000-session run lives in `full_stack.rs`; this smaller
//! sweep keeps the CI job fast while still exercising the same
//! serving path at three orders of concurrency.

use issl::serve::run_load;
use issl::LoadSpec;

#[test]
fn hundred_session_smoke() {
    for n in [10usize, 100] {
        let report = run_load(&LoadSpec::concurrency(n));
        assert_eq!(report.completed, n, "all {n} sessions complete");
        assert_eq!(report.failed, 0, "no failures at N={n}");
        println!(
            "N={n:4}  {:8.1} sessions/sec  handshake p50={}us p99={}us  ({} us virtual)",
            report.sessions_per_sec(),
            report.handshake_percentile_us(50.0),
            report.handshake_percentile_us(99.0),
            report.elapsed_us,
        );
    }
}

/// The smoke run is bit-for-bit reproducible: identical specs give
/// identical virtual-time latency vectors.
#[test]
fn hundred_session_determinism() {
    let spec = LoadSpec::concurrency(100);
    let a = run_load(&spec);
    let b = run_load(&spec);
    assert_eq!(a.completed, 100);
    assert_eq!(a.handshake_us, b.handshake_us);
    assert_eq!(a.elapsed_us, b.elapsed_us);
}

/// FNV-1a over the little-endian bytes of each sample, in report order.
fn digest(samples: &[u64]) -> u64 {
    samples
        .iter()
        .flat_map(|s| s.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The E9 table in virtual time, pinned: any socket call that moves,
/// changes its bytes or changes its order shifts at least one of these.
#[test]
fn e9_virtual_time_results_are_pinned() {
    // (N, elapsed_us, handshake p50, p99, digest of handshake_us)
    let pins = [
        (10usize, 3_024u64, 1_246u64, 1_504u64, 2_933_432_095_404_414_545u64),
        (100, 18_378, 7_298, 8_498, 17_875_381_847_104_254_573),
    ];
    for (n, elapsed_us, p50, p99, hs_digest) in pins {
        let r = run_load(&LoadSpec::concurrency(n));
        assert_eq!((r.completed, r.failed), (n, 0), "N={n}");
        assert_eq!(r.elapsed_us, elapsed_us, "N={n} elapsed_us");
        assert_eq!(r.handshake_percentile_us(50.0), p50, "N={n} handshake p50");
        assert_eq!(r.handshake_percentile_us(99.0), p99, "N={n} handshake p99");
        assert_eq!(digest(&r.handshake_us), hs_digest, "N={n} handshake_us digest");
    }
}
