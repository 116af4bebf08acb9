//! The on-guest secure channel: the `issl` record layer served from
//! *compiled C* firmware.
//!
//! Where [`crate::serve`] echoes plaintext, this module compiles a full
//! record-layer runtime — record framing, PSK key derivation, AES-128/128
//! CBC and HMAC-SHA1 — written in the Dynamic C subset, links it against
//! the hand-assembly AES core from `aes-rabbit`
//! ([`aes_rabbit::aes128_linked_module`]), and serves up to
//! [`rabbit::nicmap::MAX_CONNS`] concurrent secure sessions to host-side
//! `issl` clients through netsim. The paper's port (§5) moved the
//! service's record layer onto the board the same way: C for the protocol
//! logic, assembly for the cipher inner loops.
//!
//! The C side has no 32-bit arithmetic, so SHA-1 runs on 16-bit limb
//! pairs (`*_hi`/`*_lo`) with explicit carry propagation; every wire
//! constant is spliced in from [`issl::recmap`] — the Dynamic C subset
//! has no preprocessor, so the shared "header" is generated, not
//! included. A session's connection handle doubles as its session index.
//!
//! Everything observable — plaintext transcripts, raw record bytes,
//! alerts, serial output, cycle counts, telemetry — is byte-identical
//! across the interpreter and block-cache engines; the tier-1 suites
//! assert it.

use crypto::Prng;
use issl::recmap;
use issl::{CipherSuite, ClientConfig, ClientKx, EchoClient};
use netsim::{Endpoint, Recv, SimHost, SocketId};
use rabbit::nicmap::{
    MAX_CONNS, STATUS_ACCEPT_READY, STATUS_ERR, STATUS_PEER_CLOSED, STATUS_RX_AVAIL,
    STATUS_TX_READY,
};

use crate::nic::NIC_VECTOR;
use crate::serial::SERIAL_A_VECTOR;

/// TCP port the secure server listens on.
pub const SECURE_PORT: u16 = 443;

/// Per-session reassembly buffer, in bytes. Sized so the largest record
/// body the guest accepts ([`MAX_GUEST_BODY`] + header) plus one more
/// full Ethernet frame always fits — the guest never reads a byte it
/// cannot buffer.
pub const REASM: usize = 2600;

/// Largest record body the guest accepts. The host record layer allows
/// [`recmap::MAX_RECORD`]; the guest serves [`recmap::FRAGMENT`]-sized
/// data records (body ≤ 16 + 1040 + 20 = 1076 bytes) and statically
/// allocates for exactly that, per the paper's no-`malloc` rule (§5.2).
/// Anything larger draws an alert and a close.
pub const MAX_GUEST_BODY: usize = 1100;

/// Seed of the guest's 16-bit LCG nonce/IV generator (set by `main`).
/// Fixed, so both engines draw the same stream — the secure channel's
/// determinism story, not its security story.
pub const GUEST_PRNG_SEED: u16 = 935;

// ---------------------------------------------------------------------------
// Generated C source
// ---------------------------------------------------------------------------

/// Emits `dst[start + i] = bytes[i];` statements — how byte-string
/// constants (alert texts, KDF labels) reach a language with no string
/// literals.
fn put_bytes(dst: &str, start: usize, bytes: &[u8]) -> String {
    bytes
        .iter()
        .enumerate()
        .map(|(i, b)| format!("        {dst}[{}] = {};\n", start + i, b))
        .collect()
}

/// The crypto half of the guest: SHA-1 / HMAC-SHA1 / the issl KDF on
/// 16-bit limbs, plus the LCG the server draws nonces and IVs from.
/// Kept separate from [`record_c`] so the differential tests can drive
/// it under a bare test `main`.
fn crypto_c() -> String {
    let template = "\
/* ---- SHA-1 / HMAC / KDF on 16-bit limbs ---- */
char hbuf[1216];
int hlen;
char dig[20];
int w_hi[80];
int w_lo[80];
int s_hi[5];
int s_lo[5];
char hkey[64];
int hklen;
char hmsg[1100];
int hmlen;
char idig[20];
char psk[64];
int psklen;
char kmaster[20];
char kb[80];
char tbuf[120];
char thash[60];
char ckey[48];
char skey[48];
char cmac[60];
char smac[60];
int rnd;

int rnd_byte() {
    rnd = (rnd * 25173) + 13849;
    return (rnd >> 8) & 255;
}

void sha1_run() {
    int n; int i; int j; int t; int bits;
    int a_hi; int a_lo; int b_hi; int b_lo; int c_hi; int c_lo;
    int d_hi; int d_lo; int e_hi; int e_lo;
    int f_hi; int f_lo; int k_hi; int k_lo;
    int t_hi; int t_lo; int u_hi; int u_lo;
    n = hlen;
    bits = n << 3;
    hbuf[n] = 128;
    n = n + 1;
    while ((n & 63) != 56) { hbuf[n] = 0; n = n + 1; }
    for (i = 0; i < 6; i = i + 1) { hbuf[n] = 0; n = n + 1; }
    hbuf[n] = (bits >> 8) & 255;
    hbuf[n + 1] = bits & 255;
    n = n + 2;
    s_hi[0] = 0x6745; s_lo[0] = 0x2301;
    s_hi[1] = 0xEFCD; s_lo[1] = 0xAB89;
    s_hi[2] = 0x98BA; s_lo[2] = 0xDCFE;
    s_hi[3] = 0x1032; s_lo[3] = 0x5476;
    s_hi[4] = 0xC3D2; s_lo[4] = 0xE1F0;
    j = 0;
    while (j < n) {
        for (i = 0; i < 16; i = i + 1) {
            t = j + (i << 2);
            w_hi[i] = (hbuf[t] << 8) | hbuf[t + 1];
            w_lo[i] = (hbuf[t + 2] << 8) | hbuf[t + 3];
        }
        for (i = 16; i < 80; i = i + 1) {
            u_hi = ((w_hi[i - 3] ^ w_hi[i - 8]) ^ w_hi[i - 14]) ^ w_hi[i - 16];
            u_lo = ((w_lo[i - 3] ^ w_lo[i - 8]) ^ w_lo[i - 14]) ^ w_lo[i - 16];
            w_hi[i] = (u_hi << 1) | (u_lo >> 15);
            w_lo[i] = (u_lo << 1) | (u_hi >> 15);
        }
        a_hi = s_hi[0]; a_lo = s_lo[0];
        b_hi = s_hi[1]; b_lo = s_lo[1];
        c_hi = s_hi[2]; c_lo = s_lo[2];
        d_hi = s_hi[3]; d_lo = s_lo[3];
        e_hi = s_hi[4]; e_lo = s_lo[4];
        for (i = 0; i < 80; i = i + 1) {
            if (i < 20) {
                f_hi = (b_hi & c_hi) | ((~b_hi) & d_hi);
                f_lo = (b_lo & c_lo) | ((~b_lo) & d_lo);
                k_hi = 0x5A82; k_lo = 0x7999;
            } else if (i < 40) {
                f_hi = (b_hi ^ c_hi) ^ d_hi;
                f_lo = (b_lo ^ c_lo) ^ d_lo;
                k_hi = 0x6ED9; k_lo = 0xEBA1;
            } else if (i < 60) {
                f_hi = ((b_hi & c_hi) | (b_hi & d_hi)) | (c_hi & d_hi);
                f_lo = ((b_lo & c_lo) | (b_lo & d_lo)) | (c_lo & d_lo);
                k_hi = 0x8F1B; k_lo = 0xBCDC;
            } else {
                f_hi = (b_hi ^ c_hi) ^ d_hi;
                f_lo = (b_lo ^ c_lo) ^ d_lo;
                k_hi = 0xCA62; k_lo = 0xC1D6;
            }
            t_hi = (a_hi << 5) | (a_lo >> 11);
            t_lo = (a_lo << 5) | (a_hi >> 11);
            t_lo = t_lo + f_lo;
            if (t_lo < f_lo) t_hi = t_hi + 1;
            t_hi = t_hi + f_hi;
            t_lo = t_lo + e_lo;
            if (t_lo < e_lo) t_hi = t_hi + 1;
            t_hi = t_hi + e_hi;
            t_lo = t_lo + k_lo;
            if (t_lo < k_lo) t_hi = t_hi + 1;
            t_hi = t_hi + k_hi;
            t_lo = t_lo + w_lo[i];
            if (t_lo < w_lo[i]) t_hi = t_hi + 1;
            t_hi = t_hi + w_hi[i];
            e_hi = d_hi; e_lo = d_lo;
            d_hi = c_hi; d_lo = c_lo;
            c_hi = (b_hi >> 2) | (b_lo << 14);
            c_lo = (b_lo >> 2) | (b_hi << 14);
            b_hi = a_hi; b_lo = a_lo;
            a_hi = t_hi; a_lo = t_lo;
        }
        s_lo[0] = s_lo[0] + a_lo;
        if (s_lo[0] < a_lo) s_hi[0] = s_hi[0] + 1;
        s_hi[0] = s_hi[0] + a_hi;
        s_lo[1] = s_lo[1] + b_lo;
        if (s_lo[1] < b_lo) s_hi[1] = s_hi[1] + 1;
        s_hi[1] = s_hi[1] + b_hi;
        s_lo[2] = s_lo[2] + c_lo;
        if (s_lo[2] < c_lo) s_hi[2] = s_hi[2] + 1;
        s_hi[2] = s_hi[2] + c_hi;
        s_lo[3] = s_lo[3] + d_lo;
        if (s_lo[3] < d_lo) s_hi[3] = s_hi[3] + 1;
        s_hi[3] = s_hi[3] + d_hi;
        s_lo[4] = s_lo[4] + e_lo;
        if (s_lo[4] < e_lo) s_hi[4] = s_hi[4] + 1;
        s_hi[4] = s_hi[4] + e_hi;
        j = j + 64;
    }
    for (i = 0; i < 5; i = i + 1) {
        t = i << 2;
        dig[t] = (s_hi[i] >> 8) & 255;
        dig[t + 1] = s_hi[i] & 255;
        dig[t + 2] = (s_lo[i] >> 8) & 255;
        dig[t + 3] = s_lo[i] & 255;
    }
}

void hmac_run() {
    int i;
    for (i = 0; i < 64; i = i + 1) {
        if (i < hklen) hbuf[i] = hkey[i] ^ 54;
        else hbuf[i] = 54;
    }
    for (i = 0; i < hmlen; i = i + 1) hbuf[64 + i] = hmsg[i];
    hlen = 64 + hmlen;
    sha1_run();
    for (i = 0; i < 20; i = i + 1) idig[i] = dig[i];
    for (i = 0; i < 64; i = i + 1) {
        if (i < hklen) hbuf[i] = hkey[i] ^ 92;
        else hbuf[i] = 92;
    }
    for (i = 0; i < 20; i = i + 1) hbuf[64 + i] = idig[i];
    hlen = 84;
    sha1_run();
}

void kdf_run(int h) {
    int i; int r; int tb; int o;
    tb = h * 40;
    for (i = 0; i < psklen; i = i + 1) hkey[i] = psk[i];
    hklen = psklen;
@MASTER@
    for (i = 0; i < @NONCE@; i = i + 1) hmsg[6 + i] = tbuf[(tb + 2) + i];
    for (i = 0; i < @NONCE@; i = i + 1) hmsg[22 + i] = tbuf[(tb + 20) + i];
    hmlen = 38;
    hmac_run();
    for (i = 0; i < 20; i = i + 1) kmaster[i] = dig[i];
    for (r = 0; r < 4; r = r + 1) {
        for (i = 0; i < 20; i = i + 1) hkey[i] = kmaster[i];
        hklen = 20;
        hmsg[0] = r;
@KEYEXP@
        for (i = 0; i < @NONCE@; i = i + 1) hmsg[14 + i] = tbuf[(tb + 2) + i];
        for (i = 0; i < @NONCE@; i = i + 1) hmsg[30 + i] = tbuf[(tb + 20) + i];
        hmlen = 46;
        hmac_run();
        o = r * 20;
        for (i = 0; i < 20; i = i + 1) kb[o + i] = dig[i];
    }
    o = h * 16;
    for (i = 0; i < 16; i = i + 1) ckey[o + i] = kb[i];
    for (i = 0; i < 16; i = i + 1) skey[o + i] = kb[16 + i];
    o = h * 20;
    for (i = 0; i < 20; i = i + 1) cmac[o + i] = kb[32 + i];
    for (i = 0; i < 20; i = i + 1) smac[o + i] = kb[52 + i];
}
";
    template
        .replace("@MASTER@", put_bytes("hmsg", 0, b"master").trim_end())
        .replace("@KEYEXP@", put_bytes("hmsg", 1, b"key expansion").trim_end())
        .replace("@NONCE@", &recmap::NONCE_LEN.to_string())
}

/// The record-layer half of the guest: framing, the per-handle session
/// state machine, the NIC and serial service routines, and `main`.
///
/// Session states: 0 = awaiting `ClientHello` (sniffing), 1 = awaiting
/// `KeyExchange`, 2 = awaiting `Finished`, 3 = established, 4 =
/// plaintext echo (first byte was not a `ClientHello` — the port serves
/// mixed load on one listener), 5 = closed.
fn record_c(port: u16) -> String {
    let template = "\
/* ---- record layer, served round-robin over the NIC handles ---- */
extern void aes_expand();
extern void aes_enc();
extern void aes_dec();

root char rxb[@RXBSZ@];
int rxlen[@CONNS@];
root char nb[1472];
root char sb[@REASM@];
char ptb[1088];
char cprev[16];
char aes_key[16];
char aes_blk[16];
int sstate[@CONNS@];
int seqi[@CONNS@];
int seqo[@CONNS@];
int hs_ok[@CONNS@];
int rec_in[@CONNS@];
int rec_out[@CONNS@];
int alerts[@CONNS@];
int alert_kind[3];
int naccepts;
int nopen;

void send_rec(int h, int t, int blen) {
    sb[0] = t;
    sb[1] = (blen >> 8) & 255;
    sb[2] = blen & 255;
    nic_send(h, sb, blen + @HDR@);
}

void send_alert(int h, int w) {
    int n;
    if (w == 1) {
@ALERT_SUITE@
        n = @ALERT_SUITE_LEN@;
    } else if (w == 2) {
@ALERT_FIN@
        n = @ALERT_FIN_LEN@;
    } else {
@ALERT_CLOSE@
        n = @ALERT_CLOSE_LEN@;
    }
    send_rec(h, @ALERT@, n);
}

void fail(int h, int w) {
    int st;
    st = nic_conn(h);
    if (st & @OPEN@) send_alert(h, w);
    nic_close(h);
    sstate[h] = 5;
    rxlen[h] = 0;
    alerts[h] = alerts[h] + 1;
    alert_kind[w] = alert_kind[w] + 1;
}

int do_hello(int h, int blen) {
    int i; int tb; int base;
    base = (h * @REASM@) + @HDR@;
    tb = h * 40;
    if (blen != @CHLEN@) return 0;
    if (rxb[base] != @GEOM0@) return 2;
    if (rxb[base + 1] != @GEOM1@) return 2;
    for (i = 0; i < @CHLEN@; i = i + 1) tbuf[tb + i] = rxb[base + i];
    tbuf[tb + 18] = @GEOM0@;
    tbuf[tb + 19] = @GEOM1@;
    for (i = 0; i < @NONCE@; i = i + 1) tbuf[(tb + 20) + i] = rnd_byte();
    for (i = 0; i < 4; i = i + 1) tbuf[(tb + 36) + i] = 0;
    for (i = 0; i < @SHLEN@; i = i + 1) sb[@HDR@ + i] = tbuf[(tb + 18) + i];
    send_rec(h, @SH@, @SHLEN@);
    return 1;
}

void do_kx(int h) {
    int i; int o;
    o = h * 40;
    for (i = 0; i < 40; i = i + 1) hbuf[i] = tbuf[o + i];
    hlen = 40;
    sha1_run();
    o = h * @MACL@;
    for (i = 0; i < @MACL@; i = i + 1) thash[o + i] = dig[i];
    kdf_run(h);
}

int do_finished(int h, int blen) {
    int i; int bad; int base; int o;
    base = (h * @REASM@) + @HDR@;
    if (blen != @MACL@) return 0;
    o = h * @MACL@;
    for (i = 0; i < @MACL@; i = i + 1) hkey[i] = cmac[o + i];
    hklen = @MACL@;
    for (i = 0; i < @MACL@; i = i + 1) hmsg[i] = thash[o + i];
    hmlen = @MACL@;
    hmac_run();
    bad = 0;
    for (i = 0; i < @MACL@; i = i + 1) {
        if (dig[i] != rxb[base + i]) bad = 1;
    }
    if (bad) return 0;
    for (i = 0; i < @MACL@; i = i + 1) hkey[i] = smac[o + i];
    hmac_run();
    for (i = 0; i < @MACL@; i = i + 1) sb[@HDR@ + i] = dig[i];
    send_rec(h, @FIN@, @MACL@);
    return 1;
}

void send_data(int h, int npt) {
    int i; int k; int nct; int b; int nblk; int pad; int o;
    pad = 16 - (npt & 15);
    for (i = 0; i < pad; i = i + 1) ptb[npt + i] = pad;
    nct = npt + pad;
    o = h * 16;
    for (i = 0; i < 16; i = i + 1) aes_key[i] = skey[o + i];
    aes_expand();
    for (i = 0; i < 16; i = i + 1) {
        k = rnd_byte();
        cprev[i] = k;
        sb[@HDR@ + i] = k;
    }
    nblk = nct >> 4;
    for (b = 0; b < nblk; b = b + 1) {
        o = b << 4;
        for (i = 0; i < 16; i = i + 1) aes_blk[i] = ptb[o + i] ^ cprev[i];
        aes_enc();
        k = (@HDR@ + 16) + o;
        for (i = 0; i < 16; i = i + 1) {
            sb[k + i] = aes_blk[i];
            cprev[i] = aes_blk[i];
        }
    }
    for (i = 0; i < 6; i = i + 1) hmsg[i] = 0;
    hmsg[6] = (seqo[h] >> 8) & 255;
    hmsg[7] = seqo[h] & 255;
    k = 16 + nct;
    for (i = 0; i < k; i = i + 1) hmsg[8 + i] = sb[@HDR@ + i];
    hmlen = k + 8;
    o = h * @MACL@;
    for (i = 0; i < @MACL@; i = i + 1) hkey[i] = smac[o + i];
    hklen = @MACL@;
    hmac_run();
    k = (@HDR@ + 16) + nct;
    for (i = 0; i < @MACL@; i = i + 1) sb[k + i] = dig[i];
    send_rec(h, @DATA@, (16 + nct) + @MACL@);
    seqo[h] = seqo[h] + 1;
    rec_out[h] = rec_out[h] + 1;
}

int do_data(int h, int blen) {
    int i; int k; int nct; int npt; int base; int pad; int bad; int nblk; int b; int o;
    base = (h * @REASM@) + @HDR@;
    if (blen < 52) return 0;
    nct = blen - 36;
    if (nct & 15) return 0;
    for (i = 0; i < 6; i = i + 1) hmsg[i] = 0;
    hmsg[6] = (seqi[h] >> 8) & 255;
    hmsg[7] = seqi[h] & 255;
    k = blen - @MACL@;
    for (i = 0; i < k; i = i + 1) hmsg[8 + i] = rxb[base + i];
    hmlen = k + 8;
    o = h * @MACL@;
    for (i = 0; i < @MACL@; i = i + 1) hkey[i] = cmac[o + i];
    hklen = @MACL@;
    hmac_run();
    bad = 0;
    k = (base + blen) - @MACL@;
    for (i = 0; i < @MACL@; i = i + 1) {
        if (dig[i] != rxb[k + i]) bad = 1;
    }
    if (bad) return 0;
    o = h * 16;
    for (i = 0; i < 16; i = i + 1) aes_key[i] = ckey[o + i];
    aes_expand();
    for (i = 0; i < 16; i = i + 1) cprev[i] = rxb[base + i];
    nblk = nct >> 4;
    for (b = 0; b < nblk; b = b + 1) {
        k = (base + 16) + (b << 4);
        o = b << 4;
        for (i = 0; i < 16; i = i + 1) aes_blk[i] = rxb[k + i];
        aes_dec();
        for (i = 0; i < 16; i = i + 1) ptb[o + i] = aes_blk[i] ^ cprev[i];
        for (i = 0; i < 16; i = i + 1) cprev[i] = rxb[k + i];
    }
    npt = nct;
    pad = ptb[npt - 1];
    if (pad == 0) return 0;
    if (pad > 16) return 0;
    bad = 0;
    for (i = 0; i < pad; i = i + 1) {
        if (ptb[(npt - 1) - i] != pad) bad = 1;
    }
    if (bad) return 0;
    npt = npt - pad;
    seqi[h] = seqi[h] + 1;
    rec_in[h] = rec_in[h] + 1;
    send_data(h, npt);
    return 1;
}

void pump(int h) {
    int base; int t; int blen; int i; int r;
    base = h * @REASM@;
    while (1) {
        if (sstate[h] == 5) {
            rxlen[h] = 0;
            return;
        }
        if (rxlen[h] == 0) return;
        if (sstate[h] == 0) {
            if (rxb[base] != @CH@) sstate[h] = 4;
        }
        if (sstate[h] == 4) {
            for (i = 0; i < rxlen[h]; i = i + 1) sb[i] = rxb[base + i];
            nic_send(h, sb, rxlen[h]);
            rxlen[h] = 0;
            return;
        }
        if (rxlen[h] < @HDR@) return;
        t = rxb[base];
        blen = (rxb[base + 1] << 8) | rxb[base + 2];
        if (t < @CH@) { fail(h, 0); return; }
        if (t > @ALERT@) { fail(h, 0); return; }
        if (blen > @MAXBODY@) { fail(h, 0); return; }
        if (rxlen[h] < (blen + @HDR@)) return;
        if (t == @ALERT@) {
            nic_close(h);
            sstate[h] = 5;
            rxlen[h] = 0;
            return;
        }
        if (sstate[h] == 0) {
            r = do_hello(h, blen);
            if (r == 2) { fail(h, 1); return; }
            if (r == 0) { fail(h, 0); return; }
            sstate[h] = 1;
        } else if (sstate[h] == 1) {
            if (t != @KX@) { fail(h, 0); return; }
            do_kx(h);
            sstate[h] = 2;
        } else if (sstate[h] == 2) {
            if (t != @FIN@) { fail(h, 2); return; }
            r = do_finished(h, blen);
            if (r == 0) { fail(h, 2); return; }
            sstate[h] = 3;
            hs_ok[h] = hs_ok[h] + 1;
        } else {
            if (t != @DATA@) { fail(h, 0); return; }
            r = do_data(h, blen);
            if (r == 0) { fail(h, 0); return; }
        }
        rxlen[h] = rxlen[h] - (blen + @HDR@);
        for (i = 0; i < rxlen[h]; i = i + 1) rxb[base + i] = rxb[(base + (blen + @HDR@)) + i];
    }
}

interrupt void nic_isr() {
    int st; int h; int n; int i; int again; int base;
    again = 1;
    while (again) {
        again = 0;
        for (h = 0; h < @CONNS@; h = h + 1) {
            st = nic_conn(h);
            if ((st & @ACC@) && !(st & @OPEN@)) {
                st = nic_accept(h);
                if (!(st & @ERR@)) {
                    naccepts = naccepts + 1;
                    sstate[h] = 0;
                    rxlen[h] = 0;
                    seqi[h] = 0;
                    seqo[h] = 0;
                }
                again = 1;
                st = nic_conn(h);
            }
            if (st & @RX@) {
                n = nic_recv(h, nb);
                base = h * @REASM@;
                if ((rxlen[h] + n) > @REASM@) {
                    fail(h, 0);
                } else {
                    for (i = 0; i < n; i = i + 1) rxb[(base + rxlen[h]) + i] = nb[i];
                    rxlen[h] = rxlen[h] + n;
                    pump(h);
                }
                again = 1;
                st = nic_conn(h);
            }
            if ((st & @OPEN@) && (st & @GONE@) && !(st & @RX@)) {
                if ((sstate[h] != 4) && (sstate[h] != 5) && (rxlen[h] != 0)) {
                    fail(h, 0);
                } else {
                    nic_close(h);
                    sstate[h] = 5;
                    rxlen[h] = 0;
                }
                again = 1;
            }
        }
    }
    n = 0;
    for (h = 0; h < @CONNS@; h = h + 1) {
        if (nic_conn(h) & @OPEN@) n = n + 1;
    }
    nopen = n;
}

interrupt void ser_isr() {
    while (serial_status() & 0x80) {
        serial_getc();
        serial_putc(83);
        serial_putc(48 + nopen);
        serial_putc(10);
    }
}

int main() {
    rnd = @SEED@;
    serial_init(2);
    nic_listen(@PORT@);
    nic_ier(1);
    idle();
    return 0;
}
";
    template
        .replace("@RXBSZ@", &(REASM * MAX_CONNS).to_string())
        .replace("@REASM@", &REASM.to_string())
        .replace("@CONNS@", &MAX_CONNS.to_string())
        .replace("@HDR@", &recmap::HEADER_LEN.to_string())
        .replace("@MAXBODY@", &MAX_GUEST_BODY.to_string())
        .replace("@CH@", &recmap::REC_CLIENT_HELLO.to_string())
        .replace("@SH@", &recmap::REC_SERVER_HELLO.to_string())
        .replace("@KX@", &recmap::REC_KEY_EXCHANGE.to_string())
        .replace("@FIN@", &recmap::REC_FINISHED.to_string())
        .replace("@DATA@", &recmap::REC_DATA.to_string())
        .replace("@ALERT@", &recmap::REC_ALERT.to_string())
        .replace("@CHLEN@", &recmap::CLIENT_HELLO_LEN.to_string())
        .replace("@SHLEN@", &recmap::SERVER_HELLO_PSK_LEN.to_string())
        .replace("@NONCE@", &recmap::NONCE_LEN.to_string())
        .replace("@MACL@", &recmap::MAC_LEN.to_string())
        .replace("@GEOM0@", &recmap::AES128_GEOMETRY[0].to_string())
        .replace("@GEOM1@", &recmap::AES128_GEOMETRY[1].to_string())
        .replace(
            "@ALERT_SUITE@",
            put_bytes("sb", recmap::HEADER_LEN, recmap::ALERT_UNSUPPORTED_SUITE).trim_end(),
        )
        .replace(
            "@ALERT_SUITE_LEN@",
            &recmap::ALERT_UNSUPPORTED_SUITE.len().to_string(),
        )
        .replace(
            "@ALERT_FIN@",
            put_bytes("sb", recmap::HEADER_LEN, recmap::ALERT_BAD_FINISHED).trim_end(),
        )
        .replace(
            "@ALERT_FIN_LEN@",
            &recmap::ALERT_BAD_FINISHED.len().to_string(),
        )
        .replace(
            "@ALERT_CLOSE@",
            put_bytes("sb", recmap::HEADER_LEN, recmap::ALERT_CLOSE).trim_end(),
        )
        .replace("@ALERT_CLOSE_LEN@", &recmap::ALERT_CLOSE.len().to_string())
        .replace("@ACC@", &STATUS_ACCEPT_READY.to_string())
        .replace("@OPEN@", &STATUS_TX_READY.to_string())
        .replace("@ERR@", &STATUS_ERR.to_string())
        .replace("@RX@", &STATUS_RX_AVAIL.to_string())
        .replace("@GONE@", &STATUS_PEER_CLOSED.to_string())
        .replace("@SEED@", &GUEST_PRNG_SEED.to_string())
        .replace("@PORT@", &port.to_string())
}

/// The complete secure-server translation unit, in the Dynamic C subset.
pub fn secure_server_c(port: u16) -> String {
    format!("{}{}", crypto_c(), record_c(port))
}

/// Compiles [`secure_server_c`] and links the hand-assembly AES module
/// behind its `extern` declarations, then checks the memory map: the
/// compiled C must stay clear of the module's code, table, and workspace
/// origins — the assertion is the link-time "linker script".
///
/// Loop unrolling is forced off whatever `opts` says: unrolled, the
/// SHA-1 rounds alone push the record runtime past the module origin,
/// and a build that cannot fit is not an optimization level.
///
/// # Panics
///
/// If the C source fails to compile, the link fails, or any two image
/// sections overlap.
pub fn build_secure_firmware(opts: dcc::Options) -> dcc::Build {
    let opts = dcc::Options {
        unroll: false,
        ..opts
    };
    let module = aes_rabbit::aes128_linked_module();
    let build = dcc::build_firmware_linked(
        &secure_server_c(SECURE_PORT),
        opts,
        &[(SERIAL_A_VECTOR, "ser_isr"), (NIC_VECTOR, "nic_isr")],
        &[&module],
    )
    .expect("C secure server compiles and links");
    let mut spans: Vec<(u16, usize)> = build
        .image
        .sections
        .iter()
        .map(|s| (s.addr, s.bytes.len()))
        .collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(
            usize::from(w[0].0) + w[0].1 <= usize::from(w[1].0),
            "image sections overlap: {:#06x}+{} vs {:#06x}",
            w[0].0,
            w[0].1,
            w[1].0
        );
    }
    build
}

// ---------------------------------------------------------------------------
// Host-side clients
// ---------------------------------------------------------------------------

/// A deliberate protocol violation a test client commits against the
/// guest, to pin down the server's failure behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Behave; the session should complete.
    None,
    /// After establishing, flip the last MAC byte of the first outgoing
    /// data record. The guest must alert and close.
    FlipDataMac,
    /// After establishing, send a bare record header promising a body
    /// that never comes, then close the connection. The guest must treat
    /// the truncated record as fatal.
    TruncateAfterHeader,
}

/// One host-side client in a [`crate::fleet_serve`] run.
#[derive(Debug, Clone)]
pub enum GuestClient {
    /// An [`issl::EchoClient`] doing the full PSK handshake and echoing
    /// `messages` through the secure channel. A `psk` different from the
    /// board's models the wrong-credential case.
    Secure {
        messages: Vec<Vec<u8>>,
        psk: Vec<u8>,
        tamper: Tamper,
    },
    /// A plaintext echo client on the same port (the guest sniffs the
    /// first byte and falls back to plain echo).
    Plain { messages: Vec<Vec<u8>> },
    /// Sends `payload` verbatim once connected and records whatever
    /// comes back — for handcrafted records the client machine would
    /// refuse to emit.
    Raw { payload: Vec<u8> },
    /// Sends `payload` once connected and then hangs up immediately —
    /// the client that disconnects mid-handshake. Whatever the guest
    /// answers (typically an alert) lands in `raw_rx`.
    HangUp { payload: Vec<u8> },
}

impl GuestClient {
    /// A well-behaved secure echo client.
    #[must_use]
    pub fn secure(messages: &[&[u8]], psk: &[u8]) -> Self {
        GuestClient::Secure {
            messages: messages.iter().map(|m| m.to_vec()).collect(),
            psk: psk.to_vec(),
            tamper: Tamper::None,
        }
    }
}

/// What one client observed over its connection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClientOutcome {
    /// The secure channel reached `Established` (secure clients) or the
    /// TCP connection came up (plain/raw clients).
    pub established: bool,
    /// Plaintext echoed back through the channel (secure), or raw bytes
    /// echoed (plain).
    pub echoed: Vec<u8>,
    /// Every raw byte received over TCP, records and all.
    pub raw_rx: Vec<u8>,
    /// The guest ended the stream with an alert.
    pub peer_closed: bool,
    /// The client machine's sticky error, if it failed (`Debug` form).
    pub error: Option<String>,
}

/// Final values of one connection handle's guest-side counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnCounters {
    /// Handshakes completed on this handle.
    pub handshakes: u16,
    /// Data records accepted (MAC verified, padding valid).
    pub records_in: u16,
    /// Data records sent.
    pub records_out: u16,
    /// Fatal alerts raised.
    pub alerts: u16,
}

/// Labels for the guest's per-kind alert counters, indexed by the
/// firmware's `fail(h, w)` reason code: `w=0` the close alert (bad
/// record type/length, MAC or padding damage — what link-layer
/// corruption draws), `w=1` the unsupported-suite alert, `w=2` the
/// bad-Finished alert (wrong credential).
pub const ALERT_KIND_LABELS: [&str; 3] = ["close", "suite", "finished"];

enum Mode {
    Secure {
        echo: Box<EchoClient>,
        tamper: Tamper,
        tampered: bool,
    },
    Plain {
        msgs: Vec<Vec<u8>>,
        expected: usize,
        next_msg: usize,
        sent: usize,
    },
    /// A `Raw` client, or with `hang_up` a `HangUp` one.
    Raw {
        payload: Vec<u8>,
        hang_up: bool,
        sent: bool,
    },
}

/// One host-side client of a [`crate::fleet_serve`] run: its host, its
/// dial time, its socket once dialed, and what it has done so far.
pub(crate) struct FleetClient {
    host: SimHost,
    dial_at: u64,
    conn: Option<SocketId>,
    mode: Mode,
    out: ClientOutcome,
    /// The client has closed its side of the connection.
    closed: bool,
    fin: bool,
    reset: bool,
    /// The client has finished, successfully or not.
    pub(crate) done: bool,
}

/// Whether `rx` starts with one complete record.
fn record_complete(rx: &[u8]) -> bool {
    rx.len() >= recmap::HEADER_LEN
        && rx.len() >= recmap::HEADER_LEN + usize::from(u16::from_be_bytes([rx[1], rx[2]]))
}

impl FleetClient {
    /// Client `i` of a run, on `host`, dialing at `dial_at`. The PRNG
    /// seed depends only on the client index, so the same workload
    /// produces the same ClientHello bytes in every run.
    pub(crate) fn new(i: usize, client: &GuestClient, host: SimHost, dial_at: u64) -> FleetClient {
        let mode = match client {
            GuestClient::Secure {
                messages,
                psk,
                tamper,
            } => {
                let config = ClientConfig {
                    suite: CipherSuite::AES128,
                    kx: ClientKx::PreShared(psk.clone()),
                };
                let prng = Prng::new(0xC0DE + i as u64);
                Mode::Secure {
                    echo: Box::new(EchoClient::new(config, prng, messages.clone())),
                    tamper: *tamper,
                    tampered: false,
                }
            }
            GuestClient::Plain { messages } => Mode::Plain {
                msgs: messages.clone(),
                expected: messages.iter().map(Vec::len).sum(),
                next_msg: 0,
                sent: 0,
            },
            GuestClient::Raw { payload } | GuestClient::HangUp { payload } => Mode::Raw {
                payload: payload.clone(),
                hang_up: matches!(client, GuestClient::HangUp { .. }),
                sent: false,
            },
        };
        FleetClient {
            host,
            dial_at,
            conn: None,
            mode,
            out: ClientOutcome::default(),
            closed: false,
            fin: false,
            reset: false,
            done: false,
        }
    }

    /// Dials `server` if the client has not yet and its time has come.
    /// Returns the dial time of a client still waiting to dial.
    pub(crate) fn dial_if_due(&mut self, now: u64, server: Endpoint) -> Option<u64> {
        if self.conn.is_none() && now >= self.dial_at {
            self.conn = Some(self.host.connect(server));
        }
        self.conn.is_none().then_some(self.dial_at)
    }

    /// Whether the client has dialed and is not done: only a live client
    /// has anything to step.
    pub(crate) fn is_live(&self) -> bool {
        self.conn.is_some() && !self.done
    }

    /// What the client observed over its connection.
    pub(crate) fn into_outcome(self) -> ClientOutcome {
        let mut out = self.out;
        if let Mode::Secure { echo, .. } = self.mode {
            out.echoed = echo.echoed().to_vec();
        }
        out
    }

    /// One epoch of a live client: receive, advance, send, close.
    pub(crate) fn step(&mut self) {
        let Some(conn) = self.conn.filter(|_| !self.done) else {
            return;
        };
        let host = &mut self.host;
        let st = &mut self.out;
        let closed = &mut self.closed;
        // Drain the TCP receive buffer first; probe for the guest's FIN
        // when it is empty.
        let avail = host.available(conn);
        if avail > 0 {
            let mut buf = vec![0u8; avail];
            if let Recv::Data(n) = host.recv(conn, &mut buf) {
                buf.truncate(n);
                st.raw_rx.extend_from_slice(&buf);
                match &mut self.mode {
                    Mode::Secure { echo, .. } => {
                        // A failed feed leaves the sticky error, read below.
                        let _ = echo.feed(&buf);
                    }
                    Mode::Plain { .. } => st.echoed.extend_from_slice(&buf),
                    Mode::Raw { .. } => {}
                }
            }
        } else {
            match host.recv(conn, &mut [0u8; 1]) {
                Recv::Closed => self.fin = true,
                Recv::Reset => {
                    self.fin = true;
                    self.reset = true;
                }
                _ => {}
            }
        }
        let fin = self.fin;

        // Each mode says when its exchange has run its course; a FIN or
        // RST ends every client whatever its mode, below.
        let finished = match &mut self.mode {
            Mode::Secure {
                echo,
                tamper,
                tampered,
            } => {
                if let Some(e) = echo.error() {
                    st.error.get_or_insert_with(|| format!("{e:?}"));
                }
                st.established |= echo.is_established();
                st.peer_closed |= echo.is_peer_closed();
                let healthy = echo.is_established() && st.error.is_none() && !echo.is_peer_closed();
                if *tamper == Tamper::TruncateAfterHeader {
                    // In place of the first message: a data-record header
                    // promising one byte, then FIN.
                    if healthy && !*tampered {
                        host.send(conn, &[recmap::REC_DATA, 0, 1]);
                        host.close(conn);
                        *tampered = true;
                        *closed = true;
                    }
                } else {
                    // A failed write stalls the schedule; the session then
                    // ends by the guest's hand or the balancer's.
                    let _ = echo.step();
                }

                // Flush queued records (the ClientHello is queued before
                // the TCP handshake even completes).
                if echo.has_output() && !*closed && host.established(conn) {
                    let mut out = echo.take_output();
                    if *tamper == Tamper::FlipDataMac
                        && !*tampered
                        && out.first() == Some(&recmap::REC_DATA)
                    {
                        if let Some(last) = out.last_mut() {
                            *last ^= 0x01;
                        }
                        *tampered = true;
                    }
                    let n = host.send(conn, &out);
                    assert_eq!(n, out.len(), "client send fits the TCP buffer");
                }

                if echo.is_closing() && !*closed && !echo.has_output() {
                    host.close(conn);
                    *closed = true;
                }

                match tamper {
                    Tamper::None => *closed || st.error.is_some() || st.peer_closed,
                    Tamper::FlipDataMac => *tampered && (st.peer_closed || st.error.is_some()),
                    Tamper::TruncateAfterHeader => *tampered && st.peer_closed,
                }
            }
            Mode::Plain {
                msgs,
                expected,
                next_msg,
                sent,
            } => {
                st.established |= host.established(conn);
                if *next_msg < msgs.len() && st.echoed.len() == *sent && host.established(conn) {
                    let msg = &msgs[*next_msg];
                    assert_eq!(host.send(conn, msg), msg.len(), "client send fits");
                    *sent += msg.len();
                    *next_msg += 1;
                }
                if st.echoed.len() == *expected && !*closed {
                    host.close(conn);
                    *closed = true;
                }
                *closed
            }
            Mode::Raw {
                payload,
                hang_up,
                sent,
            } => {
                st.established |= host.established(conn);
                if !*sent && host.established(conn) {
                    let n = host.send(conn, payload);
                    assert_eq!(n, payload.len(), "raw send fits");
                    *sent = true;
                    if *hang_up {
                        // Disconnect mid-exchange: FIN right behind the
                        // payload.
                        host.close(conn);
                        *closed = true;
                    }
                }
                *sent && !*hang_up && record_complete(&st.raw_rx)
            }
        };

        // A FIN/RST before a secure or plain session ran its course (the
        // balancer aborted a stalled session, or the backend died) ends the
        // client with this error; a clean run sets `closed` or
        // `peer_closed` before the FIN is ever observed.
        let raw = matches!(self.mode, Mode::Raw { .. });
        if fin && !raw && !*closed && !st.peer_closed && st.error.is_none() {
            st.error = Some(if self.reset { "Reset" } else { "EarlyClose" }.to_string());
        }

        // The connection is gone: a client the peer closed or reset has
        // nothing left to wait for, whether or not its mode ran its
        // course (a tamper that never fired, a payload never sent).
        self.done = finished || fin;
        if self.done {
            host.close(conn); // idempotent
        }
    }
}

// ---------------------------------------------------------------------------
// Differential tests: the guest's 16-bit crypto vs the host reference
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fleet_serve, FleetSpec};
    use rabbit::Engine;

    /// The crypto half under a bare test `main`: mode 0 hashes
    /// `hbuf[0..hlen]`, mode 1 HMACs `hmsg` under `hkey`, mode 2 runs
    /// the KDF for session 0 from `psk` and `tbuf`.
    fn crypto_test_source() -> String {
        format!(
            "{}\nint mode;\n\
             int main() {{\n\
                 if (mode == 0) sha1_run();\n\
                 if (mode == 1) hmac_run();\n\
                 if (mode == 2) kdf_run(0);\n\
                 return 0;\n\
             }}\n",
            crypto_c()
        )
    }

    fn run_crypto(
        pokes: &[(&str, Vec<u8>)],
        mode: u16,
        reads: &[(&str, usize)],
    ) -> Vec<Vec<u8>> {
        let build = dcc::build(&crypto_test_source(), dcc::Options::all_optimizations())
            .expect("crypto C compiles");
        let (mut cpu, mut mem) = build.machine();
        for (name, bytes) in pokes {
            build.write_bytes(&mut mem, name, bytes);
        }
        build.write_bytes(&mut mem, "_mode", &mode.to_le_bytes());
        build
            .run_prepared(&mut cpu, &mut mem, 400_000_000)
            .expect("crypto C halts");
        reads
            .iter()
            .map(|(name, len)| build.read_bytes(&mem, name, *len))
            .collect()
    }

    #[test]
    fn guest_sha1_matches_reference() {
        for (case, len) in [0usize, 1, 55, 56, 64, 129].into_iter().enumerate() {
            let data: Vec<u8> = (0..len)
                .map(|k| (k as u8).wrapping_mul(31).wrapping_add(case as u8 * 7 + 5))
                .collect();
            let out = run_crypto(
                &[
                    ("_hbuf", data.clone()),
                    ("_hlen", (len as u16).to_le_bytes().to_vec()),
                ],
                0,
                &[("_dig", 20)],
            );
            assert_eq!(out[0], crypto::sha1(&data).to_vec(), "len {len}");
        }
    }

    #[test]
    fn guest_hmac_matches_reference() {
        for (klen, mlen) in [(20usize, 13usize), (64, 0), (5, 100), (32, 64)] {
            let key: Vec<u8> = (0..klen).map(|k| (k as u8).wrapping_mul(17).wrapping_add(3)).collect();
            let msg: Vec<u8> = (0..mlen).map(|k| (k as u8).wrapping_mul(7).wrapping_add(11)).collect();
            let out = run_crypto(
                &[
                    ("_hkey", key.clone()),
                    ("_hklen", (klen as u16).to_le_bytes().to_vec()),
                    ("_hmsg", msg.clone()),
                    ("_hmlen", (mlen as u16).to_le_bytes().to_vec()),
                ],
                1,
                &[("_dig", 20)],
            );
            assert_eq!(
                out[0],
                crypto::hmac_sha1(&key, &msg).to_vec(),
                "klen {klen} mlen {mlen}"
            );
        }
    }

    #[test]
    fn guest_kdf_matches_reference() {
        let psk = b"rmc2000 shared secret";
        // Transcript slot 0: ClientHello body (18) then ServerHello body (22).
        let tbuf: Vec<u8> = (0..40u8).map(|k| k.wrapping_mul(13).wrapping_add(1)).collect();
        let cn = &tbuf[2..18];
        let sn = &tbuf[20..36];
        let out = run_crypto(
            &[
                ("_psk", psk.to_vec()),
                ("_psklen", (psk.len() as u16).to_le_bytes().to_vec()),
                ("_tbuf", tbuf.clone()),
            ],
            2,
            &[("_ckey", 16), ("_skey", 16), ("_cmac", 20), ("_smac", 20)],
        );
        let keys = issl::kdf::derive_session_keys(psk, cn, sn, 16);
        assert_eq!(out[0], keys.client_write_key, "client write key");
        assert_eq!(out[1], keys.server_write_key, "server write key");
        assert_eq!(out[2], keys.client_mac_key, "client MAC key");
        assert_eq!(out[3], keys.server_mac_key, "server MAC key");
    }

    #[test]
    fn secure_firmware_compiles_and_links_under_both_option_sets() {
        for opts in [dcc::Options::baseline(), dcc::Options::all_optimizations()] {
            let build = build_secure_firmware(opts);
            for sym in ["_nic_isr", "_ser_isr", "_sha1_run", "_aes_enc", "_aes_dec"] {
                assert!(build.symbol_phys(sym).is_some(), "symbol {sym}");
            }
            assert!(
                build
                    .image
                    .sections
                    .iter()
                    .any(|s| s.addr == NIC_VECTOR && s.bytes[0] == 0xC3),
                "NIC vector holds a jp"
            );
        }
    }

    #[test]
    fn serves_one_secure_client_end_to_end() {
        let psk = b"paper psk";
        let r = fleet_serve(&FleetSpec::new(
            Engine::Interpreter,
            1,
            psk,
            vec![GuestClient::secure(&[b"secure echo!"], psk)],
        ));
        assert_eq!(r.outcomes[0].echoed, b"secure echo!".to_vec());
        assert!(r.outcomes[0].established);
        assert_eq!(r.outcomes[0].error, None);
        let b = &r.boards[0];
        assert_eq!(b.conns[0].handshakes, 1);
        assert_eq!(b.conns[0].records_in, 1);
        assert_eq!(b.conns[0].records_out, 1);
        assert_eq!(b.conns[0].alerts, 0);
        assert_eq!(b.accepts, 1);
        assert_eq!(b.open, 0, "teardown closed the handle");
        assert!(r.snapshot.contains("board0.issl.guest.handshakes"));
    }
}
