//! SHA-2 hash functions (FIPS 180-4): SHA-256, SHA-384, SHA-512.
//!
//! Implemented as incremental hashers so the TLS transcript hash can be
//! forked mid-handshake (mbTLS attests the running transcript).
//!
//! SHA-384 and SHA-512 share one compression function with two cores
//! behind it, chosen at run time ([`backend_name`] says which): the
//! x86_64 kernel in `sha512_x86` (AVX-512VL message schedule, BMI2
//! rounds) where the CPU has it, and a portable core in safe Rust
//! everywhere else. Both run the same eight-round unroll and agree
//! bit for bit.

use crate::ct;

/// Common interface over the SHA-2 family, so HMAC, the PRF and the
/// TLS layer are written once over whichever hash the cipher suite
/// negotiates.
pub trait Hash: Clone {
    /// Digest length in bytes.
    const OUTPUT_LEN: usize;
    /// Internal block length in bytes (HMAC needs this).
    const BLOCK_LEN: usize;
    /// The digest, a `[u8; OUTPUT_LEN]`: it leaves the hasher by
    /// value, with no allocation.
    type Output: AsRef<[u8]> + AsMut<[u8]> + Copy;
    /// Create a fresh hasher.
    fn new() -> Self;
    /// Absorb `data`.
    fn update(&mut self, data: &[u8]);
    /// Finish and produce the digest, leaving the hasher as [`new`]
    /// makes it (nothing of the message stays behind). Clone first to
    /// keep a running transcript.
    ///
    /// [`new`]: Hash::new
    fn finalize(&mut self) -> Self::Output;
    /// Zero the chaining state and the buffered input in place. A
    /// hasher that absorbed secret bytes (an HMAC pad, a PRF chain
    /// value) holds them, or a value as good as them, until this runs.
    fn wipe(&mut self);
}

const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Sha256 {
    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, c) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K256[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Hash for Sha256 {
    const OUTPUT_LEN: usize = 32;
    const BLOCK_LEN: usize = 64;
    type Output = [u8; 32];

    fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                Self::compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk() {
            Self::compress(&mut self.state, block);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn finalize(&mut self) -> [u8; 32] {
        // Padding, written where it goes: 0x80, zeros to the length
        // field, the 8-byte big-endian bit length. `buf_len < 64`
        // always, so the 0x80 fits; the length may need a second block.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            Self::compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        Self::compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        *self = Self::new();
        out
    }

    fn wipe(&mut self) {
        ct::zeroize(&mut self.state);
        ct::zeroize(&mut self.buf);
        self.buf_len = 0;
    }
}

pub(crate) const K512: [u64; 80] = [
    0x428a2f98d728ae22, 0x7137449123ef65cd, 0xb5c0fbcfec4d3b2f, 0xe9b5dba58189dbbc,
    0x3956c25bf348b538, 0x59f111f1b605d019, 0x923f82a4af194f9b, 0xab1c5ed5da6d8118,
    0xd807aa98a3030242, 0x12835b0145706fbe, 0x243185be4ee4b28c, 0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f, 0x80deb1fe3b1696b1, 0x9bdc06a725c71235, 0xc19bf174cf692694,
    0xe49b69c19ef14ad2, 0xefbe4786384f25e3, 0x0fc19dc68b8cd5b5, 0x240ca1cc77ac9c65,
    0x2de92c6f592b0275, 0x4a7484aa6ea6e483, 0x5cb0a9dcbd41fbd4, 0x76f988da831153b5,
    0x983e5152ee66dfab, 0xa831c66d2db43210, 0xb00327c898fb213f, 0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2, 0xd5a79147930aa725, 0x06ca6351e003826f, 0x142929670a0e6e70,
    0x27b70a8546d22ffc, 0x2e1b21385c26c926, 0x4d2c6dfc5ac42aed, 0x53380d139d95b3df,
    0x650a73548baf63de, 0x766a0abb3c77b2a8, 0x81c2c92e47edaee6, 0x92722c851482353b,
    0xa2bfe8a14cf10364, 0xa81a664bbc423001, 0xc24b8b70d0f89791, 0xc76c51a30654be30,
    0xd192e819d6ef5218, 0xd69906245565a910, 0xf40e35855771202a, 0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8, 0x1e376c085141ab53, 0x2748774cdf8eeb99, 0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63, 0x4ed8aa4ae3418acb, 0x5b9cca4f7763e373, 0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc, 0x78a5636f43172f60, 0x84c87814a1f0ab72, 0x8cc702081a6439ec,
    0x90befffa23631e28, 0xa4506cebde82bde9, 0xbef9a3f7b2c67915, 0xc67178f2e372532b,
    0xca273eceea26619c, 0xd186b8c721c0c207, 0xeada7dd6cde0eb1e, 0xf57d4f7fee6ed178,
    0x06f067aa72176fba, 0x0a637dc5a2c898a6, 0x113f9804bef90dae, 0x1b710b35131c471b,
    0x28db77f523047d84, 0x32caab7b40c72493, 0x3c9ebe0a15c9bebc, 0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6, 0x597f299cfc657e2a, 0x5fcb6fab3ad6faec, 0x6c44198c4a475817,
];

/// The SHA-512 compression cores. Each computes the same function of
/// `(state, block)`, bit for bit.
#[derive(Clone, Copy)]
enum Core {
    /// [`compress_portable`], in safe Rust, on any CPU.
    Portable,
    /// The AVX-512VL message schedule with BMI2 rounds
    /// (`sha512_x86`), where the CPU has them.
    #[cfg(target_arch = "x86_64")]
    Avx512(crate::sha512_x86::Kernel),
}

impl Core {
    /// The fastest core this CPU runs. The feature tests read the
    /// standard library's cached detection, so this costs a few loads.
    fn detect() -> Core {
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = crate::sha512_x86::Kernel::detect() {
            return Core::Avx512(kernel);
        }
        Core::Portable
    }

    /// The core every compression runs: [`Core::detect`]'s, or in a
    /// test the one it pinned.
    fn selected() -> Core {
        #[cfg(test)]
        if let Some(core) = tests::PINNED.get() {
            return core;
        }
        Core::detect()
    }

    fn name(self) -> &'static str {
        match self {
            Core::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Core::Avx512(_) => "avx512vl-bmi2",
        }
    }

    #[inline(always)]
    fn compress(self, state: &mut [u64; 8], block: &[u8; 128]) {
        match self {
            Core::Portable => compress_portable(state, block),
            #[cfg(target_arch = "x86_64")]
            Core::Avx512(kernel) => kernel.compress(state, block),
        }
    }
}

/// Which SHA-512 compression core SHA-384 and SHA-512 run on this
/// machine: `"avx512vl-bmi2"` (AVX-512F, AVX-512VL, BMI2 and SSSE3
/// detected) or `"portable"`. For labelling measurements, as
/// [`crate::gcm::backend_name`] does for AES-GCM.
pub fn backend_name() -> &'static str {
    Core::detect().name()
}

/// One SHA-512 compression in safe Rust. The message schedule is a
/// ring of sixteen words: from round 16 on, each group of eight rounds
/// first overwrites its eight words with the ones sixteen rounds on,
/// so no 80-word schedule is filled ahead of the rounds.
fn compress_portable(state: &mut [u64; 8], block: &[u8; 128]) {
    let mut w = [0u64; 16];
    for (w, bytes) in w.iter_mut().zip(block.as_chunks().0) {
        *w = u64::from_be_bytes(*bytes);
    }
    let mut v = *state;
    let (k, _) = K512.as_chunks::<8>();
    eight_rounds(&mut v, &plus_constants(&w, 0, &k[0]));
    eight_rounds(&mut v, &plus_constants(&w, 8, &k[1]));
    for k in k[2..].as_chunks::<2>().0 {
        next_words(&mut w, 0);
        eight_rounds(&mut v, &plus_constants(&w, 0, &k[0]));
        next_words(&mut w, 8);
        eight_rounds(&mut v, &plus_constants(&w, 8, &k[1]));
    }
    for (s, v) in state.iter_mut().zip(v) {
        *s = s.wrapping_add(v);
    }
}

/// Schedule words `w[first..first + 8]`, each plus its round constant.
#[inline(always)]
fn plus_constants(w: &[u64; 16], first: usize, k: &[u64; 8]) -> [u64; 8] {
    std::array::from_fn(|i| w[first + i].wrapping_add(k[i]))
}

/// Overwrite `w[first..first + 8]`, words W[t - 16], with words W[t]:
/// W[t] = W[t - 16] + σ0(W[t - 15]) + W[t - 7] + σ1(W[t - 2]), the
/// ring's indices taken modulo 16.
#[inline(always)]
fn next_words(w: &mut [u64; 16], first: usize) {
    for t in first..first + 8 {
        let w15 = w[(t + 1) % 16];
        let w2 = w[(t + 14) % 16];
        let s0 = w15.rotate_right(1) ^ w15.rotate_right(8) ^ (w15 >> 7);
        let s1 = w2.rotate_right(19) ^ w2.rotate_right(61) ^ (w2 >> 6);
        w[t] = w[t].wrapping_add(s0).wrapping_add(w[(t + 9) % 16]).wrapping_add(s1);
    }
}

/// Eight SHA-512 rounds over the working variables `v`, round `i`
/// adding `wk[i]` (its schedule word plus its round constant). The
/// variables are renamed from round to round instead of shifted, so
/// each round writes two of them (`d` and `h`) and no value moves;
/// after eight renamings every name is back in its place. Both cores
/// inline this: compiled with BMI2 every rotate is a `RORX`.
#[inline(always)]
pub(crate) fn eight_rounds(v: &mut [u64; 8], wk: &[u64; 8]) {
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $wk:expr) => {
            let s1 = $e.rotate_right(14) ^ $e.rotate_right(18) ^ $e.rotate_right(41);
            let ch = $g ^ ($e & ($f ^ $g));
            let t1 = $h.wrapping_add(s1).wrapping_add(ch).wrapping_add($wk);
            let s0 = $a.rotate_right(28) ^ $a.rotate_right(34) ^ $a.rotate_right(39);
            let maj = $b ^ (($a ^ $b) & ($b ^ $c));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        };
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *v;
    round!(a, b, c, d, e, f, g, h, wk[0]);
    round!(h, a, b, c, d, e, f, g, wk[1]);
    round!(g, h, a, b, c, d, e, f, wk[2]);
    round!(f, g, h, a, b, c, d, e, wk[3]);
    round!(e, f, g, h, a, b, c, d, wk[4]);
    round!(d, e, f, g, h, a, b, c, wk[5]);
    round!(c, d, e, f, g, h, a, b, wk[6]);
    round!(b, c, d, e, f, g, h, a, wk[7]);
    *v = [a, b, c, d, e, f, g, h];
}

/// Incremental SHA-512 core, reused for SHA-384 via different IV.
#[derive(Clone)]
struct Sha512Core {
    state: [u64; 8],
    buf: [u8; 128],
    buf_len: usize,
    total_len: u128,
}

impl Sha512Core {
    fn with_iv(iv: [u64; 8]) -> Self {
        Sha512Core {
            state: iv,
            buf: [0; 128],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One compression, on the core [`Core::selected`] names. Kept out
    /// of line: inlining the unrolled rounds into every `update` and
    /// `finish` moved the layout of unrelated hot code.
    #[inline(never)]
    fn compress(state: &mut [u64; 8], block: &[u8; 128]) {
        Core::selected().compress(state, block);
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        if self.buf_len > 0 {
            let take = (128 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 128 {
                Self::compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk() {
            Self::compress(&mut self.state, block);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Pad in place (as [`Sha256::finalize`], with a 16-byte length at
    /// 112) and return the first `N` bytes of the state: 64 for
    /// SHA-512, 48 for SHA-384. The core is spent afterwards; both
    /// wrappers replace it.
    fn finish<const N: usize>(&mut self) -> [u8; N] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 112 {
            Self::compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[112..].copy_from_slice(&bit_len.to_be_bytes());
        Self::compress(&mut self.state, &self.buf);
        let mut out = [0u8; N];
        for (o, w) in out.chunks_exact_mut(8).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn wipe(&mut self) {
        ct::zeroize(&mut self.state);
        ct::zeroize(&mut self.buf);
        self.buf_len = 0;
    }
}

/// Incremental SHA-512.
#[derive(Clone)]
pub struct Sha512(Sha512Core);

impl Sha512 {
    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; 64] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

impl Hash for Sha512 {
    const OUTPUT_LEN: usize = 64;
    const BLOCK_LEN: usize = 128;
    type Output = [u8; 64];

    fn new() -> Self {
        Sha512(Sha512Core::with_iv([
            0x6a09e667f3bcc908, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
            0x510e527fade682d1, 0x9b05688c2b3e6c1f, 0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
        ]))
    }

    fn update(&mut self, data: &[u8]) {
        self.0.update(data);
    }

    fn finalize(&mut self) -> [u8; 64] {
        let out = self.0.finish();
        *self = Self::new();
        out
    }

    fn wipe(&mut self) {
        self.0.wipe();
    }
}

/// Incremental SHA-384 (SHA-512 with a different IV, truncated).
#[derive(Clone)]
pub struct Sha384(Sha512Core);

impl Sha384 {
    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; 48] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

impl Hash for Sha384 {
    const OUTPUT_LEN: usize = 48;
    const BLOCK_LEN: usize = 128;
    type Output = [u8; 48];

    fn new() -> Self {
        Sha384(Sha512Core::with_iv([
            0xcbbb9d5dc1059ed8, 0x629a292a367cd507, 0x9159015a3070dd17, 0x152fecd8f70e5939,
            0x67332667ffc00b31, 0x8eb44a8768581511, 0xdb0c2e0d64f98fa7, 0x47b5481dbefa4fa4,
        ]))
    }

    fn update(&mut self, data: &[u8]) {
        self.0.update(data);
    }

    fn finalize(&mut self) -> [u8; 48] {
        let out = self.0.finish();
        *self = Self::new();
        out
    }

    fn wipe(&mut self) {
        self.0.wipe();
    }
}

/// What `wipe` must zero, for the drop probes of types that hold a
/// hasher ([`crate::hmac::Hmac`]).
#[cfg(test)]
impl Sha256 {
    pub(crate) fn secret_fields(&self) -> Vec<Vec<u8>> {
        let state = self.state.iter().flat_map(|w| w.to_be_bytes()).collect();
        vec![state, self.buf.to_vec()]
    }
}

#[cfg(test)]
impl Sha384 {
    pub(crate) fn secret_fields(&self) -> Vec<Vec<u8>> {
        let state = self.0.state.iter().flat_map(|w| w.to_be_bytes()).collect();
        vec![state, self.0.buf.to_vec()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// The core [`Core::selected`] returns on this test's thread,
        /// when set.
        pub(super) static PINNED: Cell<Option<Core>> = const { Cell::new(None) };
    }

    /// Every SHA-512 core this CPU runs.
    fn every_core() -> Vec<Core> {
        let mut cores = vec![Core::Portable];
        #[cfg(target_arch = "x86_64")]
        match crate::sha512_x86::Kernel::detect() {
            Some(kernel) => cores.push(Core::Avx512(kernel)),
            None => eprintln!("skipped: this CPU cannot run the avx512vl-bmi2 core"),
        }
        cores
    }

    /// Run `test` once per core, with every SHA-384/512 compression on
    /// this thread pinned to it, and lift the pin afterwards. `test`
    /// gets the core's name for its messages.
    fn on_every_core(test: impl Fn(&str)) {
        for core in every_core() {
            PINNED.set(Some(core));
            test(core.name());
        }
        PINNED.set(None);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / NIST CAVP short-message vectors.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split {split}");
        }
    }

    #[test]
    fn sha512_abc() {
        on_every_core(|core| {
            assert_eq!(
                hex(&Sha512::digest(b"abc")),
                "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
                 2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
                "{core}"
            );
        });
    }

    #[test]
    fn sha512_empty() {
        on_every_core(|core| {
            assert_eq!(
                hex(&Sha512::digest(b"")),
                "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
                 47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e",
                "{core}"
            );
        });
    }

    #[test]
    fn sha384_abc() {
        on_every_core(|core| {
            assert_eq!(
                hex(&Sha384::digest(b"abc")),
                "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed\
                 8086072ba1e7cc2358baeca134c825a7",
                "{core}"
            );
        });
    }

    #[test]
    fn sha384_two_block() {
        on_every_core(|core| {
            assert_eq!(
                hex(&Sha384::digest(
                    b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                      hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                )),
                "09330c33f71147e83d192fc782cd1b4753111b173b3b05d22fa08086e3b0f712\
                 fcc7c71a557e2db966c3e9fa91746039",
                "{core}"
            );
        });
    }

    #[test]
    fn sha512_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        for split in [0usize, 1, 127, 128, 129, 255, 4095] {
            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha512::digest(&data), "split {split}");
        }
    }

    fn digest_of<H: Hash>(data: &[u8]) -> H::Output {
        let mut h = H::new();
        h.update(data);
        h.finalize()
    }

    /// Every message length 0..=300 — across the one-block/two-block
    /// padding boundaries at 55/56/63/64 (SHA-256) and 111/112/127/128
    /// (SHA-384/512) — folded into one running digest.
    fn length_sweep<H: Hash>() -> String {
        let mut running = H::new();
        for n in 0..=300usize {
            let msg: Vec<u8> = (0..n).map(|i| ((7 * i + n) % 251) as u8).collect();
            running.update(digest_of::<H>(&msg).as_ref());
        }
        hex(running.finalize().as_ref())
    }

    // The constants are this machine's Python hashlib, name in
    // ("sha256", "sha384", "sha512"):
    //
    //   run = hashlib.new(name)
    //   for n in range(301):
    //       msg = bytes((7 * i + n) % 251 for i in range(n))
    //       run.update(hashlib.new(name, msg).digest())
    //   print(run.hexdigest())
    #[test]
    fn every_length_to_300_matches_hashlib() {
        assert_eq!(
            length_sweep::<Sha256>(),
            "d2606c72e64eadacbe60c817c8a74d1c658cc446db20c6735634c2665c7d7cf6"
        );
        on_every_core(|core| {
            assert_eq!(
                length_sweep::<Sha384>(),
                "adb2df514e067156d397426ad83db629864f2b09ad5c097317a61616408b694e\
                 f2920b20983065f08b04a9f5eee47d9c",
                "{core}"
            );
            assert_eq!(
                length_sweep::<Sha512>(),
                "2aa0968ab16975944406ccb412600eaa63db990b5c27cd067aaec2d4ad3a51d7\
                 94360c474ae14ce1c0143e5dede30aa44245426319a66e4ac3d7d23af1b25636",
                "{core}"
            );
        });
    }

    fn every_split_matches_oneshot<H: Hash>() {
        let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let whole = digest_of::<H>(&data);
        for split in 0..=data.len() {
            let mut h = H::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize().as_ref(), whole.as_ref(), "split {split}");
        }
    }

    #[test]
    fn every_split_of_300_bytes_matches_oneshot() {
        every_split_matches_oneshot::<Sha256>();
        on_every_core(|_| {
            every_split_matches_oneshot::<Sha384>();
            every_split_matches_oneshot::<Sha512>();
        });
    }

    // The x86 core against the portable one on seeded random chaining
    // states and blocks: any state, not only those a message reaches.
    #[test]
    fn every_core_matches_portable_on_random_states_and_blocks() {
        let mut rng = crate::rng::CryptoRng::from_seed(0x5A51_2C0D);
        let cores = every_core();
        for pair in 0..10_000 {
            let state: [u64; 8] = std::array::from_fn(|_| rng.next_u64());
            let block: [u8; 128] = rng.gen_array();
            let mut expected = state;
            compress_portable(&mut expected, &block);
            for core in &cores {
                let mut got = state;
                core.compress(&mut got, &block);
                assert_eq!(got, expected, "{} on pair {pair}", core.name());
            }
        }
    }

    // `compress` must run the x86 core exactly when the CPU reports
    // all four of its features, and the label must say which ran.
    #[test]
    fn backend_selection_follows_detection() {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            let x86 = is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("bmi2")
                && is_x86_feature_detected!("ssse3");
            assert_eq!(matches!(Core::selected(), Core::Avx512(_)), x86);
            assert_eq!(backend_name(), if x86 { "avx512vl-bmi2" } else { "portable" });
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(backend_name(), "portable");
    }

    #[test]
    fn finalize_leaves_a_fresh_hasher() {
        let mut h = Sha384::new();
        h.update(b"first message");
        h.finalize();
        h.update(b"abc");
        assert_eq!(h.finalize(), Sha384::digest(b"abc"));
    }

    #[test]
    fn wipe_zeroes_state_and_buffer() {
        let mut h = Sha256::new();
        h.update(&[0xa5; 70]);
        h.wipe();
        assert!(h.secret_fields().concat().iter().all(|&b| b == 0));
        let mut h = Sha384::new();
        h.update(&[0xa5; 140]);
        h.wipe();
        assert!(h.secret_fields().concat().iter().all(|&b| b == 0));
    }
}
