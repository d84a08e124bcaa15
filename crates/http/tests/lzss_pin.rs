//! Output pin for the LZSS compressor: the bytes `lzss_compress`
//! emits are folded into one FNV-1a digest, which must equal
//! [`PINNED`]. The match finder behind it may be restructured; the
//! tokens it chooses may not move.
//!
//! The inputs are every body of the `response_for` population the
//! repo benchmark's `http_small` workload draws from (the distinct
//! targets among the first [`POPULATION`] requests of
//! `RequestMix::new(POPULATION_SEED)`, in first-seen order), then edge
//! inputs around the format's limits (empty, 1–4 bytes, 18/19 bytes,
//! one window ± 1 byte, single-byte runs, a 2-bit alphabet,
//! incompressible noise) and a 20 KB body whose matches slide past the
//! window. The constant was captured before the compressor's tables
//! were made reusable and is never edited.

use mbtls_http::compress::{lzss_compress, lzss_decompress};
use mbtls_http::message::Request;
use mbtls_http::workload::{html_body, response_for, splitmix64, RequestMix};

/// `HTTP_POPULATION_SEED` in `benchmark/src/seam.rs`: the seed that
/// fixes which targets `http_small` requests.
const POPULATION_SEED: u64 = 0x5EED_0F7A_26E7_5000;
/// `http_small`'s warm-up plus timed requests.
const POPULATION: usize = 2100;

const PINNED: u64 = 0x890e_5c74_9adb_e474;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn absorb(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len).map(|_| splitmix64(&mut state) as u8).collect()
}

/// The `http_small` bodies, in first-seen order.
fn workload_bodies() -> Vec<Vec<u8>> {
    let mut mix = RequestMix::new(POPULATION_SEED);
    let mut seen = std::collections::HashSet::new();
    (0..POPULATION)
        .map(|_| mix.next_request().target)
        .filter(|target| seen.insert(target.clone()))
        .map(|target| response_for(&Request::get(&target, "chain.example")).body)
        .collect()
}

fn edge_inputs() -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = vec![Vec::new()];
    for len in [1, 2, 3, 4, 18, 19, 4095, 4096, 4097] {
        inputs.push(b"abcabcab".iter().copied().cycle().take(len).collect());
        inputs.push(vec![b'z'; len]);
        inputs.push(noise(len as u64, len));
    }
    // Single-byte runs of every length around a token's reach, then
    // one long run.
    for len in 17..=40 {
        inputs.push(vec![0; len]);
    }
    inputs.push(vec![0xFF; 10_000]);
    // A 2-bit alphabet: every 3-byte prefix recurs, chains fill up and
    // the 32-candidate limit bites.
    let mut state = 0x2B17;
    inputs.push((0..6000).map(|_| b"ACGT"[(splitmix64(&mut state) % 4) as usize]).collect());
    inputs.push(noise(0x0015_E5E5, 5000));
    // 20 KB of pages that repeat at distances below, at and beyond the
    // 4096-byte window.
    let mut sliding = html_body(7, 4000);
    sliding.extend_from_slice(&html_body(8, 96));
    sliding.extend_from_slice(&html_body(7, 4000));
    sliding.extend_from_slice(&noise(9, 4200));
    sliding.extend_from_slice(&html_body(7, 4000));
    sliding.extend_from_slice(&html_body(10, 20_000 - sliding.len()));
    inputs.push(sliding);
    inputs
}

#[test]
fn lzss_output_is_pinned() {
    let bodies = workload_bodies();
    assert!(bodies.len() > 100, "{} distinct bodies", bodies.len());
    let mut digest = Fnv::new();
    for input in bodies.iter().chain(&edge_inputs()) {
        let compressed = lzss_compress(input);
        assert_eq!(&lzss_decompress(&compressed).unwrap(), input);
        digest.absorb(&(compressed.len() as u64).to_le_bytes());
        digest.absorb(&compressed);
    }
    assert_eq!(digest.0, PINNED, "digest {:#018x}", digest.0);
}
