//! Microbenchmarks of the crypto substrate: the cost components that
//! make up the Figure 5 handshake numbers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mbtls_crypto::dh::DhSecret;
use mbtls_crypto::ed25519::SigningKey;
use mbtls_crypto::gcm::AesGcm;
use mbtls_crypto::rng::CryptoRng;
use mbtls_crypto::sha2::Sha256;
use mbtls_crypto::x25519::SecretKey;

fn bench_kex(c: &mut Criterion) {
    let mut group = c.benchmark_group("key_exchange");
    group.sample_size(20);
    // Two rows because they are two code paths: key generation runs
    // on the Ed25519 fixed-base comb, the agreement on the ladder.
    group.bench_function("x25519_keygen", |b| {
        let mut rng = CryptoRng::from_seed(1);
        b.iter(|| std::hint::black_box(SecretKey::generate(&mut rng).public_key()));
    });
    group.bench_function("x25519_dh", |b| {
        let mut rng = CryptoRng::from_seed(1);
        let peer = SecretKey::generate(&mut rng).public_key();
        let sk = SecretKey::generate(&mut rng);
        b.iter(|| std::hint::black_box(sk.diffie_hellman(std::hint::black_box(&peer)).unwrap()));
    });
    group.bench_function("ffdhe2048_keygen_plus_dh", |b| {
        let mut rng = CryptoRng::from_seed(2);
        let peer = DhSecret::generate(&mut rng).public_value();
        b.iter(|| {
            let sk = DhSecret::generate(&mut rng);
            std::hint::black_box(sk.diffie_hellman(&peer).unwrap())
        });
    });
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let mut group = c.benchmark_group("ed25519");
    group.sample_size(20);
    let mut rng = CryptoRng::from_seed(3);
    let key = SigningKey::generate(&mut rng);
    let msg = [0x42u8; 256];
    let sig = key.sign(&msg);
    group.bench_function("sign_256B", |b| b.iter(|| std::hint::black_box(key.sign(&msg))));
    group.bench_function("verify_256B", |b| {
        b.iter(|| {
            key.verifying_key().verify(&msg, &sig).unwrap();
            std::hint::black_box(())
        })
    });
    group.finish();
}

fn bench_bulk(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulk_crypto");
    let gcm = AesGcm::new(&[7u8; 32]).unwrap();
    let payload = vec![0xA5u8; 16 * 1024];
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("aes256gcm_seal_16k", |b| {
        b.iter(|| std::hint::black_box(gcm.seal(&[1u8; 12], b"aad", &payload).unwrap()))
    });
    group.bench_function("sha256_16k", |b| {
        b.iter(|| std::hint::black_box(Sha256::digest(&payload)))
    });
    group.finish();
}

criterion_group!(benches, bench_kex, bench_signatures, bench_bulk);
criterion_main!(benches);
