// A table GHASH cut to 64 bits, shaped like the one gcm.rs dropped:
// the accumulator `y` starts from the key's tables and each block
// goes through `mul_table(t4, y ^ c)`. Every index below is a byte of
// a value that depends on the key, so every lookup leaks it.
static R8: [u64; 256] = [0; 256];

pub struct GhashKey {
    tables: [[u64; 256]; 4],
}

pub fn absorb(ghash_key: &GhashKey, blocks: &[u64]) -> u64 {
    let [t1, _, _, t4] = &ghash_key.tables;
    let mut y = t1[0x80];
    for &c in blocks {
        y = mul_table(t4, y ^ c);
    }
    y
}

fn mul_table(table: &[u64; 256], x: u64) -> u64 {
    let bytes = x.to_be_bytes();
    let mut z = 0;
    for i in (0..8).rev() {
        let rem = (z & 0xff) as usize;
        z = (z >> 8) ^ R8[rem];
        z ^= table[bytes[i] as usize];
    }
    z
}
