#![forbid(unsafe_code)]

// Nothing here is unsafe { ... }, whatever the comments say.
pub fn first(v: &[u8]) -> Option<u8> {
    v.first().copied()
}

pub const NOTE: &str = "unsafe { *p }";

pub fn not_unsafe_at_all(unsafe_looking: u8) -> u8 {
    unsafe_looking
}
