pub fn first(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) }
}

pub unsafe fn raw(p: *const u8) -> u8 {
    *p
}

pub struct Handle(*mut u8);
unsafe impl Send for Handle {}

pub fn wipe(b: &mut u8) {
    // lint:allow(unsafe-confinement) -- annotated, so reported but not blocking
    unsafe { std::ptr::write_volatile(b, 0) };
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_reach_for_it() {
        let x = 7u8;
        assert_eq!(unsafe { super::raw(&x) }, 7);
    }
}
