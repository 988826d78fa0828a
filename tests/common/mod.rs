//! Helpers more than one integration test shares. Each test target
//! compiles this module on its own (`mod common;`).

/// 64-bit FNV-1a over each value's bit pattern, one word at a time: one
/// number that changes if any bit of any cell does, so two fields compare
/// bit for bit.
pub fn field_digest(field: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in field {
        h = (h ^ v.to_bits()).wrapping_mul(0x100000001b3);
    }
    h
}
