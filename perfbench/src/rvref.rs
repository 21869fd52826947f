//! The bundled RV64I kernels, and the results each must publish, computed
//! here from the kernels' stated algorithms rather than from the emulator.

use std::sync::Arc;

use hdsmt_riscv::{RvImage, RvTraceSource};
use hdsmt_trace::TraceSource;

/// `(name, assembly)` of the kernels the simulator bundles as `rv:<name>`.
pub const KERNELS: &[(&str, &str)] = &[
    ("sum", include_str!("../../crates/riscv/programs/sum.asm")),
    ("matmul", include_str!("../../crates/riscv/programs/matmul.asm")),
    ("fib", include_str!("../../crates/riscv/programs/fib.asm")),
    ("sort", include_str!("../../crates/riscv/programs/sort.asm")),
    ("prime", include_str!("../../crates/riscv/programs/prime.asm")),
];

fn fib(n: u64) -> u64 {
    let (mut a, mut b) = (1u64, 1u64);
    for _ in 2..n {
        (a, b) = (b, a + b);
    }
    b
}

fn primes_up_to(limit: usize) -> u64 {
    let mut composite = vec![false; limit + 1];
    let mut count = 0;
    for n in 2..=limit {
        if !composite[n] {
            count += 1;
            for m in (n * n..=limit).step_by(n) {
                composite[m] = true;
            }
        }
    }
    count
}

/// sort.asm: 96 keys from the LCG `x = x * 1103515245 + 12345` (64-bit
/// wrapping, seed 12345), key = bits 16..31 of `x`; sorted ascending, then
/// the checksum `sum(a[i] * i)`.
fn sort_checksum() -> u64 {
    let mut x = 12345u64;
    let mut keys: Vec<u64> = (0..96)
        .map(|_| {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12345);
            (x >> 16) & 0x7fff
        })
        .collect();
    keys.sort_unstable();
    keys.iter().enumerate().fold(0u64, |s, (i, &k)| s.wrapping_add(k.wrapping_mul(i as u64)))
}

/// `(byte address, 64-bit little-endian value)` pairs a kernel must leave
/// in its data memory at the end of one lap.
pub fn expected(name: &str) -> Vec<(usize, u64)> {
    match name {
        "fib" => vec![(4096, fib(16))],
        "sum" => vec![(16384, (0..64u64).map(|i| i + 2 * i).sum())],
        "prime" => vec![(4096, primes_up_to(600))],
        "sort" => vec![(8192, sort_checksum())],
        // c = a * b with a = b = I (12 x 12) at 12288: the identity again.
        "matmul" => (0..144).map(|k| (12288 + 8 * k, u64::from(k / 12 == k % 12))).collect(),
        _ => Vec::new(),
    }
}

/// Run one full lap of `image` through [`RvTraceSource`] and compare the
/// published words with [`expected`]. Returns the lap length.
pub fn check_lap(image: &Arc<RvImage>, seed: u64) -> Result<u64, String> {
    let want = expected(&image.name);
    if want.is_empty() {
        return Err(format!("no reference result for rv:{}", image.name));
    }
    let mut src = RvTraceSource::new(image.clone(), seed, 0);
    let mut steps = 0u64;
    // The lap ends when the next instruction is the synthetic restart jump.
    while src.machine().next_idx != image.restart_idx {
        src.next_inst();
        steps += 1;
        if steps > 50_000_000 {
            return Err(format!("rv:{} did not finish a lap", image.name));
        }
    }
    if src.laps() != 0 {
        return Err(format!("rv:{} restarted before its lap ended", image.name));
    }
    let mem = &src.machine().mem;
    for (addr, value) in want {
        let got = u64::from_le_bytes(mem[addr..addr + 8].try_into().expect("8-byte word"));
        if got != value {
            return Err(format!("rv:{} published {got} at {addr}, expected {value}", image.name));
        }
    }
    src.next_inst();
    if src.laps() != 1 {
        return Err(format!("rv:{} did not restart after its lap", image.name));
    }
    Ok(steps + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values() {
        assert_eq!(fib(16), 987);
        assert_eq!(expected("sum"), vec![(16384, 6048)]);
        assert_eq!(primes_up_to(600), 109);
        assert_eq!(primes_up_to(10), 4);
        let eye = expected("matmul");
        assert_eq!(eye.len(), 144);
        assert_eq!(eye.iter().map(|&(_, v)| v).sum::<u64>(), 12);
        assert_eq!(eye[13], (12288 + 8 * 13, 1));
    }

    #[test]
    fn sort_checksum_weights_sorted_keys() {
        // Sorting ascending maximises sum(a[i] * i) over all orderings.
        let c = sort_checksum();
        assert!(c > 0);
        let mut x = 12345u64;
        let unsorted = (0..96u64).fold(0u64, |s, i| {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12345);
            s + ((x >> 16) & 0x7fff) * i
        });
        assert!(c >= unsorted);
    }

    #[test]
    fn every_bundled_kernel_publishes_its_reference_result() {
        for (name, asm) in KERNELS {
            let image = hdsmt_riscv::image_from_asm(name, asm).unwrap();
            let lap = check_lap(&image, 7).unwrap_or_else(|e| panic!("{e}"));
            assert!(lap > 100, "{name}: {lap}");
        }
    }
}
