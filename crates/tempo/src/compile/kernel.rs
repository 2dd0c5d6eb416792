//! The byte-swapping block kernels behind a stub's element steps, compiled
//! for the machine they run on, and the fixed-width header blocks the
//! whole-stub kernels copy and compare ([`put_header`], [`differs`]).
//!
//! Each direction has **one** safe source loop ([`swap_into`] for encode,
//! [`swapped`] for decode). The workspace is built for baseline x86-64,
//! whose widest shuffle is SSE2: there LLVM turns the 32-bit byte swap
//! into unpack + `pshuflw` + `pshufhw` + pack, about 13 B/ns (2000 ints in
//! ≈620 ns). The very same loops inlined into a
//! `#[target_feature(enable = "avx2")]` function compile to one `vpshufb`
//! per 32 bytes and run at ≈55–80 B/ns (≈100–150 ns), against ≈65 ns for a
//! plain `memcpy` of the 8 KB. So every loop is instantiated twice — once
//! for the build target, once with AVX2 enabled — and the entry points
//! pick at run time from `is_x86_feature_detected!` (a cached atomic
//! load). Other architectures, x86 without AVX2, and runs shorter than
//! [`DISPATCH_MIN`] elements take the portable instantiation.
//!
//! This module holds the workspace's only `unsafe`: the three calls of a
//! *safe* `#[target_feature]` function, each directly behind the feature
//! test that makes it sound. No raw pointer, intrinsic, `transmute` or
//! `set_len` — the callers in `exec.rs` keep every bounds check,
//! [`super::StubError`] and `OpCounts` increment on their side and hand
//! over slices that are already the right length.

#![deny(clippy::undocumented_unsafe_blocks)]

/// Runs shorter than this stay on the portable instantiation. The AVX2
/// loops come out of LLVM as a vector body of 4 × 8 lanes plus a scalar
/// remainder, so below 32 elements the second instantiation would only
/// ever run its remainder, one `bswap` at a time, while the SSE2 body of
/// the portable one starts at 16 (measured on `echo20_udp`: the two decode
/// stubs are 4–6 ns faster with the 20 elements left here).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const DISPATCH_MIN: usize = 32;

/// The encode loop: store `src` big-endian into `dst` (`4 * src.len()`
/// bytes, sliced and checked by the caller).
#[inline(always)]
fn swap_into(dst: &mut [u8], src: &[i32]) {
    for (chunk, v) in dst.chunks_exact_mut(4).zip(src) {
        chunk.copy_from_slice(&v.to_be_bytes());
    }
}

/// The decode loop: the big-endian words of `src`, in host order.
#[inline(always)]
fn swapped(src: &[u8]) -> impl Iterator<Item = i32> + '_ {
    src.chunks_exact(4)
        .map(|c| i32::from_be_bytes([c[0], c[1], c[2], c[3]]))
}

#[inline(always)]
fn get_with(dst: &mut [i32], src: &[u8]) {
    for (v, w) in dst.iter_mut().zip(swapped(src)) {
        *v = w;
    }
}

#[inline(always)]
fn fill_with(dst: &mut Vec<i32>, src: &[u8]) {
    dst.clear();
    dst.extend(swapped(src));
}

/// Encode `src` into `dst` with the baseline-target loop.
pub(super) fn put_portable(dst: &mut [u8], src: &[i32]) {
    swap_into(dst, src);
}

/// Decode `src` over `dst` with the baseline-target loop.
pub(super) fn get_portable(dst: &mut [i32], src: &[u8]) {
    get_with(dst, src);
}

/// Replace `dst`'s contents by the words of `src` with the baseline-target
/// loop — no element is written twice, nothing is zero-filled first.
pub(super) fn fill_portable(dst: &mut Vec<i32>, src: &[u8]) {
    fill_with(dst, src);
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    #[target_feature(enable = "avx2")]
    pub(super) fn put(dst: &mut [u8], src: &[i32]) {
        super::swap_into(dst, src);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn get(dst: &mut [i32], src: &[u8]) {
        super::get_with(dst, src);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fill(dst: &mut Vec<i32>, src: &[u8]) {
        super::fill_with(dst, src);
    }
}

/// Encode `src` into `dst` (`dst.len() == 4 * src.len()`).
#[inline]
pub(super) fn put(dst: &mut [u8], src: &[i32]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if src.len() >= DISPATCH_MIN && std::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2::put` is a safe function whose only requirement is
        // that the CPU has AVX2, which the line above just detected.
        return unsafe { avx2::put(dst, src) };
    }
    put_portable(dst, src);
}

/// Decode `src` over `dst` (`src.len() == 4 * dst.len()`).
#[inline]
pub(super) fn get(dst: &mut [i32], src: &[u8]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if dst.len() >= DISPATCH_MIN && std::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2::get` is a safe function whose only requirement is
        // that the CPU has AVX2, which the line above just detected.
        return unsafe { avx2::get(dst, src) };
    }
    get_portable(dst, src);
}

/// Replace `dst`'s contents by the `src.len() / 4` words of `src`.
#[inline]
pub(super) fn fill(dst: &mut Vec<i32>, src: &[u8]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if src.len() >= 4 * DISPATCH_MIN && std::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2::fill` is a safe function whose only requirement
        // is that the CPU has AVX2, which the line above just detected.
        return unsafe { avx2::fill(dst, src) };
    }
    fill_portable(dst, src);
}

/// Copy a header image of `B..=2B` bytes into `dst`, as long, as two
/// fixed `B`-byte blocks — the first and the last, overlapping unless the
/// image is `2B` long — so the copy is a few vector moves, with no loop
/// over the length and no `memcpy` call.
#[inline(always)]
pub(super) fn put_header<const B: usize>(dst: &mut [u8], image: &[u8]) {
    let tail = image.len() - B;
    dst[..B].copy_from_slice(&image[..B]);
    dst[tail..tail + B].copy_from_slice(&image[tail..tail + B]);
}

/// Whether `wire` differs from `want` under `mask` (all three of
/// `B..=2B` bytes, and as long), compared in the blocks
/// [`put_header`] copies.
#[inline(always)]
pub(super) fn differs<const B: usize>(wire: &[u8], want: &[u8], mask: &[u8]) -> bool {
    let block = |at: usize| {
        let (w, m, b) = (&wire[at..at + B], &mask[at..at + B], &want[at..at + B]);
        let bytes = w.iter().zip(m).zip(b);
        bytes.fold(0u8, |diff, ((w, m), b)| diff | ((w & m) ^ b))
    };
    block(0) | block(want.len() - B) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values whose four bytes all differ, so a lane mix-up shows.
    fn words(n: usize) -> Vec<i32> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) ^ 0x0102_0304) as i32)
            .collect()
    }

    /// Both instantiations of all three kernels on `vals` at wire byte
    /// offset `off` of a larger buffer; the bytes around the image must
    /// stay untouched.
    fn check(vals: &[i32], off: usize) {
        let n = vals.len();
        let span = off..off + 4 * n;
        let mut portable = vec![0xA5u8; off + 4 * n + 3];
        let mut dispatched = portable.clone();
        put_portable(&mut portable[span.clone()], vals);
        put(&mut dispatched[span.clone()], vals);
        assert_eq!(portable, dispatched, "put n={n} off={off}");
        for (i, v) in vals.iter().enumerate() {
            let at = off + 4 * i;
            assert_eq!(portable[at..at + 4], v.to_be_bytes(), "element {i}");
        }
        assert!(portable[..off].iter().all(|&b| b == 0xA5));
        assert!(portable[off + 4 * n..].iter().all(|&b| b == 0xA5));

        let wire = &portable[span];
        let (mut a, mut b) = (vec![-1i32; n], vec![-1i32; n]);
        get_portable(&mut a, wire);
        get(&mut b, wire);
        assert_eq!(a, vals, "get_portable n={n} off={off}");
        assert_eq!(b, vals, "get n={n} off={off}");

        // Filling replaces whatever the slot last held, longer or shorter.
        let (mut a, mut b) = (vec![7i32; n + 5], vec![7i32; n / 2]);
        fill_portable(&mut a, wire);
        fill(&mut b, wire);
        assert_eq!(a, vals, "fill_portable n={n} off={off}");
        assert_eq!(b, vals, "fill n={n} off={off}");
    }

    #[test]
    fn dispatched_equals_portable_for_every_small_count_and_alignment() {
        let vals = words(130);
        for n in 0..=130 {
            for off in 0..=7 {
                check(&vals[..n], off);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dispatched_equals_portable_on_random_runs(
            vals in prop::collection::vec(any::<i32>(), 0..3000),
            off in 0usize..64,
        ) {
            check(&vals, off);
        }
    }
}
