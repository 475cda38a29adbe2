//! The blocked, parallel kernel substrate behind every dense hot path.
//!
//! All three mat-mul variants of [`crate::matrix::Matrix`] (`matmul`,
//! `transpose_matmul`, `matmul_transpose`), the CSR SpMM of
//! [`crate::sparse::CsrMatrix`] and the element-wise / row-wise helpers the
//! autodiff tape leans on are routed through this module. The design:
//!
//! * **One inner kernel.** [`gemm`] computes `C = A · B` over an
//!   `MC x KC x NC` cache tiling with the depth loop unrolled by [`KU`] and
//!   the column loop written with `chunks_exact` so LLVM autovectorizes it
//!   (each output lane is an independent accumulation — no floating-point
//!   reassociation is required, unlike a dot-product formulation).
//!   `matmul_transpose` is a blocked transpose *pack* of `B`
//!   ([`transpose_into`]) followed by the same kernel. `transpose_matmul`
//!   runs [`gemm_tn`], which never materializes `Aᵀ`: each output block
//!   packs only its own `MC x KC` tile of `Aᵀ` per depth step and hands it
//!   to the same block kernel, so every variant shares one tuned code path.
//! * **Parallelism over output row-blocks.** Each rayon task owns `MC`
//!   consecutive output rows (a disjoint `&mut` chunk of `C`), so no
//!   synchronization is needed and the floating-point evaluation order —
//!   hence the bit pattern of the result — is identical for the serial and
//!   parallel paths and for every thread count.
//! * **Serial fallbacks.** Problems below [`PAR_GEMM_WORK`] multiply-adds
//!   (or [`PAR_ELEM_WORK`] elements for the element-wise helpers) skip the
//!   pool entirely.
//! * **Narrow outputs at full width.** Products with fewer than [`LANES`]
//!   output columns (6- and 7-class logits and their gradients) run on the
//!   AVX2 tier as one masked 8-lane accumulator per output row, four rows
//!   per pass over the depth, with `Aᵀ` read in place instead of packed.
//!   Every lane keeps the portable `narrow_rows` sequence: `KU`-groups
//!   summed left to right, then the depth tail, from a `+0` start. So the
//!   result is bit-identical to the former narrow path and to the wide
//!   path. [`gemm_scalar`] keeps the portable tier as the reference.
//! * **Row gathers.** [`gemm_gather`] and [`gemm_tn_gather`] read the rows
//!   of `A` named by an index list in place, bit-identical to a
//!   `select_rows` copy followed by [`gemm`] / [`gemm_tn`].
//!
//! The pre-substrate reference implementations are retained as
//! [`naive_matmul`], [`naive_transpose_matmul`] and
//! [`naive_matmul_transpose`]; property tests assert agreement and the
//! `substrate` criterion bench measures the speedup against them.

use rayon::prelude::*;
use std::sync::OnceLock;

/// Rows of `C` (and `A`) each parallel task owns.
pub const MC: usize = 64;
/// Depth (`k`) blocking factor: one `KC x NC` tile of `B` stays hot in L2.
pub const KC: usize = 128;
/// Column (`n`) blocking factor.
pub const NC: usize = 512;
/// Unroll factor of the depth loop inside the micro-kernel.
pub const KU: usize = 4;
/// Vector width the micro-kernel is written for (f32 lanes of one AVX2
/// register; wider ISAs fuse adjacent iterations).
pub const LANES: usize = 8;

/// Minimum multiply-add count before a mat-mul goes parallel.
pub const PAR_GEMM_WORK: usize = 1 << 18;
/// Minimum element count before element-wise/row-wise ops go parallel.
pub const PAR_ELEM_WORK: usize = 1 << 16;
/// Minimum `nnz * dense_cols` before SpMM goes parallel.
pub const PAR_SPMM_WORK: usize = 1 << 16;
/// Element-wise parallel chunk size (elements per task).
const ELEM_CHUNK: usize = 1 << 15;

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch
// ---------------------------------------------------------------------------

/// The instruction-set tier the micro-kernels run at, selected once per
/// process by [`simd_level`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// Portable blocked loops (LLVM autovectorizes them for the build
    /// target's baseline ISA).
    Scalar,
    /// Hand-written AVX2 kernels with register-resident accumulators.
    /// Selected when the CPU reports both AVX2 and FMA; the kernels still
    /// use separate multiply/add steps in the scalar association order, so
    /// results are bit-identical to the portable path.
    Avx2,
}

impl SimdLevel {
    /// Stable label for benchmark JSON and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Returns the micro-kernel tier, detected once at first use.
///
/// Set `BGC_SIMD=scalar` to force the portable fallback (useful when
/// bisecting a suspected kernel bug); any other value keeps auto-detection.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::env::var_os("BGC_SIMD").is_some_and(|v| v == "scalar") {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return SimdLevel::Avx2;
        }
        SimdLevel::Scalar
    })
}

// ---------------------------------------------------------------------------
// Micro-kernels
// ---------------------------------------------------------------------------

/// `c[j] += a0 * b0[j]` over equal-length slices.
#[inline]
#[allow(unsafe_code)] // sanctioned SIMD dispatch (see crate-level lint note)
pub fn axpy(c: &mut [f32], a0: f32, b0: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: the Avx2 level is only ever selected when the CPU
        // reports AVX2 support.
        unsafe { avx2::axpy(c, a0, b0) };
        return;
    }
    axpy_scalar(c, a0, b0);
}

/// Portable body of [`axpy`] (also the reference the AVX2 twin must match
/// bit-for-bit).
#[inline]
fn axpy_scalar(c: &mut [f32], a0: f32, b0: &[f32]) {
    let n = c.len();
    let b0 = &b0[..n];
    let split = n - n % LANES;
    let (c_main, c_tail) = c.split_at_mut(split);
    for (cc, bb) in c_main
        .chunks_exact_mut(LANES)
        .zip(b0[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            cc[l] += a0 * bb[l];
        }
    }
    for (cc, &bb) in c_tail.iter_mut().zip(&b0[split..]) {
        *cc += a0 * bb;
    }
}

/// Four fused axpy rows: `c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]`.
///
/// This is the register-blocked heart of [`gemm`]: four rows of `B` are
/// consumed per pass over the output row, quartering the `C` read/write
/// traffic, and every lane is an independent sum so the loop vectorizes
/// without `-ffast-math`-style reassociation.
#[inline]
#[allow(clippy::too_many_arguments)]
fn axpy4(
    c: &mut [f32],
    a0: f32,
    b0: &[f32],
    a1: f32,
    b1: &[f32],
    a2: f32,
    b2: &[f32],
    a3: f32,
    b3: &[f32],
) {
    let n = c.len();
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    let split = n - n % LANES;
    let (c_main, c_tail) = c.split_at_mut(split);
    let iter = c_main
        .chunks_exact_mut(LANES)
        .zip(b0[..split].chunks_exact(LANES))
        .zip(b1[..split].chunks_exact(LANES))
        .zip(b2[..split].chunks_exact(LANES))
        .zip(b3[..split].chunks_exact(LANES));
    for ((((cc, v0), v1), v2), v3) in iter {
        for l in 0..LANES {
            cc[l] += a0 * v0[l] + a1 * v1[l] + a2 * v2[l] + a3 * v3[l];
        }
    }
    // Iterator-zipped tail: the same fused four-term expression per element
    // (bit-identical), but free of bounds checks so LLVM vectorizes the
    // narrow-output case (e.g. `n = num_classes` logits products).
    let tail = c_tail
        .iter_mut()
        .zip(&b0[split..])
        .zip(&b1[split..])
        .zip(&b2[split..])
        .zip(&b3[split..]);
    for ((((cc, &v0), &v1), &v2), &v3) in tail {
        *cc += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
    }
}

/// Computes one `MC`-row block of `C += A_rows · B` through the cache tiling.
///
/// `a_rows` holds the block's rows of `A` (`mb x k`), `c_block` the matching
/// rows of `C` (`mb x n`); `b` is the full `k x n` right operand.
#[allow(unsafe_code)] // sanctioned SIMD dispatch (see crate-level lint note)
fn gemm_block(a_rows: &[f32], k: usize, n: usize, b: &[f32], c_block: &mut [f32]) {
    debug_assert_eq!(c_block.len() % n, 0);
    let mb = c_block.len() / n;
    debug_assert_eq!(a_rows.len(), mb * k);
    if n < LANES {
        narrow_block(a_rows, k, n, b, c_block);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        for k0 in (0..k).step_by(KC) {
            let kb = KC.min(k - k0);
            for j0 in (0..n).step_by(NC) {
                let nb = NC.min(n - j0);
                for i in 0..mb {
                    let a_row = &a_rows[i * k + k0..][..kb];
                    let c_row = &mut c_block[i * n + j0..][..nb];
                    // SAFETY: Avx2 is only selected when the CPU has it;
                    // the row kernel's b-tile window `(k0..k0+kb) x
                    // (j0..j0+nb)` lies inside the `k x n` operand.
                    unsafe { avx2::gemm_row(a_row, b, k0 * n + j0, n, c_row) };
                }
            }
        }
        return;
    }
    gemm_block_portable(a_rows, k, n, b, c_block, mb);
}

/// Narrow-output (`n < LANES`) dispatch: outputs below one vector width
/// (e.g. `num_classes`-wide logits) keep the whole output row in a
/// register-resident accumulator across the depth loop instead of streaming
/// it through memory per `axpy4` pass.
///
/// On the AVX2 tier each output row is one masked 8-lane vector
/// ([`avx2::narrow_rows`]): lanes `j < n` load `B` and `C` through a lane
/// mask, lanes `j >= n` read zeros and are never stored. The portable tier
/// runs [`narrow_rows`]. Both perform the wide path's per-element sequence
/// (same fused four-term updates, same order), so every tier and width is
/// bit-identical.
#[allow(unsafe_code)] // sanctioned SIMD dispatch (see crate-level lint note)
fn narrow_block(a_rows: &[f32], k: usize, n: usize, b: &[f32], c_block: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 && n > 0 {
        let mb = c_block.len() / n;
        assert!(
            a_rows.len() == mb * k && c_block.len() == mb * n && b.len() >= k * n,
            "narrow gemm: operand lengths do not match {mb} x {k} x {n}"
        );
        // SAFETY: Avx2 is only selected when the CPU has it; the assert
        // above makes `a_rows` the row-major `mb x k` block, `b` at least
        // the `k x n` operand and `c_block` `mb` whole `n`-wide rows.
        unsafe { avx2::narrow_rows(a_rows, |i| i * k, |kk| kk, mb, k, n, b, c_block) };
        return;
    }
    narrow_block_portable(a_rows, k, n, b, c_block);
}

/// Portable tier of [`narrow_block`] (also the reference the AVX2 twin must
/// match bit for bit).
fn narrow_block_portable(a_rows: &[f32], k: usize, n: usize, b: &[f32], c_block: &mut [f32]) {
    match n {
        0 => {}
        1 => narrow_rows::<1>(a_rows, k, b, c_block),
        2 => narrow_rows::<2>(a_rows, k, b, c_block),
        3 => narrow_rows::<3>(a_rows, k, b, c_block),
        4 => narrow_rows::<4>(a_rows, k, b, c_block),
        5 => narrow_rows::<5>(a_rows, k, b, c_block),
        6 => narrow_rows::<6>(a_rows, k, b, c_block),
        7 => narrow_rows::<7>(a_rows, k, b, c_block),
        _ => unreachable!("narrow path requires n < LANES"),
    }
}

/// Portable wide-path (`n >= LANES`) loop nest of [`gemm_block`]: the
/// autovectorized `axpy4`/`axpy` cache tiling, also the reference the AVX2
/// path must match bit-for-bit.
fn gemm_block_portable(
    a_rows: &[f32],
    k: usize,
    n: usize,
    b: &[f32],
    c_block: &mut [f32],
    mb: usize,
) {
    for k0 in (0..k).step_by(KC) {
        let kb = KC.min(k - k0);
        for j0 in (0..n).step_by(NC) {
            let nb = NC.min(n - j0);
            for i in 0..mb {
                let a_row = &a_rows[i * k + k0..][..kb];
                let c_row = &mut c_block[i * n + j0..][..nb];
                let mut kk = 0;
                while kk + KU <= kb {
                    axpy4(
                        c_row,
                        a_row[kk],
                        &b[(k0 + kk) * n + j0..][..nb],
                        a_row[kk + 1],
                        &b[(k0 + kk + 1) * n + j0..][..nb],
                        a_row[kk + 2],
                        &b[(k0 + kk + 2) * n + j0..][..nb],
                        a_row[kk + 3],
                        &b[(k0 + kk + 3) * n + j0..][..nb],
                    );
                    kk += KU;
                }
                while kk < kb {
                    axpy_scalar(c_row, a_row[kk], &b[(k0 + kk) * n + j0..][..nb]);
                    kk += 1;
                }
            }
        }
    }
}

/// Narrow (`N < LANES`) gemm rows: `c += a · B` with a compile-time output
/// width, so the whole output row lives in a register-resident `[f32; N]`
/// accumulator and the inner loops fully unroll without bounds checks.
/// Performs exactly the wide path's per-element operations — `c[j] +=
/// a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]` per `KU`-group, then
/// single-row updates for the depth tail — in the same order, so results
/// are bit-identical to the `axpy4`/`axpy` path.
fn narrow_rows<const N: usize>(a_rows: &[f32], k: usize, b: &[f32], c_block: &mut [f32]) {
    let row_at = |kk: usize| -> [f32; N] {
        let mut row = [0.0f32; N];
        row.copy_from_slice(&b[kk * N..kk * N + N]);
        row
    };
    for (a_row, c_row) in a_rows.chunks_exact(k).zip(c_block.chunks_exact_mut(N)) {
        let mut acc = [0.0f32; N];
        acc.copy_from_slice(c_row);
        let mut kk = 0;
        while kk + KU <= k {
            let a0 = a_row[kk];
            let a1 = a_row[kk + 1];
            let a2 = a_row[kk + 2];
            let a3 = a_row[kk + 3];
            let (b0, b1, b2, b3) = (row_at(kk), row_at(kk + 1), row_at(kk + 2), row_at(kk + 3));
            for j in 0..N {
                acc[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
            kk += KU;
        }
        while kk < k {
            let a0 = a_row[kk];
            let b0 = row_at(kk);
            for j in 0..N {
                acc[j] += a0 * b0[j];
            }
            kk += 1;
        }
        c_row.copy_from_slice(&acc);
    }
}

/// Dense `C = A · B` into a zeroed output buffer.
///
/// `a` is `m x k`, `b` is `k x n`, `out` is `m x n` and must be zeroed (or
/// hold a partial sum to accumulate onto). Parallel over `MC`-row blocks of
/// the output above [`PAR_GEMM_WORK`] multiply-adds; the serial and parallel
/// paths produce bit-identical results.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let work = m * k * n;
    if work < PAR_GEMM_WORK || rayon::current_num_threads() == 1 {
        for (blk, c_block) in out.chunks_mut(MC * n).enumerate() {
            let i0 = blk * MC;
            let mb = c_block.len() / n;
            gemm_block(&a[i0 * k..(i0 + mb) * k], k, n, b, c_block);
        }
    } else {
        out.par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(blk, c_block)| {
                let i0 = blk * MC;
                let mb = c_block.len() / n;
                gemm_block(&a[i0 * k..(i0 + mb) * k], k, n, b, c_block);
            });
    }
}

/// Serial-only variant of [`gemm`] (used by the determinism property test to
/// check that the parallel path is bit-identical).
#[doc(hidden)]
pub fn gemm_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for (blk, c_block) in out.chunks_mut(MC * n).enumerate() {
        let i0 = blk * MC;
        let mb = c_block.len() / n;
        gemm_block(&a[i0 * k..(i0 + mb) * k], k, n, b, c_block);
    }
}

/// Serial variant of [`gemm`] that never dispatches to the SIMD
/// micro-kernels: the reference side of the SIMD agreement gates in the
/// substrate bench and the kernel tests. Narrow outputs (`n < LANES`) run
/// the portable `narrow_rows`, the reference of the full-width AVX2 narrow
/// kernel. The dispatched path must match it bit for bit on every shape.
#[doc(hidden)]
pub fn gemm_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for (blk, c_block) in out.chunks_mut(MC * n).enumerate() {
        let i0 = blk * MC;
        let mb = c_block.len() / n;
        let a_rows = &a[i0 * k..(i0 + mb) * k];
        if n < LANES {
            narrow_block_portable(a_rows, k, n, b, c_block);
        } else {
            gemm_block_portable(a_rows, k, n, b, c_block, mb);
        }
    }
}

/// Dense `C = Aᵀ · B` without materializing `Aᵀ`.
///
/// `a` is `r x m`, `b` is `r x n`, `out` is `m x n` and must be zeroed (or
/// hold a partial sum to accumulate onto). Each `MC`-row output block packs
/// only its `mb x KC` tile of `Aᵀ` per depth step and runs the shared
/// [`gemm_block`] on it. Because `KC % KU == 0`, every tile boundary falls on
/// a depth-group boundary, so each output element sees the same sequence of
/// updates as [`transpose_into`] followed by [`gemm`]: the results are
/// bit-identical, and the pack is spread over the parallel blocks instead of
/// running serially over the whole operand first. Narrow outputs
/// (`n < LANES`) on the AVX2 tier skip the pack: the masked narrow kernel
/// reads `Aᵀ` in place over the whole depth, which is the same per-element
/// sequence again. Parallel above [`PAR_GEMM_WORK`] multiply-adds, like
/// [`gemm`].
pub fn gemm_tn(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= r * m, "gemm_tn: `a` is not {r} x {m}");
    let parallel = r * m * n >= PAR_GEMM_WORK && rayon::current_num_threads() > 1;
    gemm_tn_blocks(r, |kk| kk, m, n, a, b, out, parallel);
}

/// Serial-only variant of [`gemm_tn`] (the reference side of its
/// serial-vs-parallel bit-identity test).
#[doc(hidden)]
pub fn gemm_tn_serial(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= r * m, "gemm_tn: `a` is not {r} x {m}");
    gemm_tn_blocks(r, |kk| kk, m, n, a, b, out, false);
}

/// Serial `C += A[rows]ᵀ · B`: [`gemm_tn`] whose depth row `kk` is row
/// `rows[kk]` of the `m`-wide row-major `a`, read in place instead of
/// through a [`Matrix::select_rows`](crate::Matrix::select_rows) copy. `b`
/// is `rows.len() x n` and `out` is `m x n`. Bit-identical to gathering the
/// rows first and running [`gemm_tn`]. Because `gemm_tn` splits its depth on
/// `KC` boundaries, calling this on consecutive `KC`-row chunks of a longer
/// row list (each with its chunk of `b`) accumulates exactly the whole
/// list's product.
///
/// # Panics
/// Panics when a row index is out of range for `a`.
pub fn gemm_tn_gather(rows: &[usize], m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if m == 0 {
        return;
    }
    let a_rows = a.len() / m;
    assert!(
        rows.iter().all(|&row| row < a_rows),
        "gemm_tn_gather: row index out of range for {a_rows} rows"
    );
    gemm_tn_blocks(rows.len(), |kk| rows[kk], m, n, a, b, out, false);
}

/// Shared body of [`gemm_tn`] and [`gemm_tn_gather`]: depth row `kk` of the
/// product is row `depth_row(kk)` of `a`. Callers check that every such
/// row exists in `a`; the operand and output shapes are checked here.
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code)] // sanctioned SIMD dispatch (see crate-level lint note)
fn gemm_tn_blocks(
    r: usize,
    depth_row: impl Fn(usize) -> usize + Sync,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    parallel: bool,
) {
    assert!(
        b.len() == r * n && out.len() == m * n,
        "gemm_tn: `b` or the output does not match {r} x {m} x {n}"
    );
    if m == 0 || n == 0 || r == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if n < LANES && simd_level() == SimdLevel::Avx2 {
        for_each_block(out, n, parallel, |i0, c_block| {
            let mb = c_block.len() / n;
            // SAFETY: Avx2 is only selected when the CPU has it; element
            // `(i, kk)` of the block's `Aᵀ` is `a[i0 + i + depth_row(kk) *
            // m]` with `i0 + i < m` (the output is `m x n`) and
            // `depth_row(kk)` a row of `a` (the callers' check); `b` is
            // `r x n` and `c_block` holds `mb` whole rows.
            unsafe {
                avx2::narrow_rows(a, |i| i0 + i, |kk| depth_row(kk) * m, mb, r, n, b, c_block)
            };
        });
        return;
    }
    for_each_block(out, n, parallel, |i0, c_block| {
        let mb = c_block.len() / n;
        // Sized to the depth actually used, so tiny shapes do not zero a
        // full `MC x KC` tile.
        let mut tile = vec![0.0f32; mb * KC.min(r)];
        for k0 in (0..r).step_by(KC) {
            let kb = KC.min(r - k0);
            let tile = &mut tile[..mb * kb];
            for kk in 0..kb {
                let src = &a[depth_row(k0 + kk) * m + i0..][..mb];
                for (i, &v) in src.iter().enumerate() {
                    tile[i * kb + kk] = v;
                }
            }
            gemm_block(tile, kb, n, &b[k0 * n..(k0 + kb) * n], c_block);
        }
    });
}

/// Runs `f(i0, c_block)` on every `MC`-row block of the `n`-wide `out`
/// (`i0` is the block's first row), on the pool when `parallel`.
fn for_each_block(out: &mut [f32], n: usize, parallel: bool, f: impl Fn(usize, &mut [f32]) + Sync) {
    if parallel {
        out.par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(blk, c_block)| f(blk * MC, c_block));
    } else {
        for (blk, c_block) in out.chunks_mut(MC * n).enumerate() {
            f(blk * MC, c_block);
        }
    }
}

/// Serial `C[i] += A[rows[i]] · B`: [`gemm`] over rows of the `k`-wide
/// row-major `a` picked by an index list and read in place. `b` is `k x n`
/// and `out` is `rows.len() x n`. Every output row repeats the sequence of
/// the matching row of [`gemm`], so the result is bit-identical to
/// gathering the rows first.
///
/// # Panics
/// Panics when a row index is out of range for `a`.
#[allow(unsafe_code)] // sanctioned SIMD dispatch (see crate-level lint note)
pub fn gemm_gather(rows: &[usize], k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(
        b.len() == k * n && out.len() == rows.len() * n,
        "gemm_gather: `b` or the output does not match {} x {k} x {n}",
        rows.len()
    );
    if n == 0 || k == 0 {
        return;
    }
    let a_rows = a.len() / k;
    assert!(
        rows.iter().all(|&row| row < a_rows),
        "gemm_gather: row index out of range for {a_rows} rows"
    );
    #[cfg(target_arch = "x86_64")]
    if n < LANES && simd_level() == SimdLevel::Avx2 {
        // SAFETY: Avx2 is only selected when the CPU has it; every
        // `rows[i]` is a row of `a` (checked above), so `rows[i] * k + kk`
        // lies inside `a`; `b` is `k x n` and `out` holds `rows.len()` rows
        // (asserted on entry).
        unsafe { avx2::narrow_rows(a, |i| rows[i] * k, |kk| kk, rows.len(), k, n, b, out) };
        return;
    }
    for (&row, c_row) in rows.iter().zip(out.chunks_exact_mut(n)) {
        gemm_block(&a[row * k..(row + 1) * k], k, n, b, c_row);
    }
}

/// Cache-blocked transpose: writes the `cols x rows` transpose of the
/// row-major `rows x cols` matrix `src` into `dst`.
///
/// Used both as the public transpose and as the pack step that lets
/// `matmul_transpose` share the [`gemm`] kernel.
pub fn transpose_into(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    const TB: usize = 32;
    for r0 in (0..rows).step_by(TB) {
        let rb = TB.min(rows - r0);
        for c0 in (0..cols).step_by(TB) {
            let cb = TB.min(cols - c0);
            for r in r0..r0 + rb {
                for c in c0..c0 + cb {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Element-wise / row-wise substrate
// ---------------------------------------------------------------------------

/// `dst[i] = f(src[i])`, parallel above [`PAR_ELEM_WORK`] elements.
pub fn unary_map_into(src: &[f32], dst: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    debug_assert_eq!(src.len(), dst.len());
    if dst.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = f(s);
        }
    } else {
        dst.par_chunks_mut(ELEM_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let off = ci * ELEM_CHUNK;
                let src = &src[off..off + chunk.len()];
                for (d, &s) in chunk.iter_mut().zip(src) {
                    *d = f(s);
                }
            });
    }
}

/// `dst[i] = f(a[i], b[i])`, parallel above [`PAR_ELEM_WORK`] elements.
pub fn binary_map_into(a: &[f32], b: &[f32], dst: &mut [f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!(a.len(), dst.len());
    debug_assert_eq!(b.len(), dst.len());
    if dst.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
            *d = f(x, y);
        }
    } else {
        dst.par_chunks_mut(ELEM_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let off = ci * ELEM_CHUNK;
                let (a, b) = (&a[off..off + chunk.len()], &b[off..off + chunk.len()]);
                for (d, (&x, &y)) in chunk.iter_mut().zip(a.iter().zip(b)) {
                    *d = f(x, y);
                }
            });
    }
}

/// `a[i] = f(a[i])` in place, parallel above [`PAR_ELEM_WORK`] elements.
pub fn unary_map_inplace(a: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    if a.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for v in a.iter_mut() {
            *v = f(*v);
        }
    } else {
        a.par_chunks_mut(ELEM_CHUNK).for_each(|chunk| {
            for v in chunk.iter_mut() {
                *v = f(*v);
            }
        });
    }
}

/// `a[i] = f(a[i], b[i])` in place, parallel above [`PAR_ELEM_WORK`] elements.
pub fn binary_map_inplace(a: &mut [f32], b: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = f(*x, y);
        }
    } else {
        a.par_chunks_mut(ELEM_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let off = ci * ELEM_CHUNK;
                let b = &b[off..off + chunk.len()];
                for (x, &y) in chunk.iter_mut().zip(b) {
                    *x = f(*x, y);
                }
            });
    }
}

/// Applies `f(row_index, row)` to every `cols`-wide row of `data` in place,
/// parallel above [`PAR_ELEM_WORK`] total elements. Each row is owned by
/// exactly one task, so per-row reductions stay deterministic.
pub fn for_each_row(data: &mut [f32], cols: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    if cols == 0 {
        return;
    }
    debug_assert_eq!(data.len() % cols, 0);
    if data.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for (r, row) in data.chunks_mut(cols).enumerate() {
            f(r, row);
        }
    } else {
        let rows_per_task = (ELEM_CHUNK / cols).max(1);
        data.par_chunks_mut(rows_per_task * cols)
            .enumerate()
            .for_each(|(blk, block)| {
                let r0 = blk * rows_per_task;
                for (i, row) in block.chunks_mut(cols).enumerate() {
                    f(r0 + i, row);
                }
            });
    }
}

/// Writes `f(row_index, row)` of a `cols`-wide row-major matrix into `out`
/// (one value per row), parallel above [`PAR_ELEM_WORK`] source elements.
pub fn map_rows_into(
    data: &[f32],
    cols: usize,
    out: &mut [f32],
    f: impl Fn(usize, &[f32]) -> f32 + Sync,
) {
    if cols == 0 {
        for (r, o) in out.iter_mut().enumerate() {
            *o = f(r, &[]);
        }
        return;
    }
    debug_assert_eq!(data.len() % cols, 0);
    debug_assert_eq!(out.len(), data.len() / cols);
    if data.len() < PAR_ELEM_WORK || rayon::current_num_threads() == 1 {
        for (r, o) in out.iter_mut().enumerate() {
            *o = f(r, &data[r * cols..(r + 1) * cols]);
        }
    } else {
        let rows_per_task = (ELEM_CHUNK / cols).max(1);
        out.par_chunks_mut(rows_per_task)
            .enumerate()
            .for_each(|(blk, chunk)| {
                let r0 = blk * rows_per_task;
                for (i, o) in chunk.iter_mut().enumerate() {
                    let r = r0 + i;
                    *o = f(r, &data[r * cols..(r + 1) * cols]);
                }
            });
    }
}

// ---------------------------------------------------------------------------
// Retained naive reference implementations
// ---------------------------------------------------------------------------

/// The pre-substrate serial `ikj` mat-mul (branch-free): reference for
/// property tests and the `substrate` benchmark baseline.
pub fn naive_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            let b_row = &b[kk * n..(kk + 1) * n];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// The pre-substrate serial `A^T · B` (outer-product accumulation over rows).
pub fn naive_transpose_matmul(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for row in 0..r {
        let a_row = &a[row * m..(row + 1) * m];
        let b_row = &b[row * n..(row + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// The pre-substrate serial `A · B^T` (per-entry dot products — the scalar
/// reduction LLVM cannot vectorize, which is what the substrate replaces).
pub fn naive_matmul_transpose(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            out[i * n + j] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 micro-kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // the crate's one sanctioned unsafe surface (std::arch)
mod avx2 {
    //! AVX2 twins of the portable micro-kernels.
    //!
    //! Bit-identity contract: every lane performs exactly the portable
    //! path's operation sequence — [`KU`]-grouped updates in ascending depth
    //! order, each group summed left-to-right with separate multiply and add
    //! steps (never an FMA instruction, which would drop an intermediate
    //! rounding) — so the dispatched and scalar kernels produce
    //! byte-identical matrices and cached experiment cells stay valid
    //! across machines with and without AVX2.
    use super::{KU, LANES};
    use std::arch::x86_64::*;

    // The unrolled broadcast groups below are written for the current
    // depth-unroll factor.
    const _: () = assert!(KU == 4, "avx2 kernels unroll the depth loop by 4");

    /// `c[j] += a0 * b0[j]`, vector twin of [`super::axpy_scalar`].
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(c: &mut [f32], a0: f32, b0: &[f32]) {
        let n = c.len();
        let b0 = &b0[..n];
        let split = n - n % LANES;
        let va = _mm256_set1_ps(a0);
        let cp = c.as_mut_ptr();
        let bp = b0.as_ptr();
        let mut j = 0;
        while j < split {
            let prod = _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(j)));
            _mm256_storeu_ps(cp.add(j), _mm256_add_ps(_mm256_loadu_ps(cp.add(j)), prod));
            j += LANES;
        }
        while j < n {
            *cp.add(j) += a0 * *bp.add(j);
            j += 1;
        }
    }

    /// One output row of the cache-tiled gemm: `c_row += a_row · B_tile`,
    /// where the `kb x nb` tile of `B` starts at flat offset `b_off` in `b`
    /// with row stride `n`. Output lanes live in register accumulators
    /// across the whole depth loop — the portable path streams `c_row`
    /// through memory every [`KU`] steps instead, but applies the same
    /// values in the same order, so results match bit for bit while this
    /// path skips almost all of the `C` read/write traffic.
    ///
    /// # Safety
    /// Requires AVX2; the caller guarantees the tile window
    /// `b[b_off + kk*n + j]` for `kk < kb, j < nb` lies inside `b`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_row(a_row: &[f32], b: &[f32], b_off: usize, n: usize, c_row: &mut [f32]) {
        let kb = a_row.len();
        let nb = c_row.len();
        debug_assert!(kb == 0 || b_off + (kb - 1) * n + nb <= b.len());
        let split = nb - nb % LANES;
        let ap = a_row.as_ptr();
        let bp = b.as_ptr().add(b_off);
        let cp = c_row.as_mut_ptr();
        const WIDE: usize = 4 * LANES;
        let mut j = 0;
        // Four accumulators (32 lanes) per pass over the depth loop.
        while j + WIDE <= split {
            let mut acc0 = _mm256_loadu_ps(cp.add(j));
            let mut acc1 = _mm256_loadu_ps(cp.add(j + LANES));
            let mut acc2 = _mm256_loadu_ps(cp.add(j + 2 * LANES));
            let mut acc3 = _mm256_loadu_ps(cp.add(j + 3 * LANES));
            let mut kk = 0;
            while kk + KU <= kb {
                let a0 = _mm256_set1_ps(*ap.add(kk));
                let a1 = _mm256_set1_ps(*ap.add(kk + 1));
                let a2 = _mm256_set1_ps(*ap.add(kk + 2));
                let a3 = _mm256_set1_ps(*ap.add(kk + 3));
                let r0 = bp.add(kk * n + j);
                let r1 = bp.add((kk + 1) * n + j);
                let r2 = bp.add((kk + 2) * n + j);
                let r3 = bp.add((kk + 3) * n + j);
                // acc += ((a0*b0 + a1*b1) + a2*b2) + a3*b3 per lane — the
                // scalar axpy4 association, with explicit mul/add steps.
                let mut s0 = _mm256_mul_ps(a0, _mm256_loadu_ps(r0));
                s0 = _mm256_add_ps(s0, _mm256_mul_ps(a1, _mm256_loadu_ps(r1)));
                s0 = _mm256_add_ps(s0, _mm256_mul_ps(a2, _mm256_loadu_ps(r2)));
                s0 = _mm256_add_ps(s0, _mm256_mul_ps(a3, _mm256_loadu_ps(r3)));
                acc0 = _mm256_add_ps(acc0, s0);
                let mut s1 = _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(LANES)));
                s1 = _mm256_add_ps(s1, _mm256_mul_ps(a1, _mm256_loadu_ps(r1.add(LANES))));
                s1 = _mm256_add_ps(s1, _mm256_mul_ps(a2, _mm256_loadu_ps(r2.add(LANES))));
                s1 = _mm256_add_ps(s1, _mm256_mul_ps(a3, _mm256_loadu_ps(r3.add(LANES))));
                acc1 = _mm256_add_ps(acc1, s1);
                let mut s2 = _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(2 * LANES)));
                s2 = _mm256_add_ps(s2, _mm256_mul_ps(a1, _mm256_loadu_ps(r1.add(2 * LANES))));
                s2 = _mm256_add_ps(s2, _mm256_mul_ps(a2, _mm256_loadu_ps(r2.add(2 * LANES))));
                s2 = _mm256_add_ps(s2, _mm256_mul_ps(a3, _mm256_loadu_ps(r3.add(2 * LANES))));
                acc2 = _mm256_add_ps(acc2, s2);
                let mut s3 = _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(3 * LANES)));
                s3 = _mm256_add_ps(s3, _mm256_mul_ps(a1, _mm256_loadu_ps(r1.add(3 * LANES))));
                s3 = _mm256_add_ps(s3, _mm256_mul_ps(a2, _mm256_loadu_ps(r2.add(3 * LANES))));
                s3 = _mm256_add_ps(s3, _mm256_mul_ps(a3, _mm256_loadu_ps(r3.add(3 * LANES))));
                acc3 = _mm256_add_ps(acc3, s3);
                kk += KU;
            }
            while kk < kb {
                let a0 = _mm256_set1_ps(*ap.add(kk));
                let r0 = bp.add(kk * n + j);
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a0, _mm256_loadu_ps(r0)));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(LANES))));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(2 * LANES))));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(a0, _mm256_loadu_ps(r0.add(3 * LANES))));
                kk += 1;
            }
            _mm256_storeu_ps(cp.add(j), acc0);
            _mm256_storeu_ps(cp.add(j + LANES), acc1);
            _mm256_storeu_ps(cp.add(j + 2 * LANES), acc2);
            _mm256_storeu_ps(cp.add(j + 3 * LANES), acc3);
            j += WIDE;
        }
        // Single-vector remainder columns.
        while j < split {
            let mut acc = _mm256_loadu_ps(cp.add(j));
            let mut kk = 0;
            while kk + KU <= kb {
                let a0 = _mm256_set1_ps(*ap.add(kk));
                let a1 = _mm256_set1_ps(*ap.add(kk + 1));
                let a2 = _mm256_set1_ps(*ap.add(kk + 2));
                let a3 = _mm256_set1_ps(*ap.add(kk + 3));
                let mut s = _mm256_mul_ps(a0, _mm256_loadu_ps(bp.add(kk * n + j)));
                s = _mm256_add_ps(
                    s,
                    _mm256_mul_ps(a1, _mm256_loadu_ps(bp.add((kk + 1) * n + j))),
                );
                s = _mm256_add_ps(
                    s,
                    _mm256_mul_ps(a2, _mm256_loadu_ps(bp.add((kk + 2) * n + j))),
                );
                s = _mm256_add_ps(
                    s,
                    _mm256_mul_ps(a3, _mm256_loadu_ps(bp.add((kk + 3) * n + j))),
                );
                acc = _mm256_add_ps(acc, s);
                kk += KU;
            }
            while kk < kb {
                let a0 = _mm256_set1_ps(*ap.add(kk));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(a0, _mm256_loadu_ps(bp.add(kk * n + j))));
                kk += 1;
            }
            _mm256_storeu_ps(cp.add(j), acc);
            j += LANES;
        }
        // Scalar tail columns, same depth grouping and association.
        while j < nb {
            let mut acc = *cp.add(j);
            let mut kk = 0;
            while kk + KU <= kb {
                acc += *ap.add(kk) * *bp.add(kk * n + j)
                    + *ap.add(kk + 1) * *bp.add((kk + 1) * n + j)
                    + *ap.add(kk + 2) * *bp.add((kk + 2) * n + j)
                    + *ap.add(kk + 3) * *bp.add((kk + 3) * n + j);
                kk += KU;
            }
            while kk < kb {
                acc += *ap.add(kk) * *bp.add(kk * n + j);
                kk += 1;
            }
            *cp.add(j) = acc;
            j += 1;
        }
    }

    /// Lane mask selecting the first `n` of the eight f32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_mask(n: usize) -> __m256i {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane)
    }

    /// Narrow-output (`n < LANES`) rows `c += A · B` at full vector width:
    /// the AVX2 twin of [`super::narrow_rows`]. Each output row is one
    /// 8-lane accumulator whose lanes `j < n` are loaded and stored through
    /// a lane mask; masked lanes read zeros and are never written back, and
    /// every lane's sequence is independent of the others. Four rows are
    /// processed per pass so each masked load of `B` serves four
    /// accumulators. Per lane the operations are the portable path's:
    /// `acc += ((a0*b0 + a1*b1) + a2*b2) + a3*b3` per [`KU`]-group over the
    /// whole depth, then `acc += a*b` for the depth tail, with separate
    /// mul/add steps.
    ///
    /// The left operand is addressed, not packed: `A[i][kk]` is
    /// `a[row_off(i) + depth_off(kk)]`. Row-major `A` is `(i * k, kk)`, `Aᵀ`
    /// read in place is `(i, kk * m)`, and a row gather swaps in an index
    /// list on either side.
    ///
    /// # Safety
    /// Requires AVX2; `0 < n < LANES`, `b.len() >= k * n`,
    /// `c_block.len() == mb * n`, and `row_off(i) + depth_off(kk)` lies
    /// inside `a` for every `i < mb`, `kk < k`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn narrow_rows(
        a: &[f32],
        row_off: impl Fn(usize) -> usize,
        depth_off: impl Fn(usize) -> usize,
        mb: usize,
        k: usize,
        n: usize,
        b: &[f32],
        c_block: &mut [f32],
    ) {
        debug_assert!(n > 0 && n < LANES);
        debug_assert!(b.len() >= k * n);
        debug_assert_eq!(c_block.len(), mb * n);
        let mask = lane_mask(n);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        // Macros rather than closures, so every intrinsic is inlined into
        // this `avx2`-enabled body.
        macro_rules! load_b {
            ($kk:expr) => {
                _mm256_maskload_ps(bp.add($kk * n), mask)
            };
        }
        macro_rules! bcast {
            ($row:expr, $off:expr) => {
                _mm256_set1_ps(*ap.add($row + $off))
            };
        }
        macro_rules! group {
            ($row:expr, $o:expr, $b:expr) => {{
                let mut s = _mm256_mul_ps(bcast!($row, $o.0), $b.0);
                s = _mm256_add_ps(s, _mm256_mul_ps(bcast!($row, $o.1), $b.1));
                s = _mm256_add_ps(s, _mm256_mul_ps(bcast!($row, $o.2), $b.2));
                _mm256_add_ps(s, _mm256_mul_ps(bcast!($row, $o.3), $b.3))
            }};
        }
        let mut i = 0;
        while i + 4 <= mb {
            let (r0, r1, r2, r3) = (row_off(i), row_off(i + 1), row_off(i + 2), row_off(i + 3));
            let cp = c_block.as_mut_ptr().add(i * n);
            let mut acc0 = _mm256_maskload_ps(cp, mask);
            let mut acc1 = _mm256_maskload_ps(cp.add(n), mask);
            let mut acc2 = _mm256_maskload_ps(cp.add(2 * n), mask);
            let mut acc3 = _mm256_maskload_ps(cp.add(3 * n), mask);
            let mut kk = 0;
            while kk + KU <= k {
                let o = (
                    depth_off(kk),
                    depth_off(kk + 1),
                    depth_off(kk + 2),
                    depth_off(kk + 3),
                );
                let bv = (
                    load_b!(kk),
                    load_b!(kk + 1),
                    load_b!(kk + 2),
                    load_b!(kk + 3),
                );
                acc0 = _mm256_add_ps(acc0, group!(r0, o, bv));
                acc1 = _mm256_add_ps(acc1, group!(r1, o, bv));
                acc2 = _mm256_add_ps(acc2, group!(r2, o, bv));
                acc3 = _mm256_add_ps(acc3, group!(r3, o, bv));
                kk += KU;
            }
            while kk < k {
                let o = depth_off(kk);
                let b0 = load_b!(kk);
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(bcast!(r0, o), b0));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(bcast!(r1, o), b0));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(bcast!(r2, o), b0));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(bcast!(r3, o), b0));
                kk += 1;
            }
            _mm256_maskstore_ps(cp, mask, acc0);
            _mm256_maskstore_ps(cp.add(n), mask, acc1);
            _mm256_maskstore_ps(cp.add(2 * n), mask, acc2);
            _mm256_maskstore_ps(cp.add(3 * n), mask, acc3);
            i += 4;
        }
        while i < mb {
            let r0 = row_off(i);
            let cp = c_block.as_mut_ptr().add(i * n);
            let mut acc = _mm256_maskload_ps(cp, mask);
            let mut kk = 0;
            while kk + KU <= k {
                let o = (
                    depth_off(kk),
                    depth_off(kk + 1),
                    depth_off(kk + 2),
                    depth_off(kk + 3),
                );
                let bv = (
                    load_b!(kk),
                    load_b!(kk + 1),
                    load_b!(kk + 2),
                    load_b!(kk + 3),
                );
                acc = _mm256_add_ps(acc, group!(r0, o, bv));
                kk += KU;
            }
            while kk < k {
                acc = _mm256_add_ps(acc, _mm256_mul_ps(bcast!(r0, depth_off(kk)), load_b!(kk)));
                kk += 1;
            }
            _mm256_maskstore_ps(cp, mask, acc);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values in [-1, 1].
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                (x >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {}: {} vs {}",
                i,
                x,
                y
            );
        }
    }

    #[test]
    fn gemm_matches_naive_across_awkward_shapes() {
        // Shapes straddling every blocking boundary: empty, single row/col,
        // exact multiples of MC/KC/NC, and off-by-one around them.
        for &(m, k, n) in &[
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (1, 130, 1),
            (2, 3, 5),
            (7, 129, 17),
            (64, 128, 512),
            (65, 127, 513),
            (33, 260, 9),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut got = vec![0.0; m * n];
            let mut want = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut got);
            naive_matmul(m, k, n, &a, &b, &mut want);
            assert_close(&got, &want, 1e-4);
        }
    }

    #[test]
    fn gemm_parallel_is_bit_identical_to_serial() {
        let (m, k, n) = (150, 96, 75);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let mut serial = vec![0.0; m * n];
        let mut parallel = vec![0.0; m * n];
        gemm_serial(m, k, n, &a, &b, &mut serial);
        gemm(m, k, n, &a, &b, &mut parallel);
        assert_eq!(serial, parallel, "parallel gemm must be bit-identical");
    }

    #[test]
    fn dispatched_gemm_is_bit_identical_to_scalar_kernels() {
        // On AVX2 hardware this pins the hand-written kernels to the
        // portable path bit-for-bit (the determinism contract the cached
        // experiment grid depends on); elsewhere both sides run the same
        // code and the test is trivially green. Shapes straddle the 32-wide
        // accumulator block, the single-vector loop, the scalar column
        // tail, and the KU depth remainder.
        for &(m, k, n) in &[
            (1, 1, 8),
            (3, 5, 9),
            (7, 129, 17),
            (2, 6, 31),
            (5, 130, 33),
            (64, 128, 512),
            (65, 127, 513),
            (33, 260, 40),
            (4, 3, 7), // narrow path (shared code, sanity)
        ] {
            let a = fill(m * k, 11);
            let b = fill(k * n, 12);
            let mut dispatched = vec![0.0; m * n];
            let mut scalar = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut dispatched);
            gemm_scalar(m, k, n, &a, &b, &mut scalar);
            assert_eq!(
                dispatched, scalar,
                "simd gemm diverged from scalar at ({}, {}, {})",
                m, k, n
            );
        }
    }

    #[test]
    fn gemm_tn_is_bit_identical_to_pack_then_gemm() {
        // (r, m, n): empty operands, r % KU != 0, r > KC, m % MC != 0,
        // n < LANES (narrow path), n > NC, and products above
        // PAR_GEMM_WORK so multi-core machines take the parallel path.
        for &(r, m, n) in &[
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (7, 5, 3),
            (130, 65, 7),
            (257, 64, 9),
            (129, 33, 513),
            (1030, 130, 5),
            (517, 66, 520),
        ] {
            let a = fill(r * m, 31);
            let b = fill(r * n, 32);
            let mut packed = vec![0.0; r * m];
            transpose_into(r, m, &a, &mut packed);
            let mut want = vec![0.0; m * n];
            gemm_serial(m, r, n, &packed, &b, &mut want);
            let mut serial = vec![0.0; m * n];
            gemm_tn_serial(r, m, n, &a, &b, &mut serial);
            let mut dispatched = vec![0.0; m * n];
            gemm_tn(r, m, n, &a, &b, &mut dispatched);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&serial), bits(&want), "serial at ({r}, {m}, {n})");
            assert_eq!(
                bits(&dispatched),
                bits(&want),
                "dispatched at ({r}, {m}, {n})"
            );
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn narrow_gemm_is_bit_identical_to_portable_narrow_rows() {
        // `gemm_scalar` runs the portable `narrow_rows` for n < LANES: the
        // reference the full-width AVX2 narrow kernel must match. Depths
        // straddle KU and KC, row counts straddle MC and the 4-row passes,
        // and the largest products take the parallel path.
        for n in 1..LANES {
            for &k in &[1usize, 3, 4, 127, 128, 129, 300] {
                for &m in &[1usize, 5, 63, 64, 65, 130, 400] {
                    let a = fill(m * k, 41);
                    let b = fill(k * n, 42);
                    let mut want = vec![0.0; m * n];
                    gemm_scalar(m, k, n, &a, &b, &mut want);
                    let mut serial = vec![0.0; m * n];
                    gemm_serial(m, k, n, &a, &b, &mut serial);
                    let mut dispatched = vec![0.0; m * n];
                    gemm(m, k, n, &a, &b, &mut dispatched);
                    assert_eq!(bits(&serial), bits(&want), "gemm_serial ({m}, {k}, {n})");
                    assert_eq!(bits(&dispatched), bits(&want), "gemm ({m}, {k}, {n})");

                    // gemm_tn: `a` read as the `k x m` operand of `Aᵀ · B`.
                    let mut packed = vec![0.0; k * m];
                    transpose_into(k, m, &a, &mut packed);
                    let mut want = vec![0.0; m * n];
                    gemm_scalar(m, k, n, &packed, &b, &mut want);
                    let mut serial = vec![0.0; m * n];
                    gemm_tn_serial(k, m, n, &a, &b, &mut serial);
                    let mut dispatched = vec![0.0; m * n];
                    gemm_tn(k, m, n, &a, &b, &mut dispatched);
                    assert_eq!(bits(&serial), bits(&want), "gemm_tn_serial ({k}, {m}, {n})");
                    assert_eq!(bits(&dispatched), bits(&want), "gemm_tn ({k}, {m}, {n})");
                }
            }
        }
    }

    #[test]
    fn gather_kernels_are_bit_identical_to_select_then_gemm() {
        let (src_rows, k) = (310, 37);
        let a = fill(src_rows * k, 51);
        for &n in &[1usize, 6, 7, 8, 9, 33] {
            for &len in &[1usize, 3, 127, 128, 129, 300] {
                // Unordered, with repeats.
                let rows: Vec<usize> = (0..len).map(|i| (i * 97 + 13) % src_rows).collect();
                let mut gathered = Vec::with_capacity(len * k);
                for &r in &rows {
                    gathered.extend_from_slice(&a[r * k..(r + 1) * k]);
                }
                let b = fill(k * n, 52);
                let mut want = vec![0.0; len * n];
                gemm_serial(len, k, n, &gathered, &b, &mut want);
                let mut got = vec![0.0; len * n];
                gemm_gather(&rows, k, n, &a, &b, &mut got);
                assert_eq!(bits(&got), bits(&want), "gemm_gather ({len}, {k}, {n})");

                let bt = fill(len * n, 53);
                let mut want = vec![0.0; k * n];
                gemm_tn_serial(len, k, n, &gathered, &bt, &mut want);
                let mut got = vec![0.0; k * n];
                gemm_tn_gather(&rows, k, n, &a, &bt, &mut got);
                assert_eq!(bits(&got), bits(&want), "gemm_tn_gather ({len}, {k}, {n})");
                // Accumulating KC-row chunks reproduces the whole product.
                let mut chunked = vec![0.0; k * n];
                for (c, chunk) in rows.chunks(KC).enumerate() {
                    let b_chunk = &bt[c * KC * n..][..chunk.len() * n];
                    gemm_tn_gather(chunk, k, n, &a, b_chunk, &mut chunked);
                }
                assert_eq!(bits(&chunked), bits(&want), "chunked ({len}, {k}, {n})");
            }
        }
    }

    #[test]
    fn dispatched_axpy_is_bit_identical_to_scalar() {
        for &n in &[0usize, 1, 7, 8, 9, 64, 67, 513] {
            let b = fill(n, 21);
            let mut dispatched = fill(n, 22);
            let mut scalar = dispatched.clone();
            axpy(&mut dispatched, 0.73, &b);
            axpy_scalar(&mut scalar, 0.73, &b);
            assert_eq!(dispatched, scalar, "simd axpy diverged at n = {}", n);
        }
    }

    #[test]
    fn transpose_round_trips() {
        for &(r, c) in &[(0, 5), (1, 1), (7, 33), (64, 64), (65, 31)] {
            let src = fill(r * c, 5);
            let mut t = vec![0.0; r * c];
            let mut back = vec![0.0; r * c];
            transpose_into(r, c, &src, &mut t);
            transpose_into(c, r, &t, &mut back);
            assert_eq!(src, back);
        }
    }

    #[test]
    fn elementwise_helpers_match_serial_semantics() {
        let n = PAR_ELEM_WORK + 37; // force the parallel path on multi-core
        let a = fill(n, 6);
        let b = fill(n, 7);
        let mut out = vec![0.0; n];
        binary_map_into(&a, &b, &mut out, |x, y| x * y + 1.0);
        for i in (0..n).step_by(997) {
            assert_eq!(out[i], a[i] * b[i] + 1.0);
        }
        let mut inplace = a.clone();
        binary_map_inplace(&mut inplace, &b, |x, y| x - y);
        for i in (0..n).step_by(997) {
            assert_eq!(inplace[i], a[i] - b[i]);
        }
        let mut mapped = vec![0.0; n];
        unary_map_into(&a, &mut mapped, |x| x.max(0.0));
        let mut mapped_inplace = a.clone();
        unary_map_inplace(&mut mapped_inplace, |x| x.max(0.0));
        assert_eq!(mapped, mapped_inplace);
    }

    #[test]
    fn row_helpers_cover_every_row_once() {
        let (rows, cols) = (513, 129); // > PAR_ELEM_WORK elements
        let mut data = vec![0.0f32; rows * cols];
        for_each_row(&mut data, cols, |r, row| {
            for v in row.iter_mut() {
                *v += (r + 1) as f32;
            }
        });
        for r in 0..rows {
            assert_eq!(data[r * cols], (r + 1) as f32);
        }
        let mut sums = vec![0.0f32; rows];
        map_rows_into(&data, cols, &mut sums, |_, row| row.iter().sum());
        for (r, &s) in sums.iter().enumerate() {
            assert_eq!(s, (r + 1) as f32 * cols as f32);
        }
    }
}
