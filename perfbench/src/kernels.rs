//! Tensor-kernel throughput at Flickr-large shapes, one column per thread
//! count.  The rayon shim fixes its pool size once per process, so each
//! column is a child process of this binary (the `bgc_bench::scaling`
//! child protocol) with `BGC_NUM_THREADS` set; only 1 and `nproc` threads
//! are measured, since more threads than cores would time the scheduler.

use std::process::Command;
use std::time::Instant;

use bgc_graph::DatasetKind;
use bgc_tensor::Matrix;

/// Environment flag that turns this binary into a kernel child.
pub const CHILD_FLAG: &str = "PERFBENCH_KERNEL_CHILD";
const SEED_ENV: &str = "PERFBENCH_KERNEL_SEED";
const MARKER: &str = "PERFBENCH_KERNELS";
/// Each kernel runs at least this many calls and this long.
const MIN_CALLS: usize = 3;
const MIN_SECONDS: f64 = 0.3;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the kernel children and returns `tensor.*` metrics, named
/// `.t1` and `.tnproc` by thread column.
pub fn measure(seed: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let mut counts = vec![1, nproc()];
    counts.dedup();
    let mut metrics = Vec::new();
    let mut columns = Vec::new();
    for &threads in &counts {
        let output = Command::new(&exe)
            .env(CHILD_FLAG, "1")
            .env(SEED_ENV, seed.to_string())
            .env("BGC_NUM_THREADS", threads.to_string())
            .output()
            .map_err(|e| format!("spawning kernel child ({threads} threads): {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "kernel child ({threads} threads) failed with {}:\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .find_map(|line| line.strip_prefix(MARKER))
            .ok_or_else(|| format!("kernel child ({threads} threads) printed no result"))?;
        let mut values = Vec::new();
        for pair in line.split_whitespace() {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed kernel metric '{pair}'"))?;
            let value: f64 = value
                .parse()
                .map_err(|e| format!("bad kernel metric '{pair}': {e}"))?;
            values.push((key.to_string(), value));
        }
        columns.push(values);
    }
    // With one core both columns are the single-thread measurement.
    let last = columns.last().cloned().unwrap_or_default();
    for (column, suffix) in [(&columns[0], "t1"), (&last, "tnproc")] {
        for (key, value) in column {
            if key != "spmm_flop_per_byte" {
                metrics.push((format!("tensor.{key}.{suffix}"), *value));
            }
        }
    }
    if let Some((_, intensity)) = columns[0].iter().find(|(k, _)| k == "spmm_flop_per_byte") {
        metrics.push(("tensor.spmm_flop_per_byte".to_string(), *intensity));
    }
    Ok(metrics)
}

/// Median GFLOP/s of `call` over at least `MIN_CALLS` calls and
/// `MIN_SECONDS` seconds.
fn gflops(flops: f64, mut call: impl FnMut() -> Matrix) -> f64 {
    let mut rates = Vec::new();
    let started = Instant::now();
    while rates.len() < MIN_CALLS || started.elapsed().as_secs_f64() < MIN_SECONDS {
        let t = Instant::now();
        std::hint::black_box(call());
        rates.push(flops / t.elapsed().as_secs_f64() * 1e-9);
    }
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// The child: gemm, SpMM and transpose-matmul on the Flickr-large graph's
/// shapes (89,250 nodes, 128 features, its normalized adjacency).
pub fn child_main() -> Result<(), String> {
    let seed: u64 = std::env::var(SEED_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or("kernel child needs its seed")?;
    let graph = DatasetKind::Flickr.load_large(seed);
    let x = &graph.features;
    let (rows, cols) = x.shape();
    let weight = Matrix::from_fn(cols, cols, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.01);
    let adj = &graph.normalized;
    let nnz = adj.nnz() as f64;

    let gemm = gflops(2.0 * (rows * cols * cols) as f64, || x.matmul(&weight));
    let spmm = gflops(2.0 * nnz * cols as f64, || adj.spmm(x));
    let tmm = gflops(2.0 * (rows * cols * cols) as f64, || x.transpose_matmul(x));
    // Bytes the SpMM must move at least: CSR values and column indices, row
    // offsets, the dense input once and the output once.
    let index_bytes = std::mem::size_of::<usize>() as f64;
    let bytes = nnz * (4.0 + index_bytes)
        + (adj.rows() + 1) as f64 * index_bytes
        + (adj.cols() + adj.rows()) as f64 * cols as f64 * 4.0;
    let intensity = 2.0 * nnz * cols as f64 / bytes;
    println!(
        "{MARKER} gemm_gflops={gemm} spmm_gflops={spmm} transpose_matmul_gflops={tmm} spmm_flop_per_byte={intensity}"
    );
    Ok(())
}
