//! Deterministic scoped-thread parallelism for the compute kernels.
//!
//! The pool is a zero-dependency wrapper around [`std::thread::scope`]:
//! no worker threads are kept alive between calls, no channels, no
//! work-stealing. Work is **statically partitioned** into contiguous,
//! disjoint ranges, and each range owns a disjoint slice of the output.
//! Because every output element is produced by exactly one thread using
//! a fixed per-element accumulation order, results are bit-for-bit
//! identical for every thread count — there are no cross-thread
//! floating-point reductions anywhere in this crate.
//!
//! The worker count of the global pool comes from the `QCE_THREADS`
//! environment variable when set to a positive integer, and from
//! [`std::thread::available_parallelism`] otherwise. `QCE_THREADS=1`
//! (or [`Pool::serial`]) degrades every kernel to the plain scalar
//! reference path.
//!
//! On machines that expose a single hardware core (see
//! [`detected_cores`]), every pool — however wide — takes the inline
//! path: spawning scoped threads on one core cannot overlap any work,
//! it only adds spawn/join overhead. Since the partition never changes
//! the arithmetic, this fallback is invisible in the outputs.
//!
//! # Examples
//!
//! ```
//! use qce_tensor::par::{self, Pool};
//!
//! let pool = Pool::with_threads(4);
//! let mut data = vec![0.0f32; 10];
//! par::for_each_chunk(&pool, &mut data, 3, || (), |_, idx, chunk| {
//!     for v in chunk.iter_mut() {
//!         *v = idx as f32;
//!     }
//! });
//! assert_eq!(data[0], 0.0);
//! assert_eq!(data[9], 3.0);
//! ```

use std::sync::OnceLock;
use std::time::Instant;

/// Cached handles into the global telemetry registry.
///
/// Telemetry here is strictly observational: the counters never influence
/// partitioning or scheduling, so the determinism contract is unchanged.
struct PoolStats {
    /// `for_each_item` calls that ran entirely on the calling thread.
    inline_runs: qce_telemetry::Counter,
    /// `for_each_item` calls that spawned scoped workers.
    parallel_runs: qce_telemetry::Counter,
    /// Items dispatched across all calls.
    tasks: qce_telemetry::Counter,
    /// Per-worker busy time per parallel call, in microseconds
    /// (recorded only while trace collection is enabled).
    worker_busy_us: qce_telemetry::Histogram,
    /// Total worker busy time across parallel calls, in microseconds
    /// (recorded only while trace collection is enabled).
    busy_us: qce_telemetry::Counter,
    /// Total worker idle time across parallel calls, in microseconds:
    /// `wall × workers − busy`. There is no work-stealing by design
    /// (stealing would make the partition schedule-dependent and break
    /// the determinism contract), so this measures the imbalance of the
    /// static partition — the time workers spent waiting in the join
    /// for the slowest partition to finish.
    idle_us: qce_telemetry::Counter,
}

fn pool_stats() -> &'static PoolStats {
    static STATS: OnceLock<PoolStats> = OnceLock::new();
    STATS.get_or_init(|| PoolStats {
        inline_runs: qce_telemetry::counter("pool.inline_runs"),
        parallel_runs: qce_telemetry::counter("pool.parallel_runs"),
        tasks: qce_telemetry::counter("pool.tasks"),
        worker_busy_us: qce_telemetry::histogram(
            "pool.worker_busy_us",
            &[10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0],
        ),
        busy_us: qce_telemetry::counter("pool.busy_us"),
        idle_us: qce_telemetry::counter("pool.idle_us"),
    })
}

/// A fixed-width scoped thread pool.
///
/// `Pool` holds no threads; it is only a worker-count policy object.
/// Each `for_each_*` call spawns (at most) that many scoped threads and
/// joins them before returning, so borrows of surrounding stack data are
/// safe without `unsafe` or `'static` bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool that never spawns: every kernel runs on the calling thread.
    ///
    /// This is the scalar reference implementation that the determinism
    /// property tests compare every parallel configuration against.
    #[must_use]
    pub fn serial() -> Self {
        Pool { threads: 1 }
    }

    /// A pool with exactly `n` workers (clamped to at least 1).
    #[must_use]
    pub fn with_threads(n: usize) -> Self {
        Pool { threads: n.max(1) }
    }

    /// The process-wide default pool.
    ///
    /// Worker count is read once from `QCE_THREADS` (positive integer),
    /// falling back to [`std::thread::available_parallelism`].
    #[must_use]
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::with_threads(default_threads()))
    }

    /// Number of worker threads this pool will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers that would actually run concurrently for `items` units of
    /// work: the pool width, clamped by the item count and by the 1-core
    /// inline fallback (see the module docs).
    ///
    /// Kernels use this to decide between their parallel decomposition
    /// (per-item partial buffers, reduced in a fixed order) and a leaner
    /// serial path that produces the same bytes without the partials —
    /// on hosts where the pool cannot win, the amortized serial path is
    /// strictly cheaper.
    #[must_use]
    pub fn effective_workers(&self, items: usize) -> usize {
        if detected_cores() == 1 {
            1
        } else {
            self.threads.min(items.max(1))
        }
    }
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("QCE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    detected_cores()
}

/// Hardware core count reported by
/// [`std::thread::available_parallelism`], read once and cached.
///
/// Unlike [`Pool::global`]'s worker count this ignores `QCE_THREADS`:
/// it answers "can threads actually run concurrently here?", which is
/// what the inline fallback and the bench report need. Returns 1 when
/// the parallelism query fails.
#[must_use]
pub fn detected_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f` once per item, distributing items contiguously over the pool.
///
/// Items are moved into the workers: thread `t` of `T` receives the
/// contiguous range of items starting at offset `sum(len_0..len_t)` where
/// the first `n % T` threads take `n / T + 1` items each. `f` is called
/// as `f(&mut state, global_index, item)` with `state` built per-thread
/// by `init`; indices within one thread ascend, so any per-item work is
/// ordered exactly as in the serial loop.
///
/// Determinism: the partition affects only *which thread* runs an item,
/// never the arithmetic performed for it, so outputs are identical for
/// every thread count as long as `f` writes only to state owned by its
/// item (enforced naturally by passing items by value, e.g. disjoint
/// `&mut [f32]` chunks).
pub fn for_each_item<T, S, I, F>(pool: &Pool, items: Vec<T>, init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let stats = pool_stats();
    stats.tasks.incr(n as u64);
    let threads = pool.threads.min(n);
    if threads <= 1 || detected_cores() == 1 {
        // Fast path: a one-worker pool, a single item, or a single
        // hardware core never spawns — the whole batch runs inline on
        // the calling thread.
        stats.inline_runs.incr(1);
        let mut state = init();
        for (idx, item) in items.into_iter().enumerate() {
            f(&mut state, idx, item);
        }
        return;
    }
    stats.parallel_runs.incr(1);
    // Busy-time attribution needs a clock read per worker; only pay for
    // it when a trace sink is attached or logging is at debug.
    let collect = qce_telemetry::collect_enabled();
    let call_t0 = collect.then(Instant::now);
    let busy_total = std::sync::atomic::AtomicU64::new(0);
    let busy_total = &busy_total;
    // Contiguous static partition: thread t takes base + (t < rem) items.
    let base = n / threads;
    let rem = n % threads;
    let mut parts: Vec<(usize, Vec<T>)> = Vec::with_capacity(threads);
    let mut remaining = items;
    let mut start = 0;
    for t in 0..threads {
        let take = base + usize::from(t < rem);
        let tail = remaining.split_off(take);
        parts.push((start, remaining));
        remaining = tail;
        start += take;
    }
    let f = &f;
    let init = &init;
    let run_part = move |offset: usize, part: Vec<T>| {
        let t0 = collect.then(Instant::now);
        let mut state = init();
        for (i, item) in part.into_iter().enumerate() {
            f(&mut state, offset + i, item);
        }
        if let Some(t0) = t0 {
            let elapsed = t0.elapsed();
            stats.worker_busy_us.record(elapsed.as_secs_f64() * 1e6);
            busy_total.fetch_add(
                u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                std::sync::atomic::Ordering::Relaxed,
            );
        }
    };
    std::thread::scope(|scope| {
        let mut parts = parts.into_iter();
        // The first partition runs on the calling thread: it would
        // otherwise idle in the join, and one spawn is saved per call.
        let head = parts.next();
        for (offset, part) in parts {
            scope.spawn(move || run_part(offset, part));
        }
        if let Some((offset, part)) = head {
            run_part(offset, part);
        }
    });
    if let Some(t0) = call_t0 {
        let wall_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        let busy = busy_total.load(std::sync::atomic::Ordering::Relaxed);
        let capacity = wall_us.saturating_mul(threads as u64);
        stats.busy_us.incr(busy);
        stats.idle_us.incr(capacity.saturating_sub(busy));
    }
}

/// Splits `data` into chunks of `chunk_len` and runs `f` on each in parallel.
///
/// Chunk boundaries depend only on `chunk_len` (the last chunk may be
/// short), never on the thread count, so a kernel that fixes its work
/// decomposition via `chunk_len` produces bitwise-identical output under
/// any pool. `f` receives `(&mut state, chunk_index, chunk)`.
pub fn for_each_chunk<T, S, I, F>(pool: &Pool, data: &mut [T], chunk_len: usize, init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    let chunks: Vec<&mut [T]> = data.chunks_mut(chunk_len.max(1)).collect();
    for_each_item(pool, chunks, init, f);
}

/// Sorts `data` by IEEE-754 total order, identically for any pool.
///
/// Serial path: `sort_unstable_by(f32::total_cmp)`. Parallel path: each
/// thread sorts a contiguous run, then runs are merged pairwise bottom-up.
/// Because `total_cmp` is a total order over bit patterns, the sorted
/// array is bitwise unique — every schedule yields the same bytes.
pub fn sort_f32(pool: &Pool, data: &mut [f32]) {
    const SERIAL_CUTOFF: usize = 8192;
    let n = data.len();
    if pool.threads <= 1 || n <= SERIAL_CUTOFF || detected_cores() == 1 {
        data.sort_unstable_by(f32::total_cmp);
        return;
    }
    let run = n.div_ceil(pool.threads);
    for_each_chunk(
        pool,
        data,
        run,
        || (),
        |_, _, chunk| {
            chunk.sort_unstable_by(f32::total_cmp);
        },
    );
    // Bottom-up merge of sorted runs, ping-ponging between `data` and `aux`.
    let mut aux = vec![0.0f32; n];
    let mut width = run;
    let mut in_data = true;
    while width < n {
        {
            let (src, dst): (&[f32], &mut [f32]) = if in_data {
                (&*data, &mut aux)
            } else {
                (&aux, data)
            };
            let src = &src[..n];
            for_each_chunk(
                pool,
                dst,
                2 * width,
                || (),
                |_, idx, out| {
                    let lo = idx * 2 * width;
                    let mid = (lo + width).min(n);
                    let hi = (lo + 2 * width).min(n);
                    merge_runs(&src[lo..mid], &src[mid..hi], out);
                },
            );
        }
        width *= 2;
        in_data = !in_data;
    }
    if !in_data {
        data.copy_from_slice(&aux);
    }
}

fn merge_runs(left: &[f32], right: &[f32], out: &mut [f32]) {
    debug_assert_eq!(left.len() + right.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_left = j >= right.len()
            || (i < left.len() && left[i].total_cmp(&right[j]) != std::cmp::Ordering::Greater);
        if take_left {
            *slot = left[i];
            i += 1;
        } else {
            *slot = right[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_is_serial() {
        assert_eq!(Pool::serial().threads(), 1);
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert_eq!(Pool::with_threads(6).threads(), 6);
    }

    #[test]
    fn for_each_item_covers_all_indices() {
        for threads in [1, 2, 3, 8, 17] {
            let pool = Pool::with_threads(threads);
            let items: Vec<usize> = (0..23).collect();
            let mut hits = [0u8; 23];
            let slots: Vec<&mut u8> = hits.iter_mut().collect();
            let pairs: Vec<(usize, &mut u8)> = items.into_iter().zip(slots).collect();
            for_each_item(
                &pool,
                pairs,
                || (),
                |_, idx, (item, slot)| {
                    assert_eq!(idx, item);
                    *slot += 1;
                },
            );
            assert!(hits.iter().all(|&h| h == 1), "threads={threads}");
        }
    }

    #[test]
    fn for_each_chunk_indices_match_layout() {
        for threads in [1, 3, 5] {
            let pool = Pool::with_threads(threads);
            let mut data = vec![0.0f32; 1000];
            for_each_chunk(
                &pool,
                &mut data,
                64,
                || (),
                |_, idx, chunk| {
                    for (off, v) in chunk.iter_mut().enumerate() {
                        *v = (idx * 64 + off) as f32;
                    }
                },
            );
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i as f32);
            }
        }
    }

    #[test]
    fn sort_f32_matches_serial_bitwise() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut base: Vec<f32> = (0..40_000).map(|_| rng.random_range(-4.0..4.0)).collect();
        base[17] = -0.0;
        base[400] = 0.0;
        base[999] = f32::NAN;
        let mut expect = base.clone();
        expect.sort_unstable_by(f32::total_cmp);
        for threads in [1, 2, 3, 8] {
            let mut got = base.clone();
            sort_f32(&Pool::with_threads(threads), &mut got);
            let same = got
                .iter()
                .zip(expect.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "threads={threads}");
        }
    }

    #[test]
    fn inline_fast_path_is_counted() {
        let inline = qce_telemetry::counter("pool.inline_runs");
        let parallel = qce_telemetry::counter("pool.parallel_runs");
        let tasks = qce_telemetry::counter("pool.tasks");
        // Counters are global and tests run concurrently, so assert
        // monotone lower bounds rather than exact deltas.
        let (i0, p0, t0) = (inline.get(), parallel.get(), tasks.get());
        // One worker → inline, regardless of item count.
        for_each_item(&Pool::serial(), vec![1u8, 2, 3], || (), |_, _, _| {});
        // One item → inline even on a wide pool (threads is clamped to n).
        for_each_item(&Pool::with_threads(8), vec![9u8], || (), |_, _, _| {});
        assert!(inline.get() - i0 >= 2);
        assert!(tasks.get() - t0 >= 4);
        // Two workers → parallel, unless the machine has only one core,
        // in which case the 1-core fallback keeps the call inline.
        for_each_item(&Pool::with_threads(2), vec![1u8, 2, 3], || (), |_, _, _| {});
        if detected_cores() > 1 {
            assert!(parallel.get() - p0 >= 1);
        } else {
            assert!(inline.get() - i0 >= 3);
        }
    }

    #[test]
    fn busy_and_idle_are_accounted_under_collection() {
        if detected_cores() == 1 {
            return; // 1-core hosts never take the parallel path
        }
        let busy = qce_telemetry::counter("pool.busy_us");
        let idle = qce_telemetry::counter("pool.idle_us");
        let prev = qce_telemetry::level();
        qce_telemetry::set_level(qce_telemetry::Level::Debug);
        let (b0, i0) = (busy.get(), idle.get());
        // A deliberately imbalanced batch: one heavy item among light
        // ones on a 2-wide pool forces static-partition idle time.
        let items: Vec<u64> = (0..8).collect();
        for_each_item(
            &Pool::with_threads(2),
            items,
            || (),
            |_, _, item| {
                if item == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            },
        );
        qce_telemetry::set_level(prev);
        // Counters are global; assert monotone lower bounds only.
        assert!(busy.get() - b0 >= 5_000, "busy time missing");
        assert!(idle.get() >= i0, "idle counter went backwards");
    }

    #[test]
    fn empty_inputs_are_fine() {
        let pool = Pool::with_threads(4);
        for_each_item(&pool, Vec::<u8>::new(), || (), |_, _, _| {});
        let mut empty: [f32; 0] = [];
        for_each_chunk(&pool, &mut empty, 8, || (), |_, _, _| {});
        sort_f32(&pool, &mut empty);
    }
}
