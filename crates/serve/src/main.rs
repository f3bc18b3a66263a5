//! `qce-serve` CLI: the serving daemon and its load generator.
//!
//! ```text
//! qce-serve serve [--addr A] [--workers N] [--quota N] [--cache DIR] [--cache-max-bytes B]
//! qce-serve load  [--addr A] [--jobs N] [--levels 1,4] [--seed-base S] [--out FILE]
//! ```
//!
//! `serve` blocks until a client POSTs `/v1/shutdown`. Defaults come
//! from `QCE_SERVE_ADDR` / `QCE_SERVE_WORKERS` / `QCE_SERVE_QUOTA` and
//! the store's `QCE_CACHE` / `QCE_CACHE_MAX_BYTES`; flags win over the
//! environment. See `OPERATIONS.md` for the wire protocol.

use std::process::ExitCode;

use qce_serve::{
    run_load, LoadConfig, Server, ServerConfig, SERVE_ADDR_ENV, SERVE_QUOTA_ENV, SERVE_WORKERS_ENV,
};
use qce_store::StageCache;

fn env_or(name: &str, fallback: &str) -> String {
    std::env::var(name)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| fallback.to_string())
}

/// `--flag value` argument scanner over the raw arg list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: qce-serve serve [--addr A] [--workers N] [--quota N] [--cache DIR] [--cache-max-bytes B]\n       qce-serve load  [--addr A] [--jobs N] [--levels 1,4] [--seed-base S] [--out FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        _ => usage(),
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let addr =
        flag_value(args, "--addr").unwrap_or_else(|| env_or(SERVE_ADDR_ENV, "127.0.0.1:7700"));
    let workers = flag_value(args, "--workers")
        .unwrap_or_else(|| env_or(SERVE_WORKERS_ENV, "2"))
        .parse::<usize>()
        .unwrap_or(2);
    let quota = flag_value(args, "--quota")
        .unwrap_or_else(|| env_or(SERVE_QUOTA_ENV, "0"))
        .parse::<usize>()
        .unwrap_or(0);
    let cache = resolve_cache(args);

    let server = match Server::start(ServerConfig {
        addr,
        workers,
        tenant_quota: quota,
        cache,
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("qce-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("qce-serve: listening on {}", server.addr());
    println!("qce-serve: POST /v1/shutdown to stop");
    server.wait_for_shutdown_request();
    println!("qce-serve: shutdown requested, draining");
    server.shutdown();
    ExitCode::SUCCESS
}

/// The stage cache `serve` runs with: `--cache DIR` or else the store's
/// environment, capped by `--cache-max-bytes` when that parses. An
/// unparsable budget keeps the cache uncapped and warns.
fn resolve_cache(args: &[String]) -> Option<StageCache> {
    let cache = match flag_value(args, "--cache") {
        Some(dir) => StageCache::at(dir),
        None => StageCache::from_env()?,
    };
    let Some(raw) = flag_value(args, "--cache-max-bytes") else {
        return Some(cache);
    };
    Some(match qce_store::parse_byte_budget(&raw) {
        Some(bytes) => cache.with_max_bytes(bytes),
        None => {
            eprintln!("qce-serve: ignoring unparsable --cache-max-bytes {raw:?}");
            cache
        }
    })
}

fn cmd_load(args: &[String]) -> ExitCode {
    let defaults = LoadConfig::default();
    let addr = flag_value(args, "--addr").unwrap_or_else(|| env_or(SERVE_ADDR_ENV, &defaults.addr));
    let jobs = flag_value(args, "--jobs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(defaults.jobs);
    let levels: Vec<usize> = flag_value(args, "--levels")
        .map(|v| v.split(',').filter_map(|p| p.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or(defaults.levels);
    let seed_base = flag_value(args, "--seed-base")
        .and_then(|v| v.parse().ok())
        .unwrap_or(defaults.seed_base);
    let out = flag_value(args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    let cfg = LoadConfig {
        addr,
        jobs,
        levels,
        seed_base,
    };
    let report = match run_load(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("qce-serve load: {e}");
            return ExitCode::FAILURE;
        }
    };
    for level in &report.levels {
        println!(
            "c{}: {} jobs, p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, total {:.1} ms, {:.2} jobs/s",
            level.concurrency,
            level.jobs,
            level.p50_ms,
            level.p90_ms,
            level.p99_ms,
            level.total_ms,
            level.throughput_jobs_per_s,
        );
    }
    println!(
        "warm: p50 {:.1} ms, p99 {:.1} ms, dedup hit-rate {:.3} ({} hits, {} writes)",
        report.warm.p50_ms,
        report.warm.p99_ms,
        report.dedup_hit_rate,
        report.warm_store_hits,
        report.warm_store_writes,
    );
    if let Err(e) = std::fs::write(&out, report.to_bench().to_json()) {
        eprintln!("qce-serve load: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(ToString::to_string).collect()
    }

    // Regression: `--cache` alone used to come back as no cache at all.
    #[test]
    fn cache_flag_resolves_with_and_without_a_budget() {
        let cache = StageCache::at("c");
        assert_eq!(resolve_cache(&args(&["--cache", "c"])), Some(cache.clone()));
        assert_eq!(
            resolve_cache(&args(&["--cache", "c", "--cache-max-bytes", "4K"])),
            Some(cache.clone().with_max_bytes(4096))
        );
        // An unparsable budget keeps the (uncapped) cache.
        assert_eq!(
            resolve_cache(&args(&["--cache", "c", "--cache-max-bytes", "lots"])),
            Some(cache)
        );
    }
}
