//! `qce-serve` CLI: the serving daemon.
//!
//! ```text
//! qce-serve serve [--addr A] [--workers N] [--quota N] [--cache DIR] [--cache-max-bytes B]
//! ```
//!
//! `serve` blocks until a client POSTs `/v1/shutdown`. Defaults come
//! from `QCE_SERVE_ADDR` / `QCE_SERVE_WORKERS` / `QCE_SERVE_QUOTA` and
//! the store's `QCE_CACHE` / `QCE_CACHE_MAX_BYTES`; flags win over the
//! environment. An unparsable worker count or quota exits 2, naming
//! the flag or variable it came from. Serving latency is measured by
//! the benchmark's `serve_mix` workload. See `OPERATIONS.md` for the
//! wire protocol.

use std::process::ExitCode;

use qce_serve::{Server, ServerConfig, SERVE_ADDR_ENV, SERVE_QUOTA_ENV, SERVE_WORKERS_ENV};
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

/// The count `flag` sets, else the one environment variable `env`
/// sets, else `fallback`. A value that is not a count is an error that
/// names where it came from.
fn count_value(args: &[String], flag: &str, env: &str, fallback: usize) -> Result<usize, String> {
    let (source, raw) = match flag_value(args, flag) {
        Some(raw) => (flag, raw),
        None => match std::env::var(env).ok().filter(|v| !v.trim().is_empty()) {
            Some(raw) => (env, raw),
            None => return Ok(fallback),
        },
    };
    raw.trim()
        .parse()
        .map_err(|_| format!("{source} {raw:?} is not a non-negative integer"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        _ => {
            eprintln!("usage: qce-serve serve [--addr A] [--workers N] [--quota N] [--cache DIR] [--cache-max-bytes B]");
            ExitCode::from(2)
        }
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let addr =
        flag_value(args, "--addr").unwrap_or_else(|| env_or(SERVE_ADDR_ENV, "127.0.0.1:7700"));
    let (workers, quota) = match (
        count_value(args, "--workers", SERVE_WORKERS_ENV, 2),
        count_value(args, "--quota", SERVE_QUOTA_ENV, 0),
    ) {
        (Ok(workers), Ok(quota)) => (workers, quota),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("qce-serve: {e}");
            return ExitCode::from(2);
        }
    };
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

    // Regression: `--quota 1O` used to run with no quota at all.
    #[test]
    fn malformed_counts_are_errors_naming_their_source() {
        let unset = "QCE_SERVE_TEST_UNSET_COUNT";
        assert_eq!(count_value(&args(&[]), "--quota", unset, 0), Ok(0));
        assert_eq!(
            count_value(&args(&["--quota", "3"]), "--quota", unset, 0),
            Ok(3)
        );
        for bad in ["1O", "-1", "", "2.5"] {
            let err = count_value(&args(&["--quota", bad]), "--quota", unset, 0).unwrap_err();
            assert!(err.starts_with("--quota "), "{err}");
        }

        let env = "QCE_SERVE_TEST_BAD_COUNT";
        std::env::set_var(env, "four");
        let err = count_value(&args(&[]), "--workers", env, 2).unwrap_err();
        assert!(err.starts_with(env), "{err}");
        // The flag wins over a malformed environment value.
        assert_eq!(
            count_value(&args(&["--workers", "4"]), "--workers", env, 2),
            Ok(4)
        );
        std::env::remove_var(env);
    }
}
