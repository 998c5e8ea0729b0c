//! SIGTERM / SIGINT handling without a libc dependency.
//!
//! The dependency-free build can't use the `libc` or `signal-hook`
//! crates, so on Unix this module declares the C `signal()` entry point
//! itself and installs a handler that flips one atomic flag — the only
//! async-signal-safe action taken. `Server::run_until_shutdown` polls the
//! flag and begins a graceful drain when it is set.
//!
//! On non-Unix targets installation is a no-op and the flag only changes
//! via [`request_shutdown`].

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once a shutdown signal (or programmatic request) has been seen.
pub fn signalled() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Programmatically triggers the same path as SIGTERM (used by tests and
/// by `Server::shutdown`).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        // Only an atomic store: async-signal-safe.
        super::SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // ISO C `signal(2)`; present in every Unix libc the toolchain
        // links. Avoids a `libc` crate dependency.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs handlers for SIGINT (ctrl-c) and SIGTERM that set the
/// shutdown flag. Safe to call more than once.
pub fn install_signal_handlers() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_flag() {
        // The flag is process-global, so only assert the set direction.
        request_shutdown();
        assert!(signalled());
    }
}
