//! Process-wide SIGINT/SIGTERM latch, shared by every long-running
//! binary in the workspace.
//!
//! [`install`] registers a minimal async-signal-safe handler that does
//! nothing but store one atomic flag; [`triggered`] reads it. Binaries
//! poll the flag at convenient drain points (batch boundaries,
//! checkpoint intervals, scheduler dispatch) and shut down cleanly:
//! flush a final progress record, write a drain marker, exit. A second
//! signal while draining still only sets the same flag — forceful
//! termination stays the kernel's job (SIGKILL), which the crash-safe
//! journal in `pac-serve` is built to survive anyway.
//!
//! [`default_sigpipe`] gives SIGPIPE back its default action, so a
//! binary whose stdout reader has gone ends quietly.
//!
//! On non-unix targets these functions are no-ops and the flag never
//! trips.

use std::sync::atomic::{AtomicBool, Ordering};

static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn handle(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" {
    /// `None` is `SIG_DFL`, the default action.
    fn signal(signum: i32, handler: Option<extern "C" fn(i32)>) -> usize;
}

/// Latch SIGINT and SIGTERM into the process-wide stop flag. Safe to
/// call more than once.
pub fn install() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is the C library's, called with valid signal
        // numbers; `handle` only stores an atomic, which is
        // async-signal-safe.
        unsafe {
            signal(SIGINT, Some(handle));
            signal(SIGTERM, Some(handle));
        }
    }
}

/// Give SIGPIPE back its default action, which the Rust runtime sets
/// to ignore: a write to a pipe whose reader has gone then ends the
/// process by SIGPIPE, silently (shells report exit status 141),
/// instead of failing the write and panicking in `println!`.
pub fn default_sigpipe() {
    #[cfg(unix)]
    {
        const SIGPIPE: i32 = 13;
        // SAFETY: `signal` is the C library's, called with a valid
        // signal number; `None` is SIG_DFL, so no handler runs.
        unsafe {
            signal(SIGPIPE, None);
        }
    }
}

/// Whether a latched signal has requested a drain.
pub fn triggered() -> bool {
    STOP.load(Ordering::SeqCst)
}

/// Test hook: trip the flag without a real signal (process-global, so
/// tests using it must tolerate other tests observing the trip).
pub fn trip_for_test() {
    STOP.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_flag_latches() {
        install();
        install();
        trip_for_test();
        assert!(triggered());
    }
}
