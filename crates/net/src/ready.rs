//! Readiness: one `ppoll(2)` call behind one safe function, the crate's
//! only `unsafe`. `vendor/` carries no `libc`, so the two structs it
//! takes are restated in their Linux layout. `ppoll` waits to the
//! nanosecond, where `poll(2)` would round a 1 ms timer up to 2 ms.

use std::os::fd::RawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

/// Wake when the descriptor has bytes to read, a connection to accept, or
/// its peer hung up.
pub(crate) const READ: c_short = 0x001;
/// Wake when the descriptor's send buffer has room.
pub(crate) const WRITE: c_short = 0x004;

/// `struct pollfd`: descriptor, interest, what the kernel saw.
#[repr(C)]
struct PollFd(c_int, c_short, c_short);

extern "C" {
    /// `timeout` is a `struct timespec`: seconds, nanoseconds.
    fn ppoll(fds: *mut PollFd, n: c_ulong, timeout: &[c_long; 2], mask: *const c_void) -> c_int;
}

/// Blocks until one of `fds` is ready for its interest ([`READ`],
/// [`WRITE`] or both) or `max` passes. A signal may end the wait early;
/// callers treat every return as "look again".
pub(crate) fn wait(fds: &[(RawFd, c_short)], max: Duration) {
    let mut set: Vec<PollFd> = fds.iter().map(|&(fd, i)| PollFd(fd, i, 0)).collect();
    let (ptr, n) = (set.as_mut_ptr(), set.len() as c_ulong);
    let secs = max.as_secs().min(c_long::MAX as u64) as c_long;
    let timeout = [secs, c_long::from(max.subsec_nanos())];
    // SAFETY: `ptr` points at `n` exclusively borrowed `pollfd`s in the
    // kernel's layout and `timeout` is a valid `timespec`, both alive for
    // the call; the kernel writes only the third field of each `pollfd`,
    // and reports a bad descriptor there, not by undefined behaviour. A
    // null mask leaves the signal mask as it is.
    unsafe { ppoll(ptr, n, &timeout, std::ptr::null()) };
}
