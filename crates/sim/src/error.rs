//! Error numbers for simulated syscalls.

use std::error::Error;
use std::fmt;

/// POSIX-style error numbers returned by simulated syscalls.
///
/// The set is restricted to what the substrate actually produces; it is
/// `#[non_exhaustive]` so new kernel features can add variants without a
/// breaking change.
///
/// # Examples
///
/// ```
/// use prebake_sim::error::Errno;
///
/// let e = Errno::Enoent;
/// assert_eq!(e.to_string(), "no such file or directory");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Errno {
    /// Operation not permitted (missing capability).
    Eperm,
    /// No such file or directory.
    Enoent,
    /// No such process.
    Esrch,
    /// Bad file descriptor.
    Ebadf,
    /// Resource temporarily unavailable.
    Eagain,
    /// Bad address (unmapped guest memory).
    Efault,
    /// File or resource busy.
    Ebusy,
    /// File exists.
    Eexist,
    /// Not a directory.
    Enotdir,
    /// Is a directory.
    Eisdir,
    /// Invalid argument.
    Einval,
    /// No child processes.
    Echild,
    /// Address already in use.
    Eaddrinuse,
    /// Not connected / endpoint not listening.
    Enotconn,
    /// No space left in the mapping range.
    Enomem,
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            Errno::Eperm => "operation not permitted",
            Errno::Enoent => "no such file or directory",
            Errno::Esrch => "no such process",
            Errno::Ebadf => "bad file descriptor",
            Errno::Eagain => "resource temporarily unavailable",
            Errno::Efault => "bad address",
            Errno::Ebusy => "device or resource busy",
            Errno::Eexist => "file exists",
            Errno::Enotdir => "not a directory",
            Errno::Eisdir => "is a directory",
            Errno::Einval => "invalid argument",
            Errno::Echild => "no child processes",
            Errno::Eaddrinuse => "address already in use",
            Errno::Enotconn => "transport endpoint is not connected",
            Errno::Enomem => "cannot allocate memory",
        };
        f.write_str(msg)
    }
}

impl Error for Errno {}

/// Result alias for simulated syscalls.
pub type SysResult<T> = Result<T, Errno>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_no_period() {
        for e in [Errno::Eperm, Errno::Enoent, Errno::Ebusy, Errno::Enomem] {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn errno_is_std_error() {
        fn takes_err<E: Error + Send + Sync + 'static>(_e: E) {}
        takes_err(Errno::Einval);
    }
}
