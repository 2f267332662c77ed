//! The file server's error and result types: one `FsError` whatever
//! the transport, and the one `S4Error → FsError` mapping.

use core::fmt;

use s4_core::S4Error;

/// Errors surfaced by file servers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Name not found in directory.
    NotFound,
    /// Name already exists.
    Exists,
    /// Operation applied to the wrong file type.
    NotADirectory,
    /// Directory not empty on rmdir.
    NotEmpty,
    /// Permission denied by the storage layer.
    Denied,
    /// The server's storage failed.
    Storage(String),
    /// Bad argument (name too long, bad handle).
    Invalid(&'static str),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NotADirectory => write!(f, "not a directory"),
            FsError::NotEmpty => write!(f, "directory not empty"),
            FsError::Denied => write!(f, "permission denied"),
            FsError::Storage(e) => write!(f, "storage failure: {e}"),
            FsError::Invalid(why) => write!(f, "invalid argument: {why}"),
        }
    }
}

impl std::error::Error for FsError {}

/// The one `S4Error → FsError` mapping; every transport converts with
/// `?`, so a failing request is the same `FsError` in process and over
/// TCP. A failed batch is the kind of the sub-request that failed it
/// (a `Storage` text is the whole error's, batch position included).
impl From<S4Error> for FsError {
    fn from(e: S4Error) -> FsError {
        let mut cause = &e;
        while let S4Error::BatchFailed { error, .. } = cause {
            cause = error;
        }
        match cause {
            S4Error::AccessDenied => FsError::Denied,
            S4Error::NoSuchObject | S4Error::NoSuchPartition => FsError::NotFound,
            _ => FsError::Storage(e.to_string()),
        }
    }
}

impl FsError {
    /// Status byte and text of this error's failure reply on the wire
    /// (0 is success; see the frame format in [`crate::tcp`]).
    pub(crate) fn to_wire(&self) -> (u8, String) {
        match self {
            FsError::Storage(msg) => (1, msg.clone()),
            FsError::NotFound => (2, self.to_string()),
            FsError::Denied => (3, self.to_string()),
            // Raised by the translator, never by a server.
            other => (1, other.to_string()),
        }
    }

    /// The error a failure reply stands for: [`FsError::to_wire`] back.
    pub(crate) fn from_wire(status: u8, text: &[u8]) -> FsError {
        match status {
            2 => FsError::NotFound,
            3 => FsError::Denied,
            _ => FsError::Storage(String::from_utf8_lossy(text).into_owned()),
        }
    }
}

/// Result alias for file-server operations.
pub type FsResult<T> = std::result::Result<T, FsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s4_errors_map_by_kind_and_survive_the_wire() {
        let batch = |error| S4Error::BatchFailed {
            completed: 1,
            failed_at: 1,
            error: Box::new(error),
        };
        let bad = S4Error::BadRequest("nested batch");
        for (e, expected) in [
            (S4Error::AccessDenied, FsError::Denied),
            (S4Error::NoSuchObject, FsError::NotFound),
            (S4Error::NoSuchPartition, FsError::NotFound),
            (batch(S4Error::AccessDenied), FsError::Denied),
            (batch(S4Error::NoSuchObject), FsError::NotFound),
            (
                bad.clone(),
                FsError::Storage("bad request: nested batch".into()),
            ),
            (
                batch(bad),
                FsError::Storage(
                    "batch failed at sub-request 1 after 1 completed: bad request: nested batch"
                        .into(),
                ),
            ),
            (
                S4Error::PoolFull,
                FsError::Storage("history pool exhausted".into()),
            ),
        ] {
            let mapped = FsError::from(e);
            assert_eq!(mapped, expected);
            let (status, text) = mapped.to_wire();
            assert_ne!(status, 0, "0 is the success status");
            assert_eq!(FsError::from_wire(status, text.as_bytes()), mapped);
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(FsError::NotFound.to_string(), "no such file or directory");
        assert_eq!(
            FsError::Storage("disk died".into()).to_string(),
            "storage failure: disk died"
        );
    }
}
