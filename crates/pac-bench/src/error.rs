//! Typed errors for the bench binaries' file I/O.
//!
//! Every read, write, and parse of a real file in the `pac-bench`
//! binaries goes through this module so a failure always names the
//! offending path — `cannot write traces/ep.trace.json: No space left
//! on device` instead of a bare panic backtrace.

use std::path::{Path, PathBuf};

/// A file operation in a bench binary failed; every variant carries the
/// path it failed on.
#[derive(Debug)]
pub enum BenchError {
    /// Reading the named file failed.
    Read(PathBuf, std::io::Error),
    /// Writing the named file failed.
    Write(PathBuf, std::io::Error),
    /// Creating the named directory failed.
    CreateDir(PathBuf, std::io::Error),
    /// The named file was read but its contents were rejected.
    Parse(PathBuf, String),
    /// A command-line flag was malformed or named an unknown value; the
    /// message always lists the valid choices.
    Usage(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Read(p, e) => write!(f, "cannot read {}: {e}", p.display()),
            BenchError::Write(p, e) => write!(f, "cannot write {}: {e}", p.display()),
            BenchError::CreateDir(p, e) => {
                write!(f, "cannot create directory {}: {e}", p.display())
            }
            BenchError::Parse(p, msg) => write!(f, "cannot parse {}: {msg}", p.display()),
            BenchError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

/// The `pac_types::cli` parsers report usage errors as plain messages.
impl From<String> for BenchError {
    fn from(msg: String) -> Self {
        BenchError::Usage(msg)
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Read(_, e) | BenchError::Write(_, e) | BenchError::CreateDir(_, e) => {
                Some(e)
            }
            _ => None,
        }
    }
}

/// [`std::fs::read_to_string`] with the path attached to the error.
pub fn read_to_string(path: impl AsRef<Path>) -> Result<String, BenchError> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| BenchError::Read(path.to_path_buf(), e))
}

/// [`std::fs::write`] with the path attached to the error.
pub fn write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), BenchError> {
    let path = path.as_ref();
    std::fs::write(path, contents).map_err(|e| BenchError::Write(path.to_path_buf(), e))
}

/// [`std::fs::create_dir_all`] with the path attached to the error.
pub fn create_dir_all(path: impl AsRef<Path>) -> Result<(), BenchError> {
    let path = path.as_ref();
    std::fs::create_dir_all(path).map_err(|e| BenchError::CreateDir(path.to_path_buf(), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_name_the_offending_path() {
        let e = read_to_string("/nonexistent/dir/file.json").unwrap_err();
        assert!(matches!(e, BenchError::Read(_, _)));
        assert!(e.to_string().contains("/nonexistent/dir/file.json"));

        let e = write("/nonexistent/dir/file.json", "x").unwrap_err();
        assert!(matches!(e, BenchError::Write(_, _)));
        assert!(e.to_string().contains("cannot write /nonexistent/dir/file.json"));

        let e = BenchError::Parse(PathBuf::from("a.json"), "bad field".into());
        assert_eq!(e.to_string(), "cannot parse a.json: bad field");

        let e = BenchError::Usage("unknown --backend 'ddr4' (valid: hmc, hbm)".into());
        assert_eq!(e.to_string(), "unknown --backend 'ddr4' (valid: hmc, hbm)");
    }
}
