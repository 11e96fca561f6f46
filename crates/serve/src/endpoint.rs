//! Where the daemon listens and the client connects: `--socket PATH` (a
//! Unix socket) or `--tcp ADDR`.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

use equitls_tls::cli::{Flags, UsageError};

/// A daemon address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix socket path (`--socket`).
    Unix(PathBuf),
    /// A TCP address (`--tcp`).
    Tcp(String),
}

/// One connection's read and write halves, over either transport.
pub type Connection = (Box<dyn Read + Send>, Box<dyn Write + Send>);

/// A bound [`Endpoint`]'s accept call.
pub type Acceptor = Box<dyn Fn() -> io::Result<Connection>>;

fn halves<S: Read + Write + Send + 'static>(reader: S, writer: S) -> Connection {
    (Box::new(reader), Box::new(writer))
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
            Endpoint::Tcp(addr) => f.write_str(addr),
        }
    }
}

impl Endpoint {
    /// Take `--socket PATH` or `--tcp ADDR` into `slot`; `Ok(false)` for
    /// any other flag. A Unix socket given anywhere on the line wins.
    pub fn parse(
        flag: &str,
        flags: &mut Flags,
        slot: &mut Option<Endpoint>,
    ) -> Result<bool, UsageError> {
        match flag {
            "--socket" => *slot = Some(Endpoint::Unix(flags.value(flag, "a socket path")?)),
            "--tcp" => {
                let addr = flags.value(flag, "an address (e.g. --tcp 127.0.0.1:7878)")?;
                if !matches!(slot, Some(Endpoint::Unix(_))) {
                    *slot = Some(Endpoint::Tcp(addr));
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Listen here, and return the nonblocking accept: `WouldBlock` when
    /// no connection is pending, else the connection, blocking from here
    /// on. A stale socket file (left by a `kill -9`) is removed first.
    pub fn bind(&self) -> io::Result<Acceptor> {
        Ok(match self {
            Endpoint::Unix(path) => {
                std::fs::remove_file(path).ok();
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Box::new(move || {
                    let stream = listener.accept()?.0;
                    stream.set_nonblocking(false).ok();
                    Ok(halves(stream.try_clone()?, stream))
                })
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Box::new(move || {
                    let stream = listener.accept()?.0;
                    stream.set_nonblocking(false).ok();
                    Ok(halves(stream.try_clone()?, stream))
                })
            }
        })
    }

    /// Remove the socket file [`Endpoint::bind`] created, if any.
    pub fn unbind(&self) {
        if let Endpoint::Unix(path) = self {
            std::fs::remove_file(path).ok();
        }
    }

    /// Connect to a daemon listening here.
    pub fn connect(&self) -> io::Result<Connection> {
        match self {
            Endpoint::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                Ok(halves(stream.try_clone()?, stream))
            }
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                Ok(halves(stream.try_clone()?, stream))
            }
        }
    }
}
